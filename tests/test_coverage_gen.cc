/**
 * @file
 * Determinism of coverage-directed input generation (Table 3 front
 * end): the selected vectors are a function of (workload, seed,
 * max_inputs, plateau) only, so repeated runs are stable and the seed
 * matters. The table3_verification golden pins the selection itself.
 */

#include <gtest/gtest.h>

#include "src/verify/coverage_gen.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

void
expectSameInputs(const CoverageInputs &a, const CoverageInputs &b,
                 const char *what)
{
    EXPECT_EQ(a.totalGenerated, b.totalGenerated) << what;
    EXPECT_EQ(a.linePct, b.linePct) << what;
    EXPECT_EQ(a.branchPct, b.branchPct) << what;
    EXPECT_EQ(a.branchDirPct, b.branchDirPct) << what;
    ASSERT_EQ(a.inputs.size(), b.inputs.size()) << what;
    for (size_t i = 0; i < a.inputs.size(); i++) {
        EXPECT_EQ(a.inputs[i].ramWords, b.inputs[i].ramWords)
            << what << " input " << i;
        EXPECT_EQ(a.inputs[i].gpioIn, b.inputs[i].gpioIn)
            << what << " input " << i;
        EXPECT_EQ(a.inputs[i].extraRam, b.inputs[i].extraRam)
            << what << " input " << i;
    }
}

TEST(CoverageGen, SameSeedIsStable)
{
    const Workload &w = workloadByName("tea8");
    CoverageInputs a = generateCoverageInputs(w, 48, 8, 21);
    CoverageInputs b = generateCoverageInputs(w, 48, 8, 21);
    expectSameInputs(a, b, "repeat run");
}

TEST(CoverageGen, DifferentSeedsDiffer)
{
    // Not a determinism property per se, but guards against the
    // generator ignoring its seed (which would make the determinism
    // tests above vacuous).
    const Workload &w = workloadByName("binSearch");
    CoverageInputs a = generateCoverageInputs(w, 48, 8, 7);
    CoverageInputs b = generateCoverageInputs(w, 48, 8, 8);
    bool any_diff = a.inputs.size() != b.inputs.size();
    for (size_t i = 0; !any_diff && i < a.inputs.size(); i++)
        any_diff = a.inputs[i].ramWords != b.inputs[i].ramWords;
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace bespoke
