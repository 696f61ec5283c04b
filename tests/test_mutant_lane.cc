/**
 * @file
 * Lane-per-mutant sweep equivalence (Tables 4/5 dynamic columns).
 *
 * mutantConcreteSweep batches every mutant x input pair onto bit-plane
 * lanes; the acceptance bar is that every verdict the table reports —
 * detected / undetected and the switching-power delta — is
 * bit-identical to running the same mutants one at a time through the
 * scalar gate runner (opts.forceScalar). The quick suite pins a
 * representative workload subset, and a sweep with more scenarios
 * than one 64-lane plane holds; the full sweep across all 15 paper
 * workloads and every generated mutant runs when BESPOKE_NIGHTLY is
 * set (nightly workflow).
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "src/cpu/bsp430.hh"
#include "src/mutation/mutant_sweep.hh"
#include "src/mutation/mutation.hh"
#include "src/sim/lane_sim.hh"
#include "src/timing/sta.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

const Netlist &
core()
{
    static Netlist nl = [] {
        Netlist n = buildBsp430();
        sizeForLoads(n);
        return n;
    }();
    return nl;
}

/**
 * Sweep `w`'s mutants scalar and lane-batched and require verdict
 * equality: same detected flag, same power delta, per mutant. The
 * lane-batched verdicts land in `*verdicts` when it is non-null.
 */
void
expectLaneMatchesScalar(const Workload &w, size_t max_mutants,
                        int inputs_per_mutant,
                        std::vector<MutantVerdict> *verdicts = nullptr)
{
    SCOPED_TRACE(w.name);
    std::vector<Mutant> mutants = generateMutants(w);
    if (max_mutants && mutants.size() > max_mutants)
        mutants.resize(max_mutants);
    if (mutants.empty())
        return;  // unit workloads may offer nothing to mutate

    MutantPlanePrep prep(core(), w, mutants);

    MutantSweepOptions sopts;
    sopts.inputsPerMutant = inputs_per_mutant;

    sopts.forceScalar = true;
    std::vector<MutantVerdict> scalar = mutantConcreteSweep(prep, sopts);

    sopts.forceScalar = false;
    std::vector<MutantVerdict> lane = mutantConcreteSweep(prep, sopts);

    ASSERT_EQ(scalar.size(), lane.size());
    ASSERT_EQ(scalar.size(), mutants.size());
    for (size_t i = 0; i < scalar.size(); i++) {
        EXPECT_EQ(scalar[i].detected, lane[i].detected)
            << "mutant " << i << " (" << mutants[i].from << " -> "
            << mutants[i].to << " at line " << mutants[i].sourceLine
            << ") verdict differs";
        // The lane path ingests the same toggle sequence the scalar
        // path observes, so the power numbers are exactly equal — not
        // merely close.
        EXPECT_EQ(scalar[i].powerDeltaPct, lane[i].powerDeltaPct)
            << "mutant " << i << " power delta differs";
    }
    if (verdicts)
        *verdicts = std::move(lane);
}

// Quick ctest slice: cheap workloads from the Table 4/5 set, a few
// mutants each.
TEST(MutantLane, QuickVerdictsMatchScalar)
{
    for (const char *name : {"binSearch", "rle", "tea8"})
        expectLaneMatchesScalar(workloadByName(name), 6, 2);
    // mult's quick sweep (first 6 mutants x 2 inputs) detects every
    // mutant it generates: 5 of 5.
    std::vector<MutantVerdict> mult;
    expectLaneMatchesScalar(workloadByName("mult"), 6, 2, &mult);
    size_t detected = 0;
    for (const MutantVerdict &v : mult)
        detected += v.detected ? 1 : 0;
    EXPECT_EQ(mult.size(), 5u);
    EXPECT_EQ(detected, 5u);
}

// 6 mutants x 12 inputs = 72 scenarios: the per-lane ROM images
// span two LaneSoc batches, the second one partly filled.
TEST(MutantLane, VerdictsMatchScalarAcrossTwoPlanes)
{
    std::vector<MutantVerdict> verdicts;
    expectLaneMatchesScalar(workloadByName("inSort"), 6, 12, &verdicts);
    ASSERT_EQ(verdicts.size(), 6u);
    EXPECT_GT(verdicts.size() * 12, static_cast<size_t>(LaneSoc::kLanes));
}

// Full equivalence: every mutant of every paper workload at the
// bench's input count. Minutes of scalar reference sweeps — nightly
// only.
TEST(MutantLane, FullSweepAllWorkloads)
{
    if (!std::getenv("BESPOKE_NIGHTLY"))
        GTEST_SKIP() << "full mutant equivalence runs in the nightly "
                        "workflow (set BESPOKE_NIGHTLY to force)";
    for (const Workload &w : workloads())
        expectLaneMatchesScalar(w, 0, 4);
}

} // namespace
} // namespace bespoke
