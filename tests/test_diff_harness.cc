/**
 * @file
 * Differential-testing suite over the diff_harness.hh lockstep
 * fixture: 200 randomized netlist cases, each driving a LaneSimT
 * against per-lane scalar GateSim oracles with full-machine-state
 * comparison every cycle (see the header for the stimulus mix).
 *
 * Every case runs at the 64-lane plane; every eighth case additionally
 * runs at a wide plane, rotating through 128, 256 and 512 bits, so one
 * default run covers every width. Smoke tests pin each wide width on a
 * fixed seed as well.
 */

#include <gtest/gtest.h>

#include "tests/diff_harness.hh"

namespace bespoke
{
namespace
{

using difftest::runLockstepCase;
using difftest::runLockstepCaseAt;

class DiffHarness : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DiffHarness, RandomNetlistLockstep)
{
    const uint32_t seed = GetParam();
    ASSERT_NO_FATAL_FAILURE(runLockstepCase<64>(seed, 24));

    // Every eighth case additionally runs at a wide plane, rotating
    // through 128/256/512 bits, scaled down: the oracle cost is one
    // scalar sim per lane, so wide planes buy coverage with fewer
    // cycles.
    if (seed % 8 == 0) {
        constexpr int kWideBits[] = {128, 256, 512};
        ASSERT_NO_FATAL_FAILURE(runLockstepCaseAt(
            kWideBits[(seed / 8) % 3], seed ^ 0x9e3779b9u, 8));
    }
}

// 200 randomized cases (the diff-harness floor pinned by the CI
// shards; each registers as its own ctest entry).
INSTANTIATE_TEST_SUITE_P(Seeds, DiffHarness, ::testing::Range(0u, 200u));

// Every instantiated width stays lockstep-covered on a fixed seed.
TEST(DiffHarnessWide, Plane128Lockstep)
{
    ASSERT_NO_FATAL_FAILURE(runLockstepCase<128>(1001, 12));
}

TEST(DiffHarnessWide, Plane256Lockstep)
{
    ASSERT_NO_FATAL_FAILURE(runLockstepCase<256>(1002, 8));
}

TEST(DiffHarnessWide, Plane512Lockstep)
{
    ASSERT_NO_FATAL_FAILURE(runLockstepCase<512>(1003, 6));
}

} // namespace
} // namespace bespoke
