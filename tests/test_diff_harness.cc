/**
 * @file
 * Differential-testing suite over the diff_harness.hh lockstep
 * fixture: 200 randomized netlist cases, each driving a 64-lane
 * LaneSim against per-lane scalar GateSim oracles with
 * full-machine-state comparison every cycle (see the header for the
 * stimulus mix).
 */

#include <gtest/gtest.h>

#include "tests/diff_harness.hh"

namespace bespoke
{
namespace
{

using difftest::runLockstepCase;

class DiffHarness : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DiffHarness, RandomNetlistLockstep)
{
    ASSERT_NO_FATAL_FAILURE(runLockstepCase(GetParam(), 24));
}

// 200 randomized cases (the diff-harness floor pinned by the CI
// shards; each registers as its own ctest entry).
INSTANTIATE_TEST_SUITE_P(Seeds, DiffHarness, ::testing::Range(0u, 200u));

} // namespace
} // namespace bespoke
