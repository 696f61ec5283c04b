/**
 * @file
 * Tests for Frontier::pop, the one way the analysis takes work off the
 * frontier: a whole batch at the start of a lane sweep, or the few
 * states that refill lanes freed mid-sweep. These tests pin:
 *
 *  - exact LIFO drain order;
 *  - a pop respects its maximum and leaves the remainder queued;
 *  - pop never blocks, appends to its output and never over-pops;
 *  - a spent path budget stops the pop and marks the result capped.
 */

#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/frontier.hh"

namespace bespoke
{
namespace
{

/** A work item tagged through lastFetchPc so drain order is visible. */
WorkItem<MachineState>
tagged(uint16_t tag, uint32_t depth = 0)
{
    WorkItem<MachineState> it;
    it.state.lastFetchPc = tag;
    it.depth = depth;
    return it;
}

std::vector<uint16_t>
tagsOf(const std::vector<WorkItem<MachineState>> &items)
{
    std::vector<uint16_t> tags;
    for (const WorkItem<MachineState> &it : items)
        tags.push_back(it.state.lastFetchPc);
    return tags;
}

TEST(FrontierBatch, SingleThreadDrainsLifo)
{
    Frontier<MachineState> f{AnalysisOptions{}};
    for (uint16_t t = 1; t <= 3; t++)
        f.push(tagged(t));

    std::vector<WorkItem<MachineState>> batch;
    ASSERT_EQ(f.pop(64, batch), 3u);
    EXPECT_EQ(tagsOf(batch), (std::vector<uint16_t>{3, 2, 1}));

    batch.clear();
    EXPECT_EQ(f.pop(64, batch), 0u);
    EXPECT_TRUE(batch.empty());
    EXPECT_FALSE(f.capped());
    EXPECT_EQ(f.pathsExplored(), 3u);
    EXPECT_EQ(f.frontierPeak(), 3u);
}

TEST(FrontierBatch, BatchRespectsMaxAndLeavesRemainder)
{
    Frontier<MachineState> f{AnalysisOptions{}};
    for (uint16_t t = 1; t <= 5; t++)
        f.push(tagged(t, t));

    std::vector<WorkItem<MachineState>> batch;
    ASSERT_EQ(f.pop(2, batch), 2u);
    EXPECT_EQ(tagsOf(batch), (std::vector<uint16_t>{5, 4}));

    // The remainder is still there, still LIFO.
    std::vector<WorkItem<MachineState>> rest;
    ASSERT_EQ(f.pop(64, rest), 3u);
    EXPECT_EQ(tagsOf(rest), (std::vector<uint16_t>{3, 2, 1}));
    EXPECT_EQ(f.pop(64, rest), 0u);
    EXPECT_FALSE(f.capped());
    EXPECT_EQ(f.maxForkDepth(), 5u);
}

TEST(FrontierBatch, PopMoreIsNonBlockingAndBounded)
{
    Frontier<MachineState> f{AnalysisOptions{}};

    // Empty stack: returns 0 immediately.
    std::vector<WorkItem<MachineState>> out;
    EXPECT_EQ(f.pop(64, out), 0u);
    EXPECT_TRUE(out.empty());

    for (uint16_t t = 1; t <= 3; t++)
        f.push(tagged(t));

    // Appends (does not clear), respects max, drains LIFO.
    out.push_back(tagged(99));
    EXPECT_EQ(f.pop(2, out), 2u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(tagsOf(out), (std::vector<uint16_t>{99, 3, 2}));
    EXPECT_EQ(f.pop(0, out), 0u);
    EXPECT_EQ(f.pop(64, out), 1u);
    EXPECT_EQ(out.back().state.lastFetchPc, 1);
    EXPECT_EQ(f.pop(64, out), 0u);
    EXPECT_FALSE(f.capped());
}

TEST(FrontierBatch, PathBudgetCapsBatch)
{
    AnalysisOptions opts;
    opts.maxPaths = 2;
    Frontier<MachineState> f{opts};
    for (uint16_t t = 1; t <= 3; t++)
        f.push(tagged(t));

    // The third state is still queued but the budget is spent: the pop
    // hands out what the budget allows and declares the cap.
    std::vector<WorkItem<MachineState>> batch;
    ASSERT_EQ(f.pop(64, batch), 2u);
    EXPECT_EQ(tagsOf(batch), (std::vector<uint16_t>{3, 2}));
    EXPECT_TRUE(f.capped());
    EXPECT_EQ(f.pop(64, batch), 0u);
    EXPECT_EQ(f.pathsExplored(), 2u);
}

TEST(FrontierBatch, CycleBudgetCapsOnlyQueuedWork)
{
    AnalysisOptions opts;
    opts.maxTotalCycles = 10;
    Frontier<MachineState> f{opts};
    f.chargeCycles(10);
    EXPECT_TRUE(f.cycleBudgetSpent());

    // Nothing queued: a spent budget is still a clean finish.
    std::vector<WorkItem<MachineState>> batch;
    EXPECT_EQ(f.pop(64, batch), 0u);
    EXPECT_FALSE(f.capped());

    // Queued work that the budget no longer covers caps the result.
    f.push(tagged(1));
    EXPECT_EQ(f.pop(64, batch), 0u);
    EXPECT_TRUE(f.capped());
}

} // namespace
} // namespace bespoke
