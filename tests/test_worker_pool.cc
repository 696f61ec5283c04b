/**
 * @file
 * Tests for the general-purpose worker pool: task execution and drain
 * semantics (including tasks that post further tasks).
 */

#include <atomic>

#include <gtest/gtest.h>

#include "src/util/worker_pool.hh"

namespace bespoke
{
namespace
{

TEST(WorkerPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(WorkerPool::defaultThreadCount(), 1);
    WorkerPool pool(0);
    EXPECT_EQ(pool.size(), WorkerPool::defaultThreadCount());
}

TEST(WorkerPool, PostedTasksAllRun)
{
    WorkerPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; i++)
        pool.post([&] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 200);
}

TEST(WorkerPool, DrainWaitsForTasksPostedByTasks)
{
    WorkerPool pool(3);
    std::atomic<int> count{0};
    // A two-level wave: drain() must wait for the children too.
    for (int i = 0; i < 8; i++) {
        pool.post([&] {
            count.fetch_add(1);
            for (int j = 0; j < 4; j++)
                pool.post([&] { count.fetch_add(1); });
        });
    }
    pool.drain();
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(WorkerPool, ReusableAfterDrain)
{
    WorkerPool pool(2);
    std::atomic<int> count{0};
    pool.post([&] { count.fetch_add(1); });
    pool.drain();
    pool.post([&] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 2);
}

} // namespace
} // namespace bespoke
