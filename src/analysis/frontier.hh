/**
 * @file
 * Shared state of one activity-analysis exploration: the work frontier
 * (unexplored machine states), the conservative-widening tables, and
 * the global exploration budgets. Many PathExplorer workers drive one
 * Frontier concurrently; everything here is internally synchronized.
 *
 * Structure:
 *  - The frontier proper is a LIFO stack guarded by one mutex + condvar
 *    (paths are thousands of cycles long, so pop/push contention is
 *    negligible). LIFO order makes single-worker exploration
 *    deterministic, which the golden counter tests pin.
 *  - The merge tables (exact-seen hashes, concrete-visit counts, and
 *    the conservative widened state per (PC, decision-kind) key) are
 *    sharded by key: all three tables for one key live in one shard,
 *    so a mergePoint() call takes exactly one shard lock and the
 *    single-worker per-key discipline is preserved verbatim under
 *    concurrency.
 *  - Budgets (maxPaths, maxTotalCycles) are atomics. Paths are charged
 *    at pop time under the frontier lock; cycles are charged by
 *    workers as they simulate. The first worker to observe a blown
 *    budget stops the exploration for everyone.
 *
 * Widening discipline under concurrency: MachineState::merge is
 * commutative and associative, and a conservative entry only ever
 * widens (bits go to X, never back), so the table converges to the
 * same fixpoint regardless of worker interleaving. Races between
 * pruning and widening can change HOW MANY paths are explored — a
 * state may be pruned against an entry that another worker just
 * widened past what the one-worker schedule would have seen — but never
 * soundness: a pruned state is always a substate of a widened entry
 * whose exploration (by whichever worker widened it) observes a
 * superset of the pruned state's toggles.
 */

#ifndef BESPOKE_ANALYSIS_FRONTIER_HH
#define BESPOKE_ANALYSIS_FRONTIER_HH

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/activity_analysis.hh"

namespace bespoke
{

/** One unit of exploration work: a machine state to continue from. */
struct WorkItem
{
    MachineState state;
    /** Forks (decision or symbolic-PC) between the root and here. */
    uint32_t depth = 0;
};

class Frontier
{
  public:
    explicit Frontier(const AnalysisOptions &opts);

    /** @name Work distribution */
    /// @{
    void push(WorkItem item);

    /** Mark one popped item fully explored. */
    void finishItem();

    /**
     * Blocking batch pop: clears `out`, blocks while the stack is empty
     * but other workers may still push continuations, then drains up
     * to `max` items in one critical section, in exact LIFO order.
     * Returns false when the exploration is over: all work done, or a
     * budget was hit (capped() distinguishes the two). Draining in one
     * critical section means two batching workers never split a
     * frontier that fits in one batch at the quiescence edge (pinned,
     * with drain order, by tests/test_frontier_batch.cc). Every popped
     * item must be balanced by finishItem().
     */
    bool popBatch(size_t max, std::vector<WorkItem> &out);

    /**
     * Non-blocking bulk pop, used by lane-batching workers to refill
     * lanes freed mid-sweep (they hold live lanes, so they cannot
     * block): appends up to `max` items to `out`, stopping early when
     * the stack drains or a budget is reached (the next blocking
     * popBatch() then declares the cap). Every popped item must be
     * balanced by finishItem().
     */
    size_t popMore(size_t max, std::vector<WorkItem> &out);
    /// @}

    /** @name Budgets */
    /// @{
    /** Charge one simulated cycle against the global budget. */
    void chargeCycle()
    {
        cycles_.fetch_add(1, std::memory_order_relaxed);
    }
    /** Charge n simulated cycles (one lane sweep charges per lane). */
    void chargeCycles(uint64_t n)
    {
        cycles_.fetch_add(n, std::memory_order_relaxed);
    }
    uint64_t cycles() const
    {
        return cycles_.load(std::memory_order_relaxed);
    }
    /** True once a budget stopped the exploration early. */
    bool capped() const
    {
        return capped_.load(std::memory_order_relaxed);
    }
    /**
     * Record that the cycle budget stopped the exploration.
     * popBatch() declares the cap on its own when work is still
     * queued; a
     * lane-batching worker whose batch drained the stack must declare
     * it explicitly when it abandons in-flight lanes, or the frontier
     * would report a clean quiescent finish.
     */
    void declareCycleCap();
    /// @}

    /**
     * Consult/update the conservative table for one merge key
     * (atomically per key). Returns true if
     * the path is subsumed (prune). May replace `cur` with a widened
     * state (the caller must restore() it and re-evaluate).
     */
    bool mergePoint(uint32_t key, MachineState &cur, bool &widened);

    /** @name Exploration statistics */
    /// @{
    uint64_t pathsExplored() const { return paths_; }
    uint64_t merges() const
    {
        return merges_.load(std::memory_order_relaxed);
    }
    uint64_t frontierPeak() const { return peak_; }
    uint32_t maxForkDepth() const { return maxDepth_; }
    /// @}

  private:
    /** All widening state for one (PC, decision-kind) key. */
    struct KeyState
    {
        std::unordered_set<uint64_t> exactSeen;
        int visits = 0;
        bool hasConservative = false;
        MachineState conservative;
    };

    struct Shard
    {
        std::mutex m;
        std::unordered_map<uint32_t, KeyState> keys;
    };

    static constexpr uint32_t kShards = 64;

    const uint64_t maxPaths_;
    const uint64_t maxTotalCycles_;
    const int concreteVisits_;

    // Frontier stack + termination detection.
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<WorkItem> stack_;
    int active_ = 0;          ///< popped-but-unfinished items
    bool stopped_ = false;
    uint64_t paths_ = 0;      ///< pops so far (= paths explored)
    uint64_t peak_ = 0;       ///< stack high-water mark
    uint32_t maxDepth_ = 0;   ///< deepest item ever pushed

    std::atomic<uint64_t> cycles_{0};
    std::atomic<uint64_t> merges_{0};
    std::atomic<bool> capped_{false};

    std::vector<Shard> shards_{kShards};
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_FRONTIER_HH
