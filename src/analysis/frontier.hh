/**
 * @file
 * Bookkeeping of one exploration of the symbolic execution tree: the
 * work frontier (unexplored machine states), the conservative-widening
 * table, and the exploration budgets.
 *
 * Structure:
 *  - The frontier proper is a LIFO stack. LIFO order makes the
 *    exploration deterministic, which the golden counter tests pin.
 *  - The merge table holds, per (PC, decision-kind) key, the hashes of
 *    the exact states already explored there, the concrete-visit count
 *    and the conservative widened state.
 *  - Budgets (maxPaths, maxTotalCycles) are plain counters. Paths are
 *    charged at pop time; cycles are charged by the explorer as it
 *    simulates. A pop that finds work queued but a budget spent stops
 *    the exploration and marks it capped.
 *
 * The frontier is generic in the state it holds: MachineState for the
 * activity analysis (one core), PairState for the symbolic equivalence
 * check (two cores in lockstep). A State provides substateOf(), the
 * static merge() and hash().
 */

#ifndef BESPOKE_ANALYSIS_FRONTIER_HH
#define BESPOKE_ANALYSIS_FRONTIER_HH

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/activity_analysis.hh"

namespace bespoke
{

/** One unit of exploration work: a machine state to continue from. */
template <class State>
struct WorkItem
{
    State state;
    /** Forks (decision or symbolic-PC) between the root and here. */
    uint32_t depth = 0;
};

template <class State>
class Frontier
{
  public:
    explicit Frontier(const AnalysisOptions &opts);

    /** @name Work stack */
    /// @{
    void push(WorkItem<State> item);

    /**
     * Appends up to `max` items to `out` in LIFO order and returns how
     * many it took, charging one path each. It stops early when the
     * stack drains or the exploration is capped; a pop that finds work
     * queued but a budget spent declares the cap itself.
     */
    size_t pop(size_t max, std::vector<WorkItem<State>> &out);
    /// @}

    /** @name Budgets */
    /// @{
    /** Charge n simulated cycles (one lane sweep charges per lane). */
    void chargeCycles(uint64_t n) { cycles_ += n; }
    bool cycleBudgetSpent() const { return cycles_ >= maxTotalCycles_; }
    /** True once a budget stopped the exploration early. */
    bool capped() const { return capped_; }
    /**
     * Stop the exploration: the explorer abandoned work in flight
     * because the cycle budget ran out, so even an empty stack is no
     * clean finish.
     */
    void declareCap() { capped_ = true; }
    /**
     * End the exploration early but not capped: the explorer's
     * observer rejected what it saw (an equivalence mismatch), so no
     * further pop hands out work.
     */
    void stop() { stopped_ = true; }
    bool stopped() const { return stopped_; }
    /// @}

    /**
     * Consult/update the conservative table for one merge key. Returns
     * true if the path is subsumed (prune). May replace `cur` with a
     * widened state (the caller must restore() it and re-evaluate).
     */
    bool mergePoint(uint32_t key, State &cur, bool &widened);

    /** @name Exploration statistics */
    /// @{
    uint64_t pathsExplored() const { return paths_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t merges() const { return merges_; }
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
        State conservative;
    };

    const uint64_t maxPaths_;
    const uint64_t maxTotalCycles_;
    const int concreteVisits_;

    std::vector<WorkItem<State>> stack_;
    std::unordered_map<uint32_t, KeyState> keys_;
    bool capped_ = false;
    bool stopped_ = false;
    uint64_t paths_ = 0;      ///< pops so far (= paths explored)
    uint64_t cycles_ = 0;     ///< simulated cycles charged so far
    uint64_t merges_ = 0;     ///< widenings of a conservative entry
    uint64_t peak_ = 0;       ///< stack high-water mark
    uint32_t maxDepth_ = 0;   ///< deepest item ever pushed
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_FRONTIER_HH
