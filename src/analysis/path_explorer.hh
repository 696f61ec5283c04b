/**
 * @file
 * One worker of the activity-analysis exploration engine.
 *
 * A PathExplorer owns everything one worker needs to simulate paths
 * of the execution tree without synchronizing with anyone: its own
 * Soc (stamped out cheaply from the shared per-netlist SocContext),
 * its own ActivityTracker (merged into the final result via
 * ActivityTracker::mergeFrom, which is commutative), and its own
 * path/cycle/fork counters. Everything shared — the work frontier,
 * the conservative-widening tables, the global budgets — lives behind
 * the Frontier, which is the only object workers touch concurrently.
 *
 * run() is the worker loop, one deterministic batch schedule: pop up
 * to kBatchLanes frontier states, advance them together cycle by cycle,
 * and hand a state to the scalar path machinery (runPath) whenever it
 * reaches a fork, a merge point or a symbolic PC; freed lanes refill
 * from the frontier. How a batch's lanes advance one cycle is the only
 * thing the lane width selects — 64-bit planes on one LaneSoc, or the
 * reference evaluator's 64 scalar Socs in lane order — so results and
 * counters depend on the program and the analysis options alone.
 */

#ifndef BESPOKE_ANALYSIS_PATH_EXPLORER_HH
#define BESPOKE_ANALYSIS_PATH_EXPLORER_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/frontier.hh"
#include "src/sim/sim_context.hh"

namespace bespoke
{

/**
 * Read-only state shared by all workers of one analysis: the resolved
 * per-netlist simulation context, the program, the (thread-resolved)
 * options, and the sorted halt-address table.
 */
struct ExplorationContext
{
    ExplorationContext(const Netlist &netlist, const AsmProgram &prog,
                       const AnalysisOptions &opts);

    std::shared_ptr<const SocContext> soc;
    const AsmProgram &prog;
    AnalysisOptions opts;
    /** Resolved lane width: 1 = reference evaluator, 64 = planes. */
    int lanes;
    /** Sorted `jmp .` addresses; membership via binary search. */
    std::vector<uint16_t> haltAddrs;

    bool isHaltPc(uint16_t pc) const;
};

class PathExplorer
{
  public:
    PathExplorer(const ExplorationContext &ctx, Frontier &frontier,
                 int worker_id);

    /**
     * Drive the Soc to the analysis entry state (all inputs X, IRQ
     * line per options, reset) and capture the reset-time values in
     * this worker's tracker. Deterministic: every worker captures the
     * identical initial state.
     */
    void prepare();

    /** The root work item (reset state, PC 0); push exactly one. */
    WorkItem initialItem();

    /** Frontier states one worker advances together per cycle. */
    static constexpr int kBatchLanes = 64;

    /** Worker loop: explore paths until the frontier is exhausted. */
    void run();

    ActivityTracker &tracker() { return tracker_; }

    /** @name Per-worker statistics */
    /// @{
    int workerId() const { return workerId_; }
    uint64_t pathsExplored() const { return paths_; }
    uint64_t cyclesSimulated() const { return cycles_; }
    uint64_t forks() const { return forks_; }
    /** Scalar gate evaluations plus lane-sim gate visits. */
    uint64_t gatesEvaluated() const;
    uint64_t laneSweeps() const { return laneSweeps_; }
    uint64_t laneCycles() const { return laneCycles_; }
    /// @}

  private:
    MachineState capture() const;
    void restore(const MachineState &s);

    /** First decision net that is X after evaluation, if any. */
    struct XDec
    {
        GateId net;
        uint8_t kind;  ///< DecKind, part of the merge-table key
    };
    std::optional<XDec> firstXDecision() const;
    bool resolveDecisions(bool &forked);
    void forkRec(const MachineState &pre,
                 const std::vector<std::pair<GateId, Logic>> &forces);
    void enumerateSymbolicPc(SWord pc, const MachineState &base,
                             uint32_t depth);
    void runPath(const MachineState &start);

    /** @name Batch schedule */
    /// @{
    /**
     * run() on one lane evaluator type (PlaneLanes or ScalarLanes in
     * path_explorer.cc), built lazily and reused across batches.
     */
    template <class Lanes>
    void runBatches();
    /** Advance one batch of frontier states until every lane retires. */
    template <class Lanes>
    void laneSweep(Lanes &lanes, std::vector<WorkItem> batch);
    /**
     * Continue a path that was widened at a ctl-xfer merge point:
     * replays runPath's post-widening tail (re-evaluate, resolve any
     * surfaced decisions, finish the cycle) and pushes the post-latch
     * state back to the frontier instead of looping inline.
     */
    void continueWidened(const MachineState &cur, uint32_t depth);
    /// @}

    /** Simulated one cycle to completion: charge both budgets. */
    void chargeCycle()
    {
        cycles_++;
        frontier_.chargeCycle();
    }

    const ExplorationContext &ctx_;
    Frontier &frontier_;
    const int workerId_;
    Soc soc_;
    ActivityTracker tracker_;
    /** Gate evaluations of this worker's (already destroyed) lanes. */
    uint64_t laneGateVisits_ = 0;
    uint16_t lastFetchPc_ = 0;
    uint32_t curDepth_ = 0;  ///< fork depth of the current path
    uint64_t paths_ = 0;
    uint64_t cycles_ = 0;
    uint64_t forks_ = 0;
    uint64_t laneSweeps_ = 0;
    uint64_t laneCycles_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_PATH_EXPLORER_HH
