/**
 * @file
 * The activity-analysis exploration engine.
 *
 * A PathExplorer owns everything one analysis needs: the resolved
 * per-netlist simulation context, the program, the options, the
 * sorted halt-address table, the Frontier (work stack, merge table
 * and budgets), a scalar Soc for the path machinery and the
 * ActivityTracker that collects the toggle set.
 *
 * run() is one deterministic batch schedule: pop up to kBatchLanes
 * frontier states, advance them together cycle by cycle, and hand a
 * state to the scalar path machinery (runPath) whenever it reaches a
 * fork, a merge point or a symbolic PC; freed lanes refill from the
 * frontier. How a batch's lanes advance one cycle is the only thing
 * the lane width selects — 64-bit planes on one LaneSoc, or the
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

class PathExplorer
{
  public:
    PathExplorer(const Netlist &netlist, const AsmProgram &prog,
                 const AnalysisOptions &opts);

    /** Frontier states advanced together per cycle. */
    static constexpr int kBatchLanes = 64;

    /**
     * Drive the Soc to the analysis entry state (all inputs X, IRQ
     * line per options, reset), capture the reset-time values, and
     * explore paths from there until the frontier is exhausted or a
     * budget is spent.
     */
    void run();

    ActivityTracker &tracker() { return tracker_; }
    const Frontier &frontier() const { return frontier_; }

    /** @name Statistics not kept by the Frontier */
    /// @{
    /** Resolved lane width: 1 = reference evaluator, 64 = planes. */
    int lanes() const { return lanes_; }
    uint64_t forks() const { return forks_; }
    /** Scalar gate evaluations plus lane-sim gate visits. */
    uint64_t gatesEvaluated() const;
    uint64_t laneSweeps() const { return laneSweeps_; }
    uint64_t laneCycles() const { return laneCycles_; }
    /// @}

  private:
    MachineState capture() const;
    void restore(const MachineState &s);
    bool isHaltPc(uint16_t pc) const;

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
     * The batch loop on one lane evaluator type (PlaneLanes or
     * ScalarLanes in path_explorer.cc), built lazily and reused
     * across batches.
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

    const std::shared_ptr<const SocContext> socCtx_;
    const AsmProgram &prog_;
    const AnalysisOptions opts_;
    const int lanes_;
    /** Sorted `jmp .` addresses; membership via binary search. */
    std::vector<uint16_t> haltAddrs_;
    Frontier frontier_;
    Soc soc_;
    ActivityTracker tracker_;
    /** Gate evaluations of the (already destroyed) batch lanes. */
    uint64_t laneGateVisits_ = 0;
    uint16_t lastFetchPc_ = 0;
    uint32_t curDepth_ = 0;  ///< fork depth of the current path
    uint64_t forks_ = 0;
    uint64_t laneSweeps_ = 0;
    uint64_t laneCycles_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_PATH_EXPLORER_HH
