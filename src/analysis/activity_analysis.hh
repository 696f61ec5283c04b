/**
 * @file
 * Input-independent gate activity analysis (paper Section 3.1,
 * Algorithm 1).
 *
 * The analysis symbolically executes the application binary on the
 * gate-level netlist with every input (GPIO pins, IRQ line, initial RAM
 * contents) set to X. It reports, for every gate, whether any input
 * assignment could ever toggle it; untoggled gates (with their proven
 * constant values) feed cutting & stitching (src/transform).
 *
 * Control decisions that depend on X (conditional-branch condition,
 * interrupt accept) fork the execution tree: the decision net is forced
 * to 0 and to 1 and both futures are explored. Termination for
 * unbounded control structures follows the paper's conservative-state
 * scheme: a table keyed by (instruction PC, decision kind) records the
 * most conservative machine state observed; a revisited state that is a
 * substate is pruned, otherwise the table entry is widened (differing
 * state bits -> X) and exploration continues from the widened state.
 *
 * One refinement over the bare algorithm: widening only begins after a
 * key has been visited `concreteVisits` times (exact-state revisits are
 * always pruned). This lets bounded concrete loops (e.g. a 16-iteration
 * shift-subtract divide) run to completion concretely, which the paper's
 * multi-hour per-benchmark analyses achieve by brute force, while still
 * guaranteeing termination on input-dependent or unbounded loops.
 */

#ifndef BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH
#define BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH

#include <memory>

#include "src/sim/soc.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

/** Full machine state: netlist flops + behavioral environment. */
struct MachineState
{
    SeqState seq;
    EnvState env;
    uint16_t lastFetchPc = 0;

    bool substateOf(const MachineState &c) const;
    static MachineState merge(const MachineState &a,
                              const MachineState &b);
    uint64_t hash() const;
};

/**
 * Joint state of two cores run in lockstep (the symbolic equivalence
 * check): the product of their MachineStates, which share one
 * lastFetchPc. A pair is a substate only if both halves are.
 */
struct PairState
{
    MachineState a;  ///< the original core
    MachineState b;  ///< the bespoke core

    bool substateOf(const PairState &c) const;
    static PairState merge(const PairState &x, const PairState &y);
    uint64_t hash() const;
};

struct AnalysisOptions
{
    /** Visits of one merge key before widening begins. */
    int concreteVisits = 64;
    /** Hard cap on total simulated cycles across all paths. */
    uint64_t maxTotalCycles = 40'000'000;
    /** Hard cap on explored paths. */
    uint64_t maxPaths = 200'000;
    /** Gate evaluator strategy for the exploration Soc. */
    GateSim::EvalMode simMode = GateSim::EvalMode::EventDriven;
    /**
     * Selects how the one 64-wide batch schedule advances its lanes:
     * 1 runs the reference evaluator (64 scalar Socs in lane order, on
     * `simMode`), any other value the bit-plane LaneSoc, which
     * evaluates all 64 lanes per gate visit and is several times
     * faster. Results and counters are identical either way (pinned by
     * tests), so this is an execution knob only.
     */
    int laneWidth = 64;
};

/**
 * Always 1: the analysis runs on the calling thread. Kept only for
 * callers that still report an analysis thread count.
 */
int resolveAnalysisThreads(const AnalysisOptions &opts);

/**
 * The lane evaluator analyzeActivity() will actually use for `opts`:
 * 1 (reference scalar lanes) if laneWidth is 1, else 64 (bit planes).
 */
int resolveAnalysisLanes(const AnalysisOptions &opts);

struct AnalysisResult
{
    /** May-toggle flags for every gate; untoggled gates are provably
     *  constant for all inputs. */
    std::unique_ptr<ActivityTracker> activity;
    uint64_t pathsExplored = 0;
    uint64_t cyclesSimulated = 0;
    uint64_t merges = 0;
    uint64_t forks = 0;
    bool completed = false;  ///< false if a cap was hit
    double seconds = 0.0;

    /** @name Exploration observability */
    /// @{
    /** Resolved lane evaluator (1 = reference scalar, 64 = planes). */
    int lanesUsed = 1;
    /**
     * Gate evaluations: scalar evaluations plus lane-sim gate visits
     * (one visit evaluates every lane at once).
     */
    uint64_t gatesEvaluated = 0;
    /** Full 64-lane evaluation sweeps performed. */
    uint64_t laneSweeps = 0;
    /** Lane-cycles simulated on the lane engine (sum of popcounts of
     *  the active-lane mask over all sweeps). */
    uint64_t laneCycles = 0;
    /** High-water mark of the pending-work frontier. */
    uint64_t frontierPeak = 0;
    /** Deepest fork nesting reached by any explored path. */
    uint32_t maxForkDepth = 0;
    /// @}

    /** Untoggled real-cell count. */
    size_t untoggledCells() const
    {
        return activity->untoggledCellCount();
    }
};

/**
 * Run the analysis for one application on a netlist (the original
 * core, or a bespoke one during verification).
 */
AnalysisResult analyzeActivity(const Netlist &netlist,
                               const AsmProgram &prog,
                               const AnalysisOptions &opts = {});

/** Convenience overload assembling a workload. */
AnalysisResult analyzeActivity(const Netlist &netlist, const Workload &w,
                               const AnalysisOptions &opts = {});

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_ACTIVITY_ANALYSIS_HH
