/**
 * @file
 * Levelized three-valued gate-level simulator.
 *
 * Evaluation model: one implicit global clock. Each cycle,
 *   1. the environment drives primary inputs (setInput),
 *   2. evalComb() evaluates combinational gates,
 *   3. the environment samples outputs (memory models, trackers),
 *   4. latchSequential() updates every DFF/DFFE from its D/EN values.
 *
 * Values are Kleene 0/1/X. The simulator supports *forcing* a net to a
 * concrete value for one evaluation, which the activity analysis uses to
 * fork the execution tree when a control decision is X (paper Sec. 3.1).
 *
 * Two evaluation strategies produce bit-identical values:
 *
 *  - EventDriven (default): per-net fanout lists plus a dirty set held
 *    in per-topological-level buckets. Value changes at sources (primary
 *    inputs, flop outputs at latch time, state restores) and force() /
 *    clearForces() calls seed the dirty set; evalComb() re-evaluates
 *    only gates whose fanins changed, sweeping buckets in ascending
 *    level order so every gate is visited at most once per eval.
 *  - FullEval: the original re-evaluate-everything-in-topological-order
 *    loop. Kept as the reference evaluator the tests cross-check
 *    against; select it with the constructor flag (or
 *    AnalysisOptions::simMode for the activity analysis).
 *
 * Toggle semantics follow the paper: a gate "toggles" if its stable
 * per-cycle output ever differs from its reset-time value or ever
 * becomes X (an X output means some input assignment toggles it).
 */

#ifndef BESPOKE_SIM_GATE_SIM_HH
#define BESPOKE_SIM_GATE_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/logic/logic.hh"
#include "src/netlist/netlist.hh"
#include "src/sim/plane.hh"
#include "src/sim/sim_context.hh"

namespace bespoke
{

template <int W>
class LaneSimT;
using LaneSim = LaneSimT<64>;

/** Snapshot of all sequential state (one byte-coded Logic per flop). */
using SeqState = std::vector<uint8_t>;

class GateSim
{
  public:
    enum class EvalMode : uint8_t
    {
        EventDriven,  ///< re-evaluate only gates with changed fanins
        FullEval,     ///< re-evaluate every gate each evalComb()
    };

    /**
     * @param prep shared evaluation-order/fanout prep for this netlist;
     *        built on the spot when null. Pass one SimPrep to many
     *        simulators (e.g. one per analysis worker) to amortize it.
     */
    explicit GateSim(const Netlist &netlist,
                     EvalMode mode = EvalMode::EventDriven,
                     std::shared_ptr<const SimPrep> prep = nullptr);

    const Netlist &netlist() const { return nl_; }
    EvalMode mode() const { return mode_; }
    const std::shared_ptr<const SimPrep> &prep() const { return prep_; }

    /** Reset all flops to their reset values and all inputs to X. */
    void reset();

    /** @name Value access */
    /// @{
    void setInput(GateId id, Logic v);
    /** Drive a 16-wide input bus from a symbolic word. */
    void setInputWord(const std::vector<GateId> &bus_ids, SWord w);
    Logic value(GateId id) const
    {
        return static_cast<Logic>(val_[id]);
    }
    /** Collect a bus into a symbolic word (LSB-first ids). */
    SWord busWord(const std::vector<GateId> &bus_ids) const;
    /// @}

    /** @name Cycle phases */
    /// @{
    void evalComb();
    void latchSequential();
    /// @}

    /** @name Forcing (execution-tree forks) */
    /// @{
    /** Override a net's value; takes effect on the next evalComb(). */
    void force(GateId id, Logic v);
    void clearForces();
    /// @}

    /** @name Sequential state snapshot / restore */
    /// @{
    SeqState seqState() const;
    void restoreSeqState(const SeqState &s);
    /** Ids of flops, in SeqState order. */
    const std::vector<GateId> &seqIds() const { return prep_->seqIds; }
    /// @}

    /** Raw value array (one Logic per gate), for trackers. */
    const std::vector<uint8_t> &values() const { return val_; }

    /** Gates evaluated by the last evalComb() (perf introspection). */
    uint64_t gatesEvaluated() const { return gatesEvaluated_; }

    /** Lifetime gate-evaluation count across every evalComb(). */
    uint64_t gatesEvaluatedTotal() const { return gatesEvaluatedTotal_; }

  private:
    void evalCombFull();
    void evalCombEvent();
    /** Queue a combinational gate for re-evaluation (dedup'd). */
    void markDirty(GateId id);
    /** Queue all combinational consumers of a changed net. */
    void markFanoutsDirty(GateId id);

    const Netlist &nl_;
    EvalMode mode_;
    /** Shared read-only evaluation order / levels / fanout CSR. */
    std::shared_ptr<const SimPrep> prep_;
    std::vector<uint8_t> val_;     ///< Logic per gate output
    std::vector<uint8_t> forced_;  ///< 0 = none, else Logic value + 1
    std::vector<GateId> forcedIds_;  ///< gates with forced_ set
    bool anyForce_ = false;

    // Event-driven mutable state (unused in FullEval mode).
    std::vector<std::vector<GateId>> buckets_;  ///< dirty set per level
    std::vector<uint8_t> queued_;   ///< dirty-set membership flag
    bool fullPassPending_ = true;   ///< first eval after reset is full
    uint64_t gatesEvaluated_ = 0;
    uint64_t gatesEvaluatedTotal_ = 0;
};

/**
 * Tracks which gates have toggled relative to their reset-time values,
 * across an arbitrary set of simulated execution paths (observations
 * accumulate; they are never reset by state restores). Result feeds the
 * cutting & stitching transform.
 */
class ActivityTracker
{
  public:
    explicit ActivityTracker(const Netlist &netlist);

    /** Record reset-time values; called once after reset + first eval. */
    void captureInitial(const GateSim &sim);

    /** Accumulate toggles from the sim's current values. */
    void observe(const GateSim &sim);

    /**
     * Lane-vectorized observation: accumulate toggles from every lane
     * in `lanes` at once (defined in lane_sim.cc; instantiated for
     * every supported plane width).
     */
    template <int W>
    void observe(const LaneSimT<W> &sim, LaneMask<W> lanes);

    bool initialCaptured() const { return initialCaptured_; }
    bool toggled(GateId id) const { return toggled_[id] != 0; }
    /** Reset-time value (the proven constant for untoggled gates). */
    Logic initialValue(GateId id) const
    {
        return static_cast<Logic>(initial_[id]);
    }
    /** Number of real cells that never toggled. */
    size_t untoggledCellCount() const;
    /** Merge another tracker's observations (multi-app designs). */
    void mergeFrom(const ActivityTracker &other);

    /**
     * Rebuild a finished tracker from checkpointed state: one byte-coded
     * Logic per gate for the reset-time values and one 0/1 flag per gate
     * for the toggle set. Sizes must match the netlist.
     */
    void restore(std::vector<uint8_t> initial,
                 std::vector<uint8_t> toggled);

    const Netlist &netlist() const { return *nl_; }

  private:
    const Netlist *nl_;
    std::vector<uint8_t> initial_;
    std::vector<uint8_t> toggled_;
    bool initialCaptured_ = false;
    /**
     * Gates not yet marked toggled, maintained only by the lane
     * observe path (the scalar observe's flat byte loop vectorizes and
     * needs no skip list; the plane diff per gate does not). Lazily
     * rebuilt; may hold stale ids whose toggle bit was set through the
     * scalar path or mergeFrom — those are dropped on sight, so the
     * list is an invariant superset of the untoggled set.
     */
    std::vector<uint32_t> lanePending_;
    bool lanePendingValid_ = false;
};

/**
 * Counts per-gate output transitions during concrete simulation; the
 * dynamic-power model consumes these (toggles x net capacitance).
 */
class ToggleCounter
{
  public:
    explicit ToggleCounter(const Netlist &netlist);

    /** Call once per cycle after evalComb+latch; diffs against last. */
    void observe(const GateSim &sim);

    /**
     * Everything one simulated run contributes to a shared counter,
     * decomposed so lane-batched runners can replay it exactly: the
     * full value vectors at the run's first and last observe, and how
     * many times it was observed. Per-gate within-run transition
     * counts are order-independent sums and travel separately
     * (addCounts).
     */
    struct RunTrace
    {
        std::vector<uint8_t> first;  ///< values at the first observe
        std::vector<uint8_t> last;   ///< values at the last observe
        uint64_t cycles = 0;         ///< observes in this run
    };

    /**
     * Ingest one completed run's boundary contribution, exactly as if
     * the run's observes had been issued here in sequence: when a
     * previous run (or scalar observe) already primed the counter,
     * the transition between its final values and this run's first
     * values is counted — the same cross-run boundary transitions a
     * shared counter sees when runs are replayed back to back. Runs
     * must be ingested in their original sequential order; a run with
     * zero observes contributes nothing. Within-run transition counts
     * are NOT added here — pair with addCounts().
     */
    void ingestRun(const RunTrace &tr);

    /** Add pre-summed per-gate transition counts (order-free). */
    void addCounts(const std::vector<uint64_t> &add);

    uint64_t count(GateId id) const { return counts_[id]; }
    uint64_t cycles() const { return cycles_; }

    /**
     * The gate's value at the most recent observe. For a gate with
     * count() == 0 this is the ONE value it held across every observed
     * cycle (within-run transitions and cross-run boundary transitions
     * both bump count(), so zero means literally constant) — which is
     * what the SAT never-toggle pass keys its candidate polarity on,
     * replacing a whole duty-measuring replay. Meaningless before the
     * first observe (all gates read as Zero).
     */
    Logic lastValue(GateId id) const
    {
        return static_cast<Logic>(last_[id]);
    }

  private:
    std::vector<uint8_t> last_;
    std::vector<uint64_t> counts_;
    uint64_t cycles_ = 0;
    bool first_ = true;
};

} // namespace bespoke

#endif // BESPOKE_SIM_GATE_SIM_HH
