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
 * Two evaluation strategies produce bit-identical values, both
 * running the position-ordered eval program compiled by SimPrep:
 *
 *  - EventDriven (default): a dirty set held as one bit per eval-order
 *    position. Value changes at sources (primary inputs, flop outputs
 *    at latch time, state restores) and force() / clearForces() calls
 *    set the bits of the affected consumers; evalComb() drains the set
 *    by an ascending word scan, re-evaluating only gates whose fanins
 *    changed. A consumer always sits at a higher position than its
 *    fanins, so every gate is visited at most once per eval, after its
 *    inputs settled.
 *  - FullEval: the original re-evaluate-everything-in-topological-order
 *    loop. Kept as the reference evaluator the tests cross-check
 *    against; select it with the constructor flag (or
 *    AnalysisOptions::simMode for the activity analysis).
 *
 * The event-driven simulator also keeps a *change log*: every net
 * whose value changed since the last observe point. Per-cycle
 * observers (ToggleCounter, ValueMirror) visit the few logged nets
 * instead of diffing all n values; whenever the log cannot vouch for
 * an interval (first observe, a reset or full pass, a different
 * simulator, FullEval mode) they fall back to the full diff.
 *
 * Toggle semantics follow the paper: a gate "toggles" if its stable
 * per-cycle output ever differs from its reset-time value or ever
 * becomes X (an X output means some input assignment toggles it).
 */

#ifndef BESPOKE_SIM_GATE_SIM_HH
#define BESPOKE_SIM_GATE_SIM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/logic/logic.hh"
#include "src/netlist/netlist.hh"
#include "src/sim/sim_context.hh"

namespace bespoke
{

class LaneSim;

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
     *        simulators (e.g. the analysis's lane Socs) to amortize it.
     */
    explicit GateSim(const Netlist &netlist,
                     EvalMode mode = EvalMode::EventDriven,
                     std::shared_ptr<const SimPrep> prep = nullptr);
    /** Not copyable: a copy would share the change log's id while its
     *  values diverge. A move carries the log along. */
    GateSim(const GateSim &) = delete;
    GateSim(GateSim &&) = default;

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

    /** @name Change log (EventDriven mode)
     *
     * An observer calls markObserved() each time it has taken in the
     * current values, and at its next observe asks changedSince() for
     * the nets that may have changed in between. The answer is a
     * superset (a net that changed and changed back is listed), so an
     * observer compares values rather than counting entries. */
    /// @{
    struct ObservePoint
    {
        uint64_t sim = 0;    ///< simulator's log id; 0 names none
        uint64_t epoch = 0;
    };
    /** Record "now" as an observe point. */
    ObservePoint markObserved() const;
    /** Nets that may differ from their values at `p`, or nothing when
     *  the log does not cover the interval (diff all nets instead). */
    std::optional<std::span<const GateId>>
    changedSince(const ObservePoint &p) const
    {
        if (mode_ != EvalMode::EventDriven || p.sim != logId_)
            return std::nullopt;
        if (p.epoch != logEpoch_ &&
            !(logRestart_ && p.epoch == logEpoch_ + 1))
            return std::nullopt;
        return std::span<const GateId>(log_.data(), logLen_);
    }
    /// @}

  private:
    void evalCombFull();
    void evalCombEvent();
    /** Queue the gate at eval-order position `pos`. */
    void markDirty(uint32_t pos)
    {
        dirty_[pos >> 6] |= uint64_t{1} << (pos & 63);
    }

    /**
     * Event bookkeeping for nets whose values just changed: queue each
     * net's combinational consumers and log it. The arrays sit in
     * locals because a uint8_t value store may alias any member, and
     * the hot loops would otherwise reload every pointer after each
     * store.
     */
    struct ChangeSink
    {
        const uint32_t *foHead;
        const uint32_t *foPos;
        uint64_t *dirty;
        uint8_t *inLog;  ///< null while nobody observes
        GateId *log;
        uint32_t logLen;

        void operator()(GateId id)
        {
            for (uint32_t i = foHead[id]; i < foHead[id + 1]; i++)
                dirty[foPos[i] >> 6] |= uint64_t{1} << (foPos[i] & 63);
            if (inLog && !inLog[id]) {
                inLog[id] = 1;
                log[logLen++] = id;
            }
        }
    };
    /** A sink for one burst of changes, after taking any pending log
     *  restart; store its logLen back into logLen_ when done. */
    ChangeSink changeSink();
    /** changeSink() for a single change. */
    void noteChange(GateId id);
    /** Start a new log epoch: forget the entries, keep logging. */
    void restartLog();
    /** Drop the log so every observer falls back to a full diff (the
     *  values changed wholesale). */
    void invalidateLog();


    const Netlist &nl_;
    EvalMode mode_;
    /** Shared read-only eval program / fanout CSR / flop pins. */
    std::shared_ptr<const SimPrep> prep_;
    std::vector<uint8_t> val_;     ///< Logic per gate output
    std::vector<uint8_t> forced_;  ///< 0 = none, else Logic value + 1
    std::vector<GateId> forcedIds_;  ///< gates with forced_ set
    bool anyForce_ = false;
    std::vector<uint8_t> latchNext_;  ///< latchSequential() scratch

    // Event-driven mutable state (unused in FullEval mode).
    std::vector<uint64_t> dirty_;   ///< one bit per eval-order position
    bool fullPassPending_ = true;   ///< first eval after reset is full
    uint64_t gatesEvaluated_ = 0;
    uint64_t gatesEvaluatedTotal_ = 0;

    // Change log (EventDriven mode only). Observer bookkeeping, not
    // simulator state: the arrays are allocated by the first
    // markObserved(), so a simulator nobody observes never logs.
    /** Process-unique id naming this simulator's log, so an observer
     *  never mistakes another simulator's log (even one built at the
     *  same address) for the one it last observed. */
    uint64_t logId_;
    mutable std::vector<GateId> log_;  ///< nets changed this epoch
    uint32_t logLen_ = 0;              ///< used prefix of log_
    mutable std::vector<uint8_t> inLog_;  ///< log_ membership per net
    uint64_t logEpoch_ = 0;
    /** Set by markObserved(): the next change starts a new epoch. */
    mutable bool logRestart_ = false;
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
     * in `lanes` at once (defined in lane_sim.cc).
     */
    void observe(const LaneSim &sim, uint64_t lanes);

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
 * An observer's copy of a simulator's net values as of its previous
 * sync(). Each sync brings it up to date through the simulator's
 * change log when the log covers the interval, else by diffing all n
 * values — the result is the same either way.
 */
class ValueMirror
{
  public:
    explicit ValueMirror(size_t n) : values_(n, 0) {}

    /**
     * Call changed(id) for every net whose value differs from the
     * mirror, copying the new value in first. On a mirror that holds
     * no values yet, copy them all without calling changed() and
     * return false; otherwise return true.
     */
    template <class Fn>
    bool sync(const GateSim &sim, Fn &&changed);

    /** Hold `v` (not taken from any simulator: the next sync diffs
     *  every net). */
    void assign(std::vector<uint8_t> v);

    bool primed() const { return primed_; }
    const std::vector<uint8_t> &values() const { return values_; }

  private:
    std::vector<uint8_t> values_;
    bool primed_ = false;
    GateSim::ObservePoint point_;
};

template <class Fn>
bool
ValueMirror::sync(const GateSim &sim, Fn &&changed)
{
    const std::vector<uint8_t> &v = sim.values();
    const bool was_primed = primed_;
    if (!primed_) {
        values_ = v;
        primed_ = true;
    } else if (std::optional<std::span<const GateId>> log =
                   sim.changedSince(point_)) {
        for (GateId g : *log) {
            if (v[g] != values_[g]) {
                values_[g] = v[g];
                changed(g);
            }
        }
    } else {
        // Eight-net blocks: most compare equal in one 64-bit op.
        const uint8_t *vp = v.data();
        uint8_t *lp = values_.data();
        const size_t n = v.size();
        for (size_t i = 0; i < n; i += 8) {
            const size_t e = std::min(i + 8, n);
            if (e - i == 8) {
                uint64_t xv, xl;
                std::memcpy(&xv, vp + i, 8);
                std::memcpy(&xl, lp + i, 8);
                if (xv == xl)
                    continue;
            }
            for (size_t g = i; g < e; g++) {
                if (vp[g] != lp[g]) {
                    lp[g] = vp[g];
                    changed(static_cast<GateId>(g));
                }
            }
        }
    }
    point_ = sim.markObserved();
    return was_primed;
}

/**
 * Counts per-gate output transitions during concrete simulation; the
 * dynamic-power model consumes these (toggles x net capacitance).
 */
class ToggleCounter
{
  public:
    explicit ToggleCounter(const Netlist &netlist);

    /** Call once per cycle after evalComb+latch; diffs against last. */
    void observe(const GateSim &sim)
    {
        last_.sync(sim, [this](GateId g) { counts_[g]++; });
        cycles_++;
    }

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
        return static_cast<Logic>(last_.values()[id]);
    }

  private:
    ValueMirror last_;
    std::vector<uint64_t> counts_;
    uint64_t cycles_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_SIM_GATE_SIM_HH
