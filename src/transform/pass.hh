/**
 * @file
 * Transform pass framework: the environment, the shared analysis
 * context, and the per-pass statistics of the tailoring pipeline.
 *
 * A pass expresses its effect as Rewriter marks (src/transform/rewrite)
 * against the pipeline's current working netlist; the pipeline owns
 * compaction, dead sweeping, and analysis invalidation between passes.
 *
 * PassContext carries the expensive shared analyses — measured toggle
 * activity and the per-gate arrival/required/slack query — computed
 * lazily on first use and dropped whenever the netlist changes, so a
 * pipeline of passes that never ask for timing never pays for it.
 */

#ifndef BESPOKE_TRANSFORM_PASS_HH
#define BESPOKE_TRANSFORM_PASS_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/power/power_model.hh"
#include "src/sim/gate_sim.hh"
#include "src/timing/sta.hh"

namespace bespoke
{

struct AsmProgram;

/**
 * Everything the caller supplies to a pass pipeline: model parameters,
 * the clock budget, and replay callbacks for activity measurement. All
 * members are optional; passes that need an absent provider are
 * skipped (reported as zero-change).
 */
struct PassEnv
{
    /** Timing model; null = library defaults. */
    const TimingParams *timing = nullptr;
    /** Power model; null = library defaults. */
    const PowerParams *power = nullptr;
    /** Program image, for passes that reason about the full SoC (the
     *  SAT never-toggle prover); null = those passes are skipped. */
    const AsmProgram *program = nullptr;
    /**
     * Clock period budget (ps) for timing-aware passes. 0 = derive
     * from the working netlist's own critical path with the flow's
     * 2% margin.
     */
    double clockPeriodPs = 0.0;
    /**
     * Replay the representative workloads on `nl`, accumulating toggle
     * counts into `tc` (constructed for `nl` by the context). The
     * rewrite search scores candidates with these activities.
     */
    std::function<void(const Netlist &nl, ToggleCounter *tc)>
        measureActivity;
    /**
     * Count, for each gate in `ids`, the number of replay cycles in
     * which its value was 1 or X (X counts as high: a net that may be
     * high cannot justify gating). Writes the total observed cycle
     * count to *cycles. Read by the clock-gating pass only.
     */
    std::function<void(const Netlist &nl, const std::vector<GateId> &ids,
                       std::vector<uint64_t> *high, uint64_t *cycles)>
        measureDuty;
};

/**
 * Lazily-computed shared analyses over the pipeline's current netlist.
 * bind() points the context at a (new) working netlist and drops every
 * cached analysis; activity() and timingQuery() compute on first use.
 */
class PassContext
{
  public:
    explicit PassContext(const PassEnv &env) : env_(env) {}

    /** Rebind to the current working netlist, invalidating caches. */
    void bind(const Netlist &nl);
    /** Drop cached analyses (netlist contents changed in place). */
    void invalidate();

    const PassEnv &env() const { return env_; }
    const Netlist &netlist() const;
    const TimingParams &timing() const;
    const PowerParams &power() const;

    bool hasActivity() const { return bool(env_.measureActivity); }
    /** Measured toggle counts for the bound netlist (lazy; panics
     *  without an activity provider — check hasActivity()). */
    const ToggleCounter &activity();
    /** Per-gate toggle density alpha = count/cycles (lazy). */
    const std::vector<double> &densities();

    /** Clock period budget (env value or derived; lazy). */
    double clockPeriodPs();
    /** Arrival/required/slack query at the budget period (lazy). */
    const TimingQuery &timingQuery();

  private:
    const PassEnv &env_;
    const Netlist *nl_ = nullptr;
    std::optional<ToggleCounter> activity_;
    std::vector<double> densities_;
    std::unique_ptr<TimingQuery> timingQuery_;
    double periodPs_ = 0.0;
};

/** Per-pass outcome, for reports and the tailor CLI summary. */
struct PassStats
{
    std::string name;
    size_t changes = 0;        ///< rewrite marks applied (0 = no-op)
    size_t gatesBefore = 0;    ///< real cells before the pass
    size_t gatesAfter = 0;     ///< real cells after compaction
    /** Activity-weighted power before/after (µW; -1 = not measured). */
    double powerBeforeUW = -1.0;
    double powerAfterUW = -1.0;
    /** Critical path before/after (ps; -1 = not measured). */
    double depthBeforePs = -1.0;
    double depthAfterPs = -1.0;
    double wallMs = 0.0;
};

} // namespace bespoke

#endif // BESPOKE_TRANSFORM_PASS_HH
