/**
 * @file
 * The tailoring pass pipeline: cutting & stitching, re-synthesis, the
 * cost-driven datapath rewrite search, and clock-gating planning, as a
 * configurable sequence of passes over one working netlist.
 *
 * runTailorPipeline() is the one entry point: with an activity result
 * it cuts and stitches (paper Section 3.2: every gate the analysis
 * proved untoggleable is removed and its fanout pins tied to the proven
 * constant), without one it only re-synthesizes. The default
 * configuration (constant folding only) reproduces the original
 * monolithic cut-and-stitch / re-synthesis flow bit-identically: the
 * fixpoint group below runs the exact same mark / compact / sweep
 * sequence the monolith ran, so every committed bench baseline is
 * unchanged until the optional passes are switched on.
 *
 * Optional passes:
 *  - rewrite-search: for every recorded DatapathInstance (adders, mux
 *    trees; see NetBuilder), enumerate alternative microarchitectures
 *    (ripple / carry-lookahead / carry-select; LSB-first / MSB-first
 *    mux pairing), score each candidate with
 *        cost = power(activity, vmin(depth)) +
 *               lambda x max(0, depth - clock budget)
 *    and commit the argmin when it strictly beats the current shape.
 *    Functional equivalence is structural (all shapes compute the same
 *    words) and additionally pinned by the flow's --verify equivalence
 *    check on every emitted design.
 *  - clock-gating: plan ICGs for DFFE banks with rare write enables
 *    (src/gating/clock_gating.hh); annotation-only, the netlist is
 *    unchanged.
 *  - sat-never-toggle: prove, by a bounded CDCL check over the unrolled
 *    design (src/sat/never_toggle.hh), that gates the X-propagating
 *    activity analysis left toggleable can in fact never leave their
 *    observed constant value; proven gates are promoted into the cut
 *    set. Needs the program image (PassEnv::program) and an activity
 *    provider; skipped (zero-change) without them.
 */

#ifndef BESPOKE_TRANSFORM_PASS_PIPELINE_HH
#define BESPOKE_TRANSFORM_PASS_PIPELINE_HH

#include <algorithm>
#include <string>
#include <utility>

#include "src/gating/clock_gating.hh"
#include "src/transform/pass.hh"
#include "src/transform/rewrite.hh"

namespace bespoke
{

/** Cell counts of one tailoring run. */
struct CutStats
{
    size_t gatesBefore = 0;
    size_t gatesCutDirect = 0;   ///< untoggled gates removed
    size_t gatesAfter = 0;       ///< after full re-synthesis
};

/** Knobs of the cost-driven datapath rewrite search. */
struct RewriteSearchOptions
{
    /** Ignore adder instances narrower than this. */
    size_t minAdderWidth = 8;
    /** Cost penalty (µW per ps) for exceeding the clock budget. */
    double lambdaUWPerPs = 1.0;
    /** Commit only when the winner is at least this fraction cheaper. */
    double minGainFraction = 1e-3;
};

/**
 * One λ-independent (instance, variant) rewrite score. λ never enters
 * the expensive scratch-netlist rebuild: the cost at any λ recombines
 * from the cached pair as
 *     cost(λ) = powerTermUW + λ x max(0, criticalPs - period)
 * so a λ-sweep costs one scoring pass plus O(#entries) arithmetic per
 * λ value (bench/resynth_cost was quadratic here before).
 */
struct RewriteVariantScore
{
    size_t inst = 0;         ///< index into netlist instances()
    uint8_t variant = 0;
    bool isCurrent = false;  ///< the instance's existing shape
    /** Activity-weighted power of the rebuilt design at vmin, µW. */
    double powerTermUW = 0.0;
    /** Critical path of the rebuilt design, ps. */
    double criticalPs = 0.0;
};

/** Cost of one cached entry at a given λ and clock budget. */
inline double
rewriteCostAt(const RewriteVariantScore &s, double lambda_uw_per_ps,
              double period_ps)
{
    return s.powerTermUW +
           lambda_uw_per_ps * std::max(0.0, s.criticalPs - period_ps);
}

/**
 * Score every enumerable (instance, variant) pair of `nl` once.
 * Entries come out grouped by instance in instance-table order. `ctx`
 * must be bound to `nl` (densities and timing are read from it);
 * opts.lambdaUWPerPs is ignored — λ only enters at recombination time.
 */
std::vector<RewriteVariantScore>
scoreRewriteCandidates(const Netlist &nl, PassContext &ctx,
                       const RewriteSearchOptions &opts);

/**
 * Re-combine cached scores at one λ: the (instance, variant) winners
 * that strictly beat the instance's current shape by at least
 * opts.minGainFraction — exactly the commit rule the rewrite-search
 * pass applies.
 */
std::vector<std::pair<size_t, uint8_t>>
rewriteDecisionsAtLambda(const std::vector<RewriteVariantScore> &scores,
                         const RewriteSearchOptions &opts,
                         double period_ps);

/** Knobs of the SAT never-toggle proving pass. */
struct SatNeverToggleOptions
{
    /**
     * Unrolling depth in frames. 0 = auto: the flow resolves it to the
     * activity analysis's full cycle horizon, making the bounded SAT
     * proof cover exactly the envelope the X-analysis proves its own
     * constants over. The pass is skipped if 0 reaches it unresolved.
     */
    int depth = 0;
    /** Per-query CDCL conflict budget (0 = unlimited). */
    uint64_t conflictBudget = 50000;
    /**
     * Ignored: the prover is sequential. Kept only because the
     * perfbench driver reads it; remove with the benchmark's next
     * revision.
     */
    int threads = 1;
};

/** Which passes run, and their knobs. */
struct PassPipelineOptions
{
    /** Constant propagation + dead sweep to fixpoint (the legacy
     *  re-synthesis loop). Off only for tests. */
    bool constantFold = true;
    /** Cut at module granularity instead of per gate (Fig. 12). */
    bool moduleCut = false;
    bool rewriteSearch = false;
    bool clockGating = false;
    bool satNeverToggle = false;
    /** Collect per-pass power/depth numbers (costs extra analyses). */
    bool collectMetrics = false;
    RewriteSearchOptions rewrite;
    ClockGatingOptions gating;
    SatNeverToggleOptions sat;
};

/**
 * Parse a comma-separated pass list into options: "default" (or "")
 * = constant folding only; names "constant-fold", "rewrite-search",
 * "clock-gating", "sat-never-toggle" (alias "sat_never_toggle") enable
 * individual passes; "all" enables every cost-driven pass but NOT the
 * SAT pass, which stays opt-in (solver time is unbounded in principle
 * and existing "all" baselines must not shift). Unknown names fail
 * with *err set. Parsed lists always start from the default
 * configuration (constant folding stays on unless the list is exactly
 * "none").
 */
bool parsePassList(const std::string &list, PassPipelineOptions *opts,
                   std::string *err);

/** What the pipeline did, for reports and the tailor CLI. */
struct PipelineReport
{
    std::vector<PassStats> passes;
    /** Datapath instances whose shape the rewrite search changed. */
    size_t rewrittenInstances = 0;
    /** Clock-gating plan (empty unless the pass ran). */
    ClockGatingReport gating;
    /** SAT never-toggle pass outcome (zero unless the pass ran). */
    size_t satCandidates = 0;
    size_t satProven = 0;
    size_t satRefuted = 0;
    size_t satUnknown = 0;
    /** Solver-side observability, summed over the prover's candidate
     *  shards. */
    uint64_t satConflicts = 0;
    uint64_t satPropagations = 0;
    uint64_t satLearned = 0;      ///< learned clauses ever recorded
    uint64_t satKept = 0;         ///< learned clauses live at the end
    uint64_t satReductions = 0;   ///< clause-database reductions
    uint64_t satRestarts = 0;
    size_t satShards = 0;         ///< candidate partition size
};

/**
 * One constant-propagation / simplification sweep over the rewriter's
 * source netlist; returns the number of gates changed. The body of the
 * ConstantFoldPass, exposed for the fixpoint driver and tests.
 */
size_t constantFoldOnce(Rewriter &rw);

/**
 * Run the tailoring pipeline. `activity` selects the cut pass (null =
 * re-synthesis only, e.g. for already-cut or imported designs; the
 * tracker's netlist must be `src`); opts.moduleCut cuts whole modules
 * instead (the coarse-grained baseline of paper Fig. 12); the env's
 * providers feed the optional cost-driven passes. Stats and the
 * report are optional outputs.
 */
Netlist runTailorPipeline(const Netlist &src,
                          const ActivityTracker *activity,
                          const PassPipelineOptions &opts = {},
                          const PassEnv &env = {},
                          CutStats *stats = nullptr,
                          PipelineReport *report = nullptr);

} // namespace bespoke

#endif // BESPOKE_TRANSFORM_PASS_PIPELINE_HH
