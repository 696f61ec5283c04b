/**
 * @file
 * Cost-driven re-synthesis: the pass pipeline's optional passes
 * (datapath rewrite search + activity-driven clock gating) against the
 * fixed-microarchitecture tailoring flow.
 *
 * For every benchmark the fixed flow cuts and re-synthesizes with the
 * datapath shapes the generator chose (one AdderKind everywhere); the
 * pipeline flow additionally re-scores every recorded adder / mux-tree
 * instance under the activity x timing cost model and plans ICGs for
 * rarely-written register banks. Reported power is the design's
 * activity-weighted total at its scaled Vmin, minus the clock-tree
 * power the gating plan removes; "verified" is the symbolic
 * equivalence of the optimized design against the baseline core, so
 * every power win in the table is a win on a provably equivalent
 * design.
 *
 * The λ-sweep table walks the rewrite search's timing-penalty weight
 * over the tailored designs. Scoring — the expensive scratch-netlist
 * rebuild per (instance, variant) — runs exactly once per app via
 * scoreRewriteCandidates(); every λ row then re-combines the cached
 * (power, critical-path) pairs in O(#entries) arithmetic. The
 * pre-split implementation re-ran the rebuild per (λ, variant) pair,
 * making the sweep quadratic in practice.
 */

#include "bench/bench_common.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "resynth_cost", BenchIO::Flow);
    int inputs = io.quick() ? 1 : 2;

    banner("Cost-driven rewrite search + clock gating vs. fixed flow",
           "pass pipeline");

    FlowOptions fixed_opts = io.flowOptions();
    fixed_opts.powerInputsPerWorkload = inputs;

    FlowOptions opt_opts = fixed_opts;
    opt_opts.passes.rewriteSearch = true;
    opt_opts.passes.clockGating = true;

    BespokeFlow fixed_flow(fixed_opts);
    BespokeFlow opt_flow(opt_opts);
    double vnom = fixed_opts.power.voltage;

    size_t improved = 0;
    std::vector<std::pair<const Workload *, Netlist>> sweep_designs;
    Table table({"benchmark", "fixed uW", "pipeline uW", "delta %",
                 "rewrites", "gated banks", "gated flops", "verified"});
    for (const Workload &w : workloads()) {
        BespokeDesign fixed = fixed_flow.tailor(w);
        BespokeDesign opt = opt_flow.tailor(w);
        sweep_designs.emplace_back(&w, fixed.netlist);

        double fixed_uw = fixed.metrics.powerAtVmin.totalUW();
        // The gating plan's savings are quoted at nominal voltage;
        // the gated design runs at the optimized design's Vmin.
        double vscale = (opt.metrics.vmin / vnom) *
                        (opt.metrics.vmin / vnom);
        double opt_uw = opt.metrics.powerAtVmin.totalUW() -
                        opt.pipeline.gating.savedClockUW * vscale;
        if (opt_uw < fixed_uw)
            improved++;

        EquivResult eq = checkSymbolicEquivalence(
            fixed_flow.baseline(), opt.netlist, w.assembleProgram());

        table.row()
            .add(w.name)
            .add(fixed_uw, 2)
            .add(opt_uw, 2)
            .add(100.0 * (opt_uw - fixed_uw) / fixed_uw, 2)
            .add(static_cast<long>(opt.pipeline.rewrittenInstances))
            .add(static_cast<long>(opt.pipeline.gating.banks.size()))
            .add(static_cast<long>(opt.pipeline.gating.gatedFlops()))
            .add(eq.equivalent && eq.completed ? "yes" : "NO");
    }
    io.table("resynth_cost", table,
             "Activity-weighted power at Vmin: fixed-shape tailoring "
             "vs. the cost-driven\npass pipeline (rewrite search + "
             "clock gating). Every optimized design is\nsymbolically "
             "equivalent to the baseline core for its application.");

    Table summary({"designs", "strictly lower power"});
    summary.row()
        .add(static_cast<long>(workloads().size()))
        .add(static_cast<long>(improved));
    io.table("summary", summary,
             "Benchmarks where the pipeline beats the fixed flow "
             "outright.");

    // --- λ-sweep over cached variant scores. One scoring pass per
    // app (the expensive scratch rebuilds), then every λ value is a
    // pure re-combination of the cached (power, depth) pairs. ---
    const std::vector<double> lambdas = {0.0, 0.25, 0.5,
                                         1.0, 2.0,  4.0, 8.0};
    struct SweepAgg
    {
        size_t rewrites = 0;
        double bestCostUW = 0.0;  ///< sum of per-instance cost minima
    };
    std::vector<SweepAgg> agg(lambdas.size());
    size_t scored_entries = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (auto &[w, nl] : sweep_designs) {
        PassEnv env = replayEnv({w}, inputs, fixed_opts.powerSeed);
        env.timing = &fixed_opts.timing;
        env.power = &fixed_opts.power;
        RewriteSearchOptions ropts;
        double period = 0.0;
        std::vector<RewriteVariantScore> scores =
            scoreRewriteCandidates(nl, env, &period);
        scored_entries += scores.size();
        for (size_t li = 0; li < lambdas.size(); li++) {
            ropts.lambdaUWPerPs = lambdas[li];
            agg[li].rewrites +=
                rewriteDecisionsAtLambda(scores, ropts, period).size();
            // Cost of the per-instance argmin configuration at this λ.
            size_t i = 0;
            while (i < scores.size()) {
                size_t j = i;
                double best = 0.0;
                for (; j < scores.size() &&
                       scores[j].inst == scores[i].inst;
                     j++) {
                    double c =
                        rewriteCostAt(scores[j], lambdas[li], period);
                    if (j == i || c < best)
                        best = c;
                }
                agg[li].bestCostUW += best;
                i = j;
            }
        }
    }
    double sweep_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();

    Table sweep({"lambda uW/ps", "rewrites", "best-cost sum uW"});
    for (size_t li = 0; li < lambdas.size(); li++) {
        sweep.row()
            .add(lambdas[li], 2)
            .add(static_cast<long>(agg[li].rewrites))
            .add(agg[li].bestCostUW, 2);
    }
    io.table("lambda_sweep", sweep,
             "Rewrite decisions as the timing-penalty weight λ sweeps: "
             "one scoring pass\nper app, cached (power, depth) scores "
             "re-combined per λ.");
    io.counter("lambda_sweep_scored_entries",
               static_cast<double>(scored_entries));
    io.counter("lambda_sweep_seconds", sweep_s);
    return io.finish();
}
