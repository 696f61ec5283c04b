#include "src/bespoke/flow.hh"

#include "src/cpu/bsp430.hh"
#include "src/util/table.hh"
#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

namespace
{

/** Key material for a workload set, order-sensitive. */
uint64_t
hashApps(const std::vector<const Workload *> &apps)
{
    uint64_t h = kHashBasis;
    for (const Workload *w : apps)
        h = hashCombine(h, hashProgram(w->assembleProgram()));
    return h;
}

} // namespace

BespokeFlow::BespokeFlow(FlowOptions opts)
    : BespokeFlow(std::move(opts), buildBsp430())
{
}

BespokeFlow::BespokeFlow(FlowOptions opts, Netlist baseline)
    : opts_(std::move(opts)), baseline_(std::move(baseline)),
      store_(opts_.checkpointDir)
{
    sizeForLoads(baseline_, opts_.timing);
    TimingReport rep = analyzeTiming(baseline_, opts_.timing);
    // The baseline is "optimized to minimize area and power for
    // operation at" its achievable frequency (paper Sec. 4.2): hold
    // every design to the baseline's critical path plus a small margin.
    clockPeriodPs_ = rep.criticalPathPs * 1.02;
    // Checkpoint keys hash the *sized* baseline: every stage artifact
    // is derived from the netlist as the flow actually analyzes it.
    baselineHash_ = baseline_.contentHash();
    analysisOptsHash_ = hashAnalysisOptions(opts_.analysis);
    flowOptsHash_ = hashFlowOptions(opts_);
    bespoke_inform("baseline: ", baseline_.numCells(), " cells, ",
                   formatFixed(rep.criticalPathPs, 0), " ps critical (",
                   formatFixed(1e6 / clockPeriodPs_, 1), " MHz)");
}

DesignMetrics
BespokeFlow::measure(const Netlist &netlist,
                     const std::vector<const Workload *> &apps)
{
    CheckpointKey key;
    if (store_.enabled()) {
        key = {netlist.contentHash(), hashApps(apps), flowOptsHash_};
        JsonValue doc;
        DesignMetrics cached;
        std::string err;
        if (store_.load(key, "metrics", &doc)) {
            if (metricsFromJson(doc, &cached, &err))
                return cached;
            bespoke_warn("checkpoint metrics: ", err, "; re-measuring");
        }
    }

    DesignMetrics m;
    NetlistStats stats = netlist.stats();
    m.gates = stats.numCells;
    m.flops = stats.numSequential;
    m.areaUm2 = stats.area;

    TimingReport rep = analyzeTiming(netlist, opts_.timing);
    m.criticalPathPs = rep.criticalPathPs;
    m.slackFraction =
        (clockPeriodPs_ - rep.criticalPathPs) / clockPeriodPs_;

    // Switching activity from concrete representative runs, replayed
    // lane-parallel per app (bit-identical to the sequential loop: the
    // batch runner replays cross-run counter boundaries in run order).
    // One simulation context serves every run on this netlist.
    std::shared_ptr<const SocContext> ctx = SocContext::make(netlist);
    ToggleCounter toggles(netlist);
    GateBatchObservers obs;
    obs.toggles = &toggles;
    Rng rng(opts_.powerSeed);
    for (const Workload *w : apps) {
        AsmProgram prog = w->assembleProgram();
        std::vector<WorkloadInput> inputs;
        for (int i = 0; i < opts_.powerInputsPerWorkload; i++)
            inputs.push_back(w->genInput(rng));
        std::vector<GateRun> runs = runWorkloadGateBatch(
            netlist, *w, prog, inputs, obs, ctx);
        for (const GateRun &run : runs) {
            if (!run.halted) {
                bespoke_warn("power run of ", w->name,
                             " did not halt within its cycle budget");
            }
        }
    }
    m.powerNominal =
        computePower(netlist, toggles, opts_.power, opts_.timing);
    m.vmin = vminForPeriod(rep.criticalPathPs, clockPeriodPs_,
                           opts_.timing);
    m.powerAtVmin =
        scaleToVoltage(m.powerNominal, m.vmin, opts_.power);

    if (store_.enabled())
        store_.save(key, "metrics", metricsToJson(m));
    return m;
}

DesignMetrics
BespokeFlow::measureBaseline(const std::vector<const Workload *> &apps)
{
    return measure(baseline_, apps);
}

AnalysisResult
BespokeFlow::analyze(const Workload &app)
{
    return analyzeProgram(app.assembleProgram(), app.name);
}

AnalysisResult
BespokeFlow::analyzeProgram(const AsmProgram &prog,
                            const std::string &name)
{
    CheckpointKey key{baselineHash_, hashProgram(prog),
                      analysisOptsHash_};
    JsonValue doc;
    AnalysisResult cached;
    std::string err;
    if (store_.load(key, "analysis", &doc)) {
        if (analysisFromJson(doc, baseline_, &cached, &err))
            return cached;
        bespoke_warn("checkpoint analysis for ", name, ": ", err,
                     "; re-analyzing");
    }
    AnalysisResult r = analyzeActivity(baseline_, prog, opts_.analysis);
    // Capped (incomplete) runs are never checkpointed: a rerun with
    // higher caps must not resume from a partial toggle set.
    if (store_.enabled() && r.completed)
        store_.save(key, "analysis", analysisToJson(r));
    return r;
}

Netlist
BespokeFlow::obtainDesign(
    uint64_t program_hash, const char *stage, CutStats *cut,
    PipelineReport *report,
    const std::function<Netlist(CutStats *, PipelineReport *)> &build)
{
    CheckpointKey key{baselineHash_, program_hash, flowOptsHash_};
    JsonValue doc;
    Netlist cached;
    std::string err;
    if (store_.load(key, stage, &doc)) {
        if (designFromJson(doc, &cached, cut, &err, report))
            return cached;
        bespoke_warn("checkpoint ", stage, ": ", err, "; re-cutting");
    }
    Netlist netlist = build(cut, report);
    // Re-size for the (smaller) loads: the paper's slack-driven
    // replacement with smaller cells falls out of re-running sizing.
    sizeForLoads(netlist, opts_.timing);
    if (store_.enabled())
        store_.save(key, stage, designToJson(netlist, *cut, report));
    return netlist;
}

PassEnv
BespokeFlow::makePassEnv(std::vector<const Workload *> apps) const
{
    PassEnv env;
    env.timing = &opts_.timing;
    env.power = &opts_.power;
    env.clockPeriodPs = clockPeriodPs_;
    int inputs = opts_.powerInputsPerWorkload;
    uint64_t seed = opts_.powerSeed;
    // Activity provider: the same lane-batched replay measure() uses
    // for the final power numbers, so the rewrite search optimizes the
    // metric the flow actually reports.
    env.measureActivity = [apps, inputs, seed](
                              const Netlist &nl, ToggleCounter *tc) {
        std::shared_ptr<const SocContext> ctx = SocContext::make(nl);
        GateBatchObservers obs;
        obs.toggles = tc;
        Rng rng(seed);
        for (const Workload *w : apps) {
            AsmProgram prog = w->assembleProgram();
            std::vector<WorkloadInput> in;
            for (int i = 0; i < inputs; i++)
                in.push_back(w->genInput(rng));
            runWorkloadGateBatch(nl, *w, prog, in, obs, ctx);
        }
    };
    // Duty provider: scalar replay sampling the requested enable nets
    // every cycle (X counts as high — a maybe-writing bank cannot be
    // gated).
    env.measureDuty = [apps, inputs, seed](
                          const Netlist &nl,
                          const std::vector<GateId> &ids,
                          std::vector<uint64_t> *high,
                          uint64_t *cycles) {
        high->assign(ids.size(), 0);
        *cycles = 0;
        Rng rng(seed);
        auto per_cycle = [&](const GateSim &sim) {
            (*cycles)++;
            for (size_t k = 0; k < ids.size(); k++) {
                if (sim.value(ids[k]) != Logic::Zero)
                    (*high)[k]++;
            }
        };
        for (const Workload *w : apps) {
            AsmProgram prog = w->assembleProgram();
            for (int i = 0; i < inputs; i++) {
                WorkloadInput in = w->genInput(rng);
                runWorkloadGate(nl, *w, prog, in, nullptr, nullptr,
                                per_cycle);
            }
        }
    };
    return env;
}

BespokeDesign
BespokeFlow::tailor(const Workload &app)
{
    BespokeDesign d;
    std::string err;
    bespoke_assert(tryTailor(app, &d, &err), err);
    return d;
}

bool
BespokeFlow::tryTailor(const Workload &app, BespokeDesign *out,
                       std::string *err)
{
    AsmProgram prog = app.assembleProgram();
    AnalysisResult analysis = analyzeProgram(prog, app.name);
    if (!analysis.completed) {
        *err = "analysis hit caps for " + app.name;
        return false;
    }
    CutStats cut;
    PipelineReport report;
    Netlist bespoke_nl = obtainDesign(
        hashProgram(prog), "design", &cut, &report,
        [&](CutStats *c, PipelineReport *r) {
            PassEnv env = makePassEnv({&app});
            // Single-program tailoring: the SAT never-toggle pass can
            // reason about the full SoC. (Multi-program tailoring
            // leaves env.program null — a proof would have to hold
            // for every program, which the pass does not yet do.)
            env.program = &prog;
            PassPipelineOptions popts = opts_.passes;
            // Auto depth: cover exactly the analysis's bounded
            // envelope. Derived from inputs already in the checkpoint
            // key, so resolving it here keeps keys stable.
            if (popts.satNeverToggle && popts.sat.depth == 0) {
                popts.sat.depth =
                    static_cast<int>(analysis.cyclesSimulated);
            }
            return runTailorPipeline(baseline_, analysis.activity.get(),
                                     popts, env, c, r);
        });
    *out = BespokeDesign{std::move(bespoke_nl), cut, {},
                         std::move(analysis), std::move(report)};
    out->metrics = measure(out->netlist, {&app});
    return true;
}

BespokeDesign
BespokeFlow::tailorMulti(const std::vector<const Workload *> &apps)
{
    BespokeDesign d;
    std::string err;
    bespoke_assert(tryTailorMulti(apps, &d, &err), err);
    return d;
}

bool
BespokeFlow::tryTailorMulti(const std::vector<const Workload *> &apps,
                            BespokeDesign *out, std::string *err)
{
    bespoke_assert(!apps.empty());
    ActivityTracker merged(baseline_);
    AnalysisResult last;
    uint64_t progs = kHashBasis;
    for (const Workload *w : apps) {
        AsmProgram prog = w->assembleProgram();
        progs = hashCombine(progs, hashProgram(prog));
        AnalysisResult r = analyzeProgram(prog, w->name);
        if (!r.completed) {
            *err = "analysis hit caps for " + w->name;
            return false;
        }
        if (!merged.initialCaptured()) {
            merged = std::move(*r.activity);
        } else {
            merged.mergeFrom(*r.activity);
        }
        last = std::move(r);
    }
    CutStats cut;
    PipelineReport report;
    Netlist bespoke_nl = obtainDesign(
        progs, "design", &cut, &report,
        [&](CutStats *c, PipelineReport *r) {
            PassEnv env = makePassEnv(apps);
            return runTailorPipeline(baseline_, &merged, opts_.passes,
                                     env, c, r);
        });
    // Keep the merged tracker with the result for callers that need it.
    last.activity = std::make_unique<ActivityTracker>(std::move(merged));
    *out = BespokeDesign{std::move(bespoke_nl), cut, {},
                         std::move(last), std::move(report)};
    out->metrics = measure(out->netlist, apps);
    return true;
}

BespokeDesign
BespokeFlow::tailorCoarse(const Workload &app)
{
    AsmProgram prog = app.assembleProgram();
    AnalysisResult analysis = analyzeProgram(prog, app.name);
    bespoke_assert(analysis.completed,
                   "analysis hit caps for ", app.name);
    CutStats cut;
    PipelineReport report;
    // Module-level cutting shares the flow options with the
    // fine-grained design, so the artifact lives under its own stage.
    // The coarse baseline always runs the module-cut default pipeline:
    // it exists as the paper's Fig. 12 comparison point, not as a
    // target for the optional optimization passes.
    Netlist coarse = obtainDesign(
        hashProgram(prog), "coarse", &cut, &report,
        [&](CutStats *c, PipelineReport *r) {
            PassPipelineOptions coarse_opts;
            coarse_opts.moduleCut = true;
            return runTailorPipeline(baseline_, analysis.activity.get(),
                                     coarse_opts, {}, c, r);
        });
    BespokeDesign d{std::move(coarse), cut, {}, std::move(analysis),
                    std::move(report)};
    d.metrics = measure(d.netlist, {&app});
    return d;
}

} // namespace bespoke
