#include "src/bespoke/flow.hh"

#include "src/cpu/bsp430.hh"
#include "src/util/table.hh"
#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

namespace
{

/** One application's seeded replay: its program and drawn inputs. */
struct AppReplay
{
    const Workload *app;
    AsmProgram prog;
    std::vector<WorkloadInput> inputs;
};

} // namespace

PassEnv
replayEnv(const std::vector<const Workload *> &apps, int inputs,
          uint64_t seed)
{
    std::vector<AppReplay> drawn;
    Rng rng(seed);
    for (const Workload *w : apps) {
        AppReplay &r = drawn.emplace_back(
            AppReplay{w, w->assembleProgram(), {}});
        for (int i = 0; i < inputs; i++)
            r.inputs.push_back(w->genInput(rng));
    }
    auto replays =
        std::make_shared<const std::vector<AppReplay>>(std::move(drawn));
    PassEnv env;
    // Lane-parallel per app, bit-identical to the sequential loop (the
    // batch runner replays cross-run counter boundaries in run order);
    // one simulation context serves every run on this netlist.
    env.measureActivity = [replays](const Netlist &nl,
                                    ToggleCounter *tc) {
        std::shared_ptr<const SocContext> ctx = SocContext::make(nl);
        for (const AppReplay &r : *replays) {
            for (const GateRun &run : runWorkloadGateBatch(
                     nl, *r.app, r.prog, r.inputs, tc, ctx)) {
                if (!run.halted) {
                    bespoke_warn("replay run of ", r.app->name,
                                 " did not halt within its cycle budget");
                }
            }
        }
    };
    // Scalar replay sampling the requested enable nets every cycle (X
    // counts as high: a maybe-writing bank cannot be gated).
    env.measureDuty = [replays](const Netlist &nl,
                                const std::vector<GateId> &ids,
                                std::vector<uint64_t> *high,
                                uint64_t *cycles) {
        high->assign(ids.size(), 0);
        *cycles = 0;
        auto per_cycle = [&](const GateSim &sim) {
            (*cycles)++;
            for (size_t k = 0; k < ids.size(); k++) {
                if (sim.value(ids[k]) != Logic::Zero)
                    (*high)[k]++;
            }
        };
        for (const AppReplay &r : *replays) {
            for (const WorkloadInput &in : r.inputs) {
                runWorkloadGate(nl, *r.app, r.prog, in, nullptr,
                                nullptr, per_cycle);
            }
        }
    };
    return env;
}

BespokeFlow::BespokeFlow(FlowOptions opts)
    : BespokeFlow(std::move(opts), buildBsp430())
{
}

BespokeFlow::BespokeFlow(FlowOptions opts, Netlist baseline)
    : opts_(std::move(opts)), baseline_(std::move(baseline))
{
    sizeForLoads(baseline_, opts_.timing);
    TimingReport rep = analyzeTiming(baseline_, opts_.timing);
    // The baseline is "optimized to minimize area and power for
    // operation at" its achievable frequency (paper Sec. 4.2): hold
    // every design to the baseline's critical path plus a small margin.
    clockPeriodPs_ = rep.criticalPathPs * 1.02;
    bespoke_inform("baseline: ", baseline_.numCells(), " cells, ",
                   formatFixed(rep.criticalPathPs, 0), " ps critical (",
                   formatFixed(1e6 / clockPeriodPs_, 1), " MHz)");
}

DesignMetrics
BespokeFlow::measure(const Netlist &netlist,
                     const std::vector<const Workload *> &apps)
{
    return measureWith(
        netlist,
        replayEnv(apps, opts_.powerInputsPerWorkload, opts_.powerSeed)
            .measureActivity);
}

DesignMetrics
BespokeFlow::measureWith(
    const Netlist &netlist,
    const std::function<void(const Netlist &, ToggleCounter *)>
        &measureActivity)
{
    DesignMetrics m;
    NetlistStats stats = netlist.stats();
    m.gates = stats.numCells;
    m.flops = stats.numSequential;
    m.areaUm2 = stats.area;

    TimingReport rep = analyzeTiming(netlist, opts_.timing);
    m.criticalPathPs = rep.criticalPathPs;
    m.slackFraction =
        (clockPeriodPs_ - rep.criticalPathPs) / clockPeriodPs_;

    // Switching activity from concrete representative runs.
    ToggleCounter toggles(netlist);
    measureActivity(netlist, &toggles);
    m.powerNominal =
        computePower(netlist, toggles, opts_.power, opts_.timing);
    m.vmin = vminForPeriod(rep.criticalPathPs, clockPeriodPs_,
                           opts_.timing);
    m.powerAtVmin =
        scaleToVoltage(m.powerNominal, m.vmin, opts_.power);
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
    return analyzeActivity(baseline_, app.assembleProgram(),
                           opts_.analysis);
}

BespokeDesign
BespokeFlow::tailor(const Workload &app)
{
    return tailorMulti({&app});
}

bool
BespokeFlow::tryTailor(const Workload &app, BespokeDesign *out,
                       std::string *err)
{
    return tryTailorMulti({&app}, out, err);
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
    AsmProgram prog;
    std::unique_ptr<ActivityTracker> merged;
    AnalysisResult last;
    for (const Workload *w : apps) {
        prog = w->assembleProgram();
        AnalysisResult r = analyzeActivity(baseline_, prog, opts_.analysis);
        if (!r.completed) {
            *err = "analysis hit caps for " + w->name;
            return false;
        }
        if (!merged)
            merged = std::move(r.activity);
        else
            merged->mergeFrom(*r.activity);
        last = std::move(r);
    }
    last.activity = std::move(merged);
    // A proof about one program does not hold for a union, so the
    // program image goes along only for a single app.
    *out = tailorAnalysis(std::move(last), apps,
                          apps.size() == 1 ? &prog : nullptr);
    return true;
}

BespokeDesign
BespokeFlow::tailorAnalysis(AnalysisResult analysis,
                            const std::vector<const Workload *> &apps,
                            const AsmProgram *program)
{
    bespoke_assert(!apps.empty() && analysis.activity &&
                       analysis.completed,
                   "tailoring needs a completed analysis");
    // The runs measure() replays for the final power numbers, so the
    // rewrite search optimizes the metric the flow reports; the same
    // drawn replay then measures the design.
    PassEnv env =
        replayEnv(apps, opts_.powerInputsPerWorkload, opts_.powerSeed);
    env.timing = &opts_.timing;
    env.power = &opts_.power;
    env.clockPeriodPs = clockPeriodPs_;
    env.program = program;
    PassPipelineOptions popts = opts_.passes;
    if (program && popts.satNeverToggle) {
        // Auto depth: cover exactly the analysis's bounded envelope.
        int horizon = static_cast<int>(analysis.cyclesSimulated);
        if (popts.sat.depth == 0) {
            popts.sat.depth = horizon;
        } else if (popts.sat.depth < horizon) {
            bespoke_warn("SAT never-toggle depth ", popts.sat.depth,
                         " is below ", apps.front()->name,
                         "'s analysis horizon of ", horizon,
                         " cycles: the design is proven only over the"
                         " first ", popts.sat.depth, " cycles");
        }
    }
    BespokeDesign d;
    d.netlist = runTailorPipeline(baseline_, analysis.activity.get(),
                                  popts, env, &d.cut, &d.pipeline);
    // Re-size for the (smaller) loads: the paper's slack-driven
    // replacement with smaller cells falls out of re-running sizing.
    sizeForLoads(d.netlist, opts_.timing);
    d.metrics = measureWith(d.netlist, env.measureActivity);
    d.analysis = std::move(analysis);
    return d;
}

BespokeDesign
BespokeFlow::tailorCoarse(const Workload &app)
{
    BespokeDesign d;
    d.analysis = analyze(app);
    bespoke_assert(d.analysis.completed,
                   "analysis hit caps for ", app.name);
    // The coarse baseline always runs the module-cut default pipeline:
    // it exists as the paper's Fig. 12 comparison point, not as a
    // target for the optional optimization passes.
    PassPipelineOptions coarse_opts;
    coarse_opts.moduleCut = true;
    d.netlist = runTailorPipeline(baseline_, d.analysis.activity.get(),
                                  coarse_opts, {}, &d.cut, &d.pipeline);
    sizeForLoads(d.netlist, opts_.timing);
    d.metrics = measure(d.netlist, {&app});
    return d;
}

} // namespace bespoke
