#include "perfbench/ops.hh"

#include <utility>
#include <vector>

#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/mutation/mutation.hh"
#include "src/sim/gate_sim.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/rng.hh"
#include "src/verify/runner.hh"

using namespace bespoke;

namespace perfbench
{

namespace
{

/** bench/sat_recovery's replay settings and quick-table envelope. */
constexpr uint64_t kProveReplaySeed = 2024;
constexpr int kProveReplayInputs = 2;
constexpr int kProveDepth = 30;

/** How a concrete replay draws its inputs and packs its lanes. */
struct ReplaySpec
{
    uint64_t seed = 0;
    int inputs = 0;
    int planeBits = 0;
};

AsmProgram
assembleTraced(const Workload &w, Trace *trace)
{
    Trace::Scope s(trace, "isa.assemble_s");
    return w.assembleProgram();
}

AnalysisResult
analyzeTraced(const Netlist &nl, const AsmProgram &prog,
              const AnalysisOptions &opts, Trace *trace)
{
    AnalysisResult r;
    {
        Trace::Scope s(trace, "analysis.s");
        r = analyzeActivity(nl, prog, opts);
    }
    Trace::count(trace, "analysis.paths", r.pathsExplored);
    Trace::count(trace, "analysis.cycles", r.cyclesSimulated);
    Trace::count(trace, "analysis.gate_evals", r.gatesEvaluated);
    Trace::count(trace, "analysis.lane_sweeps", r.laneSweeps);
    Trace::count(trace, "analysis.merges", r.merges);
    return r;
}

/** Seeded concrete replay of `w` on `nl` into `tc` (the flow's power
 *  replay and the SAT pass's activity provider). */
void
replayTraced(const Netlist &nl, const Workload &w, const AsmProgram &prog,
             const ReplaySpec &spec, ToggleCounter *tc, Trace *trace)
{
    std::vector<GateRun> runs;
    {
        Trace::Scope s(trace, "verify.replay_s");
        std::shared_ptr<const SocContext> ctx = SocContext::make(nl);
        GateBatchObservers obs;
        obs.toggles = tc;
        Rng rng(spec.seed);
        std::vector<WorkloadInput> inputs;
        for (int i = 0; i < spec.inputs; i++)
            inputs.push_back(w.genInput(rng));
        runs = runWorkloadGateBatch(nl, w, prog, inputs, spec.planeBits,
                                    obs, ctx);
    }
    Trace::count(trace, "verify.replay_runs", runs.size());
    for (const GateRun &r : runs) {
        Trace::count(trace, "verify.replay_cycles", r.cycles);
        Trace::count(trace, "verify.replay_halted", r.halted ? 1 : 0);
    }
}

/** The flow's pass environment for one program: replay-measured
 *  activity and enable duty (the SAT pass is skipped unless both are
 *  present). */
PassEnv
replayEnv(const Workload &w, const AsmProgram &prog, const ReplaySpec &spec,
          Trace *trace)
{
    PassEnv env;
    env.program = &prog;
    env.measureActivity = [&w, &prog, spec, trace](const Netlist &nl,
                                                  ToggleCounter *tc) {
        replayTraced(nl, w, prog, spec, tc, trace);
    };
    env.measureDuty = [&w, &prog, spec, trace](const Netlist &nl,
                                        const std::vector<GateId> &ids,
                                        std::vector<uint64_t> *high,
                                        uint64_t *cycles) {
        Trace::Scope s(trace, "verify.replay_s");
        high->assign(ids.size(), 0);
        *cycles = 0;
        Rng rng(spec.seed);
        auto per_cycle = [&](const GateSim &sim) {
            (*cycles)++;
            for (size_t k = 0; k < ids.size(); k++)
                if (sim.value(ids[k]) != Logic::Zero)
                    (*high)[k]++;
        };
        for (int i = 0; i < spec.inputs; i++) {
            WorkloadInput in = w.genInput(rng);
            runWorkloadGate(nl, w, prog, in, nullptr, nullptr,
                            per_cycle);
        }
    };
    return env;
}

FlowOptions
flowOptions()
{
    FlowOptions opts;
    opts.analysis = cappedAnalysis();
    return opts;
}

std::unique_ptr<BespokeFlow>
buildFlow(Trace *trace)
{
    Netlist core;
    {
        Trace::Scope s(trace, "cpu.build_s");
        core = buildBsp430();
    }
    return std::make_unique<BespokeFlow>(flowOptions(), std::move(core));
}

class TailorBench : public Bench
{
  public:
    bool
    setup(Trace *trace, std::string *) override
    {
        flow_ = buildFlow(trace);
        return true;
    }

    OpResult
    run(const DrawnProgram &p, Trace *trace) override
    {
        return trace ? decomposed(p.workload, trace) : plain(p.workload);
    }

    ResolvedExec
    exec() const override
    {
        const FlowOptions &o = flow_->options();
        return {resolveAnalysisThreads(o.analysis),
                resolveAnalysisLanes(o.analysis),
                resolvePlaneBits(o.planeBits), o.passes.sat.threads};
    }

  private:
    OpResult
    plain(const Workload &w)
    {
        OpResult r;
        BespokeDesign d;
        if (!flow_->tryTailor(w, &d, &r.error))
            return r;
        r.ok = true;
        r.cells = d.metrics.gates;
        r.powerUW = d.metrics.powerNominal.totalUW();
        r.criticalPathPs = d.metrics.criticalPathPs;
        r.vmin = d.metrics.vmin;
        return r;
    }

    /** tryTailor()'s stages (flow.cc) as separate layer calls. */
    OpResult
    decomposed(const Workload &w, Trace *trace)
    {
        Trace::Scope op(trace, "op.other_s");
        OpResult r;
        const FlowOptions &o = flow_->options();
        AsmProgram prog = assembleTraced(w, trace);
        AnalysisResult ar =
            analyzeTraced(flow_->baseline(), prog, o.analysis, trace);
        if (!ar.completed) {
            r.error = "analysis hit caps for " + w.name;
            return r;
        }
        ReplaySpec spec{o.powerSeed, o.powerInputsPerWorkload, o.planeBits};
        PassEnv env = replayEnv(w, prog, spec, trace);
        env.timing = &o.timing;
        env.power = &o.power;
        env.clockPeriodPs = flow_->clockPeriodPs();
        CutStats cut;
        Netlist nl;
        {
            Trace::Scope s(trace, "transform.s");
            nl = runTailorPipeline(flow_->baseline(), ar.activity.get(),
                                   o.passes, env, &cut);
        }
        Trace::count(trace, "transform.cells_cut",
                     cut.gatesBefore - cut.gatesAfter);
        {
            Trace::Scope s(trace, "timing.size_s");
            sizeForLoads(nl, o.timing);
        }
        TimingReport rep;
        {
            Trace::Scope s(trace, "timing.sta_s");
            rep = analyzeTiming(nl, o.timing);
        }
        ToggleCounter toggles(nl);
        AsmProgram replay_prog = assembleTraced(w, trace);
        replayTraced(nl, w, replay_prog, spec, &toggles, trace);
        PowerReport power;
        {
            Trace::Scope s(trace, "power.model_s");
            power = computePower(nl, toggles, o.power, o.timing);
        }
        r.ok = true;
        r.cells = nl.numCells();
        r.powerUW = power.totalUW();
        r.criticalPathPs = rep.criticalPathPs;
        r.vmin = vminForPeriod(rep.criticalPathPs, flow_->clockPeriodPs(),
                               o.timing);
        return r;
    }

    std::unique_ptr<BespokeFlow> flow_;
};

class ProveBench : public Bench
{
  public:
    bool
    setup(Trace *trace, std::string *) override
    {
        // bench/sat_recovery proves over the unsized core.
        Trace::Scope s(trace, "cpu.build_s");
        core_ = buildBsp430();
        return true;
    }

    OpResult
    run(const DrawnProgram &p, Trace *trace) override
    {
        Trace::Scope op(trace, "op.other_s");
        OpResult r;
        const Workload &w = p.workload;
        AsmProgram prog = assembleTraced(w, trace);
        AnalysisResult ar =
            analyzeTraced(core_, prog, analysisOptions(), trace);
        if (!ar.completed) {
            r.error = "analysis hit caps for " + w.name;
            return r;
        }
        PassEnv env = replayEnv(
            w, prog, {kProveReplaySeed, kProveReplayInputs, 0}, trace);
        PassPipelineOptions popts;
        popts.satNeverToggle = true;
        popts.sat.depth = kProveDepth;
        CutStats cut;
        PipelineReport report;
        Netlist nl;
        double replay_before = Trace::total(trace, "verify.replay_s");
        {
            Trace::Scope s(trace, "transform.s");
            nl = runTailorPipeline(core_, ar.activity.get(), popts, env,
                                   &cut, &report);
        }
        // The SAT pass runs inside the pipeline and reports its wall
        // time in the pass stats; the activity replay it requests (the
        // pipeline's only replay) is a span of its own.
        double replay_s =
            Trace::total(trace, "verify.replay_s") - replay_before;
        for (const PassStats &ps : report.passes) {
            if (ps.name == "sat-never-toggle") {
                Trace::shift(trace, "transform.s", "sat.s",
                             ps.wallMs / 1000.0 - replay_s);
            }
        }
        Trace::count(trace, "transform.cells_cut",
                     cut.gatesBefore - cut.gatesAfter);
        Trace::count(trace, "sat.candidates", report.satCandidates);
        Trace::count(trace, "sat.proven", report.satProven);
        Trace::count(trace, "sat.refuted", report.satRefuted);
        Trace::count(trace, "sat.unknown", report.satUnknown);
        Trace::count(trace, "sat.conflicts", report.satConflicts);
        Trace::count(trace, "sat.propagations", report.satPropagations);
        Trace::count(trace, "sat.restarts", report.satRestarts);
        r.ok = true;
        r.cells = nl.numCells();
        r.satCandidates = report.satCandidates;
        r.satProven = report.satProven;
        r.satRefuted = report.satRefuted;
        r.satUnknown = report.satUnknown;
        r.satConflicts = report.satConflicts;
        r.satPropagations = report.satPropagations;
        return r;
    }

    ResolvedExec
    exec() const override
    {
        AnalysisOptions a = analysisOptions();
        return {resolveAnalysisThreads(a), resolveAnalysisLanes(a),
                resolvePlaneBits(0), PassPipelineOptions{}.sat.threads};
    }

  private:
    /** bench/sat_recovery's reduced-precision analysis. */
    static AnalysisOptions
    analysisOptions()
    {
        AnalysisOptions a = cappedAnalysis();
        a.laneWidth = 64;
        a.concreteVisits = 1;
        return a;
    }

    Netlist core_;
};

class VerifyBench : public Bench
{
  public:
    bool
    setup(Trace *trace, std::string *err) override
    {
        flow_ = buildFlow(trace);
        const std::vector<Workload> &apps = workloads();
        designs_.resize(apps.size());
        for (size_t a = 0; a < apps.size(); a++) {
            if (!flow_->tryTailor(apps[a], &designs_[a], err))
                return false;
        }
        return true;
    }

    OpResult
    run(const DrawnProgram &p, Trace *trace) override
    {
        Trace::Scope op(trace, "op.other_s");
        OpResult r;
        const BespokeDesign &d = designs_[p.app];
        r.cells = d.netlist.numCells();
        AnalysisOptions caps = cappedAnalysis();
        AsmProgram prog = assembleTraced(p.workload, trace);

        AnalysisResult ar =
            analyzeTraced(flow_->baseline(), prog, caps, trace);
        if (!ar.completed) {
            r.error = "support analysis hit caps for " + p.name;
            return r;
        }
        {
            Trace::Scope s(trace, "mutation.support_s");
            r.supported = mutantSupported(*d.analysis.activity,
                                          *ar.activity);
        }

        EquivResult eq;
        {
            Trace::Scope s(trace, "bespoke.equiv_s");
            eq = checkSymbolicEquivalence(flow_->baseline(), d.netlist,
                                          prog, caps);
        }
        Trace::count(trace, "bespoke.equiv_paths", eq.pathsExplored);
        Trace::count(trace, "bespoke.equiv_cycles", eq.cyclesChecked);
        Trace::count(trace, "bespoke.equiv_outputs", eq.outputsCompared);
        if (!eq.completed) {
            r.error = "equivalence check hit caps for " + p.name;
            return r;
        }
        r.symEquivalent = eq.equivalent;

        // The `bespoke_io tailor --verify` miter settings.
        sat::SatEquivOptions so;
        so.conflictBudget = 200000;
        sat::SatEquivResult sr;
        {
            Trace::Scope s(trace, "sat.miter_s");
            sr = sat::proveEquivalentSat(flow_->baseline(), d.netlist,
                                         prog, so);
        }
        Trace::count(trace, "sat.miter_vars", sr.vars);
        Trace::count(trace, "sat.miter_props", sr.propagations);
        Trace::count(trace, "sat.miter_queries", sr.queries);
        r.miter = sr.verdict;
        r.ok = true;
        return r;
    }

    ResolvedExec
    exec() const override
    {
        AnalysisOptions a = cappedAnalysis();
        return {resolveAnalysisThreads(a), resolveAnalysisLanes(a),
                resolvePlaneBits(0), sat::SatEquivOptions{}.threads};
    }

  private:
    std::unique_ptr<BespokeFlow> flow_;
    std::vector<BespokeDesign> designs_;
};

} // namespace

AnalysisOptions
cappedAnalysis()
{
    AnalysisOptions a;
    a.maxTotalCycles = 4'000'000;
    a.maxPaths = 40'000;
    return a;
}

std::unique_ptr<Bench>
makeBench(const std::string &workload)
{
    if (workload == "tailor")
        return std::make_unique<TailorBench>();
    if (workload == "prove")
        return std::make_unique<ProveBench>();
    if (workload == "verify")
        return std::make_unique<VerifyBench>();
    return nullptr;
}

std::string
verifyRuleViolation(const OpResult &r)
{
    if (r.supported && !r.symEquivalent)
        return "supported but not symbolically equivalent";
    if (r.symEquivalent &&
        r.miter == sat::SatEquivVerdict::NotEquivalent)
        return "symbolically equivalent but the SAT miter found a "
               "confirmed divergence";
    return "";
}

std::string
fidelityMismatch(const OpResult &a, const OpResult &b)
{
    auto differs = [](auto x, auto y, const char *what) {
        return x == y ? std::string()
                      : std::string(what) + " differs; ";
    };
    std::string m = differs(a.ok, b.ok, "ok") +
                    differs(a.error, b.error, "error") +
                    differs(a.cells, b.cells, "cells") +
                    differs(a.powerUW, b.powerUW, "power") +
                    differs(a.criticalPathPs, b.criticalPathPs,
                            "critical path") +
                    differs(a.vmin, b.vmin, "vmin") +
                    differs(a.satCandidates, b.satCandidates,
                            "sat candidates") +
                    differs(a.satProven, b.satProven, "sat proven") +
                    differs(a.satRefuted, b.satRefuted, "sat refuted") +
                    differs(a.satUnknown, b.satUnknown, "sat unknown") +
                    differs(a.satConflicts, b.satConflicts,
                            "sat conflicts") +
                    differs(a.satPropagations, b.satPropagations,
                            "sat propagations") +
                    differs(a.supported, b.supported, "supported") +
                    differs(a.symEquivalent, b.symEquivalent,
                            "symbolic verdict") +
                    differs(a.miter, b.miter, "miter verdict");
    return m;
}

} // namespace perfbench
