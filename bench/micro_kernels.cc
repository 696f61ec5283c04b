/**
 * @file
 * Infrastructure microbenchmarks (google-benchmark): throughput of the
 * levelized three-valued simulator, the flow's power replay and the
 * lane-batched mutant sweep on it, the symbolic activity analysis and
 * equivalence check, STA, cutting & stitching, and two per-op fixed
 * costs (simulation prep, SAT miter encoding) on the bsp430 core.
 * These are not paper
 * results; they quantify the cost of the methodology itself (paper
 * Sec. 3.2 footnote: "complete analysis of our most complex benchmark
 * takes 3 hours" on the authors' infrastructure).
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/mutation/mutant_sweep.hh"
#include "src/mutation/mutation.hh"
#include "src/sat/equiv_prover.hh"
#include "src/sim/lane_sim.hh"
#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace
{

using namespace bespoke;

const Netlist &
core()
{
    static Netlist nl = buildBsp430();
    return nl;
}

void
BM_GateSimCycle(benchmark::State &state)
{
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    Soc soc(core(), prog, false);
    Rng rng(1);
    WorkloadInput in = w.genInput(rng);
    for (size_t i = 0; i < in.ramWords.size(); i++) {
        soc.pokeRamWord(static_cast<uint16_t>(kInputBase + 2 * i),
                        SWord::of(in.ramWords[i]));
    }
    soc.setGpioIn(SWord::of(0));
    soc.setIrqExt(Logic::Zero);
    for (auto _ : state)
        soc.cycle();
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(core().size()));
}
BENCHMARK(BM_GateSimCycle);

void
BM_PowerReplay(benchmark::State &state)
{
    // The flow's power replay (BespokeFlow::measure): the tailored
    // design run on two seeded inputs into one ToggleCounter. Items
    // are simulated cycles, so items/s is the replay's cycle rate.
    const Workload &w = workloadByName("intFilt");
    static const Netlist tailored = [&] {
        BespokeFlow flow(FlowOptions{}, buildBsp430());
        return flow.tailor(w).netlist;
    }();
    const FlowOptions opts;
    AsmProgram prog = w.assembleProgram();
    std::shared_ptr<const SocContext> ctx = SocContext::make(tailored);
    Rng rng(opts.powerSeed);
    std::vector<WorkloadInput> inputs;
    for (int i = 0; i < opts.powerInputsPerWorkload; i++)
        inputs.push_back(w.genInput(rng));
    GateBatchObservers obs;
    int64_t cycles = 0;
    for (auto _ : state) {
        ToggleCounter toggles(tailored);
        obs.toggles = &toggles;
        for (const GateRun &run : runWorkloadGateBatch(
                 tailored, w, prog, inputs, obs, ctx))
            cycles += static_cast<int64_t>(run.cycles);
        benchmark::DoNotOptimize(toggles.cycles());
    }
    state.SetItemsProcessed(cycles);
}
BENCHMARK(BM_PowerReplay)->Unit(benchmark::kMillisecond);

void
BM_MutantSweep(benchmark::State &state)
{
    // The lane runner's one production caller: table4_5_mutants'
    // concrete differential sweep at its quick settings (binSearch's
    // first 12 mutants, 2 inputs each: one 24-lane batch with a toggle
    // counter per mutant). Items are simulated lane-cycles: every
    // mutant run's cycle count under the sweep's adaptive cap, half
    // again the longest base run plus 64 cycles.
    const Workload &w = workloadByName("binSearch");
    std::vector<Mutant> mutants = generateMutants(w);
    mutants.resize(std::min<size_t>(mutants.size(), 12));
    MutantPlanePrep prep(core(), w, mutants);
    MutantSweepOptions opts;
    opts.inputsPerMutant = 2;

    Rng rng(kMutantSweepSeed);
    std::vector<WorkloadInput> inputs;
    uint64_t base_max = 0;
    for (int i = 0; i < opts.inputsPerMutant; i++) {
        inputs.push_back(w.genInput(rng));
        GateRun base = runWorkloadGate(core(), w, prep.baseProgram(),
                                       inputs.back(), nullptr, nullptr,
                                       nullptr, prep.context());
        base_max = std::max(base_max, base.cycles);
    }
    Workload capped = w;
    capped.maxCycles =
        std::min(w.maxCycles, base_max + base_max / 2 + 64);
    int64_t lane_cycles = 0;
    for (size_t i = 0; i < prep.numMutants(); i++) {
        for (const WorkloadInput &in : inputs) {
            lane_cycles += static_cast<int64_t>(
                runWorkloadGate(core(), capped, prep.mutantProgram(i), in,
                                nullptr, nullptr, nullptr, prep.context())
                    .cycles);
        }
    }

    for (auto _ : state) {
        std::vector<MutantVerdict> v = mutantConcreteSweep(prep, opts);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            lane_cycles);
}
BENCHMARK(BM_MutantSweep)->Unit(benchmark::kMillisecond);

void
BM_LaneSimCycle(benchmark::State &state)
{
    // 64 concrete scenarios per sweep on the bit-plane engine; items
    // processed counts gate*lane evaluations (items/s = gate·lane/s),
    // so items/s here vs. BM_GateSimCycle is the raw per-scenario
    // speedup of plane packing (before the event-driven engine's
    // dirty-set advantage).
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    std::shared_ptr<const SocContext> ctx = SocContext::make(core());
    LaneSoc soc(ctx, prog);
    Soc seed(ctx, prog, /*ram_unknown=*/false);
    Rng rng(1);
    WorkloadInput in = w.genInput(rng);
    for (size_t i = 0; i < in.ramWords.size(); i++) {
        seed.pokeRamWord(static_cast<uint16_t>(kInputBase + 2 * i),
                         SWord::of(in.ramWords[i]));
    }
    for (int lane = 0; lane < LaneSoc::kLanes; lane++)
        soc.loadLane(lane, seed.sim().seqState(), seed.envState(), 0);
    soc.setGpioIn(SWord::of(0));
    soc.setIrqExt(Logic::Zero);
    for (auto _ : state) {
        soc.evalOnly();
        soc.finishCycle(kAllLanes);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(core().size()) *
                            LaneSoc::kLanes);
}
BENCHMARK(BM_LaneSimCycle);

void
BM_ActivityAnalysis(benchmark::State &state)
{
    const Workload &w = workloadByName("div");
    AsmProgram prog = w.assembleProgram();
    AnalysisOptions opts;
    opts.laneWidth = static_cast<int>(state.range(0));
    setVerbose(false);  // keep the per-run info line out of the timing
    for (auto _ : state) {
        AnalysisResult r = analyzeActivity(core(), prog, opts);
        benchmark::DoNotOptimize(r.untoggledCells());
    }
}
BENCHMARK(BM_ActivityAnalysis)
    ->Args({1})   // reference scalar lane evaluator
    ->Args({64})  // bit-plane lane evaluator (the default)
    ->Unit(benchmark::kMillisecond);

void
BM_SymbolicEquivalence(benchmark::State &state)
{
    const Workload &w = workloadByName("inSort");
    AsmProgram prog = w.assembleProgram();
    // Kernel timing needs only the cut, not the flow's sizing and power.
    static const Netlist tailored = runTailorPipeline(
        core(), analyzeActivity(core(), prog).activity.get());
    AnalysisOptions opts;
    opts.laneWidth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EquivResult eq =
            checkSymbolicEquivalence(core(), tailored, prog, opts);
        benchmark::DoNotOptimize(eq.outputsCompared);
    }
}
BENCHMARK(BM_SymbolicEquivalence)
    ->Args({1})   // reference scalar lane evaluator
    ->Args({64})  // bit-plane lane evaluator (the default)
    ->Unit(benchmark::kMillisecond);

void
BM_CutAndStitch(benchmark::State &state)
{
    const Workload &w = workloadByName("binSearch");
    AsmProgram prog = w.assembleProgram();
    AnalysisResult r = analyzeActivity(core(), prog);
    for (auto _ : state) {
        // The timed kernel: the cut-and-stitch pipeline alone.
        Netlist out = runTailorPipeline(core(), r.activity.get());
        benchmark::DoNotOptimize(out.numCells());
    }
}
BENCHMARK(BM_CutAndStitch)->Unit(benchmark::kMillisecond);

void
BM_StaticTiming(benchmark::State &state)
{
    for (auto _ : state) {
        TimingReport rep = analyzeTiming(core());
        benchmark::DoNotOptimize(rep.criticalPathPs);
    }
}
BENCHMARK(BM_StaticTiming)->Unit(benchmark::kMillisecond);

void
BM_Levelize(benchmark::State &state)
{
    for (auto _ : state) {
        auto order = core().levelize();
        benchmark::DoNotOptimize(order.size());
    }
}
BENCHMARK(BM_Levelize)->Unit(benchmark::kMillisecond);

void
BM_SocContextBuild(benchmark::State &state)
{
    // The per-netlist simulation prep (levelize, level/opcode order,
    // eval program, fanout CSR, port ids) every Soc, LaneSoc and SAT
    // unroller is built on; paid several times per flow op.
    for (auto _ : state) {
        SocContext ctx(core());
        benchmark::DoNotOptimize(ctx.prep->order.size());
    }
}
BENCHMARK(BM_SocContextBuild)->Unit(benchmark::kMicrosecond);

void
BM_MiterEncode(benchmark::State &state)
{
    // The `tailor --verify` SAT miter (depth 24) of an app's tailored
    // design against the core, encoded into a clause container. On
    // intFilt every frame folds at encode time (the common case); irq's
    // free interrupt line keeps it symbolic (137 k clauses).
    const char *apps[] = {"intFilt", "irq"};
    const Workload &w = workloadByName(apps[state.range(0)]);
    AsmProgram prog = w.assembleProgram();
    setVerbose(false);
    // Kernel timing needs only the cut, not the flow's sizing and power.
    const Netlist tailored = runTailorPipeline(
        core(), analyzeActivity(core(), prog).activity.get());
    for (auto _ : state) {
        sat::Cnf cnf;
        sat::SocUnroller un(core(), prog, cnf);
        un.attachFollower(tailored);
        sat::Lit miter = sat::encodeMiter(un, core(), tailored, 24);
        benchmark::DoNotOptimize(miter);
    }
}
BENCHMARK(BM_MiterEncode)
    ->Arg(0)  // intFilt
    ->Arg(1)  // irq
    ->Unit(benchmark::kMillisecond);

void
BM_BuildCore(benchmark::State &state)
{
    for (auto _ : state) {
        Netlist nl = buildBsp430();
        benchmark::DoNotOptimize(nl.numCells());
    }
}
BENCHMARK(BM_BuildCore)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
