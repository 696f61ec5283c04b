/**
 * @file
 * Bit-identity pin for the lane-batched gate runner: every result and
 * every observer of runScenarioGateBatch / runWorkloadGateBatch must
 * equal running the same scenarios through runWorkloadGate
 * sequentially with the same shared trackers — at every plane width,
 * across chunk boundaries, for halting and cycle-exhausted runs, for
 * IRQ workloads, for per-lane program overlays, and interleaved with
 * scalar runs on the same counters.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "src/cpu/bsp430.hh"
#include "src/verify/runner.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

const Netlist &
cpuNetlist()
{
    static Netlist nl = buildBsp430();
    return nl;
}

/** Everything a batch run can produce, flattened for comparison. */
struct BatchResult
{
    std::vector<GateRun> runs;
    std::vector<uint64_t> sharedCounts;
    uint64_t sharedCycles = 0;
    std::vector<std::vector<uint64_t>> perScenarioCounts;
    std::vector<uint64_t> perScenarioCycles;
    std::vector<uint8_t> activityToggled;
    std::vector<uint8_t> activityInitial;
    ModuleIdleCounts moduleIdle;
};

std::vector<uint64_t>
countsOf(const ToggleCounter &tc, const Netlist &nl)
{
    std::vector<uint64_t> v(nl.size());
    for (GateId g = 0; g < nl.size(); g++)
        v[g] = tc.count(g);
    return v;
}

/**
 * Golden reference: sequential runWorkloadGate with shared trackers,
 * per-scenario counters and module-idle tracking through the per-cycle
 * hook (the same composition power_gating uses). Written independently
 * of the batch runner's own scalar fallback so both paths are pinned
 * against it.
 */
BatchResult
runReference(const Netlist &nl, const Workload &w,
             const std::vector<GateScenario> &scenarios,
             const std::vector<int> &counted)
{
    BatchResult r;
    ToggleCounter shared(nl);
    ActivityTracker activity(nl);
    std::vector<std::unique_ptr<ToggleCounter>> per;
    for (size_t i = 0; i < scenarios.size(); i++)
        per.push_back(std::make_unique<ToggleCounter>(nl));

    auto ctx = SocContext::make(nl);
    std::vector<uint8_t> last;
    for (size_t i = 0; i < scenarios.size(); i++) {
        const GateScenario &s = scenarios[i];
        bool mine = std::find(counted.begin(), counted.end(),
                              static_cast<int>(i)) != counted.end();
        bool first = true;
        auto per_cycle = [&](const GateSim &sim) {
            if (mine)
                per[i]->observe(sim);
            const std::vector<uint8_t> &v = sim.values();
            if (first) {
                last = v;
                first = false;
                return;
            }
            bool active[kNumModules] = {};
            for (GateId g = 0; g < nl.size(); g++) {
                if (v[g] != last[g])
                    active[static_cast<int>(nl.gate(g).module)] = true;
                last[g] = v[g];
            }
            for (int m = 0; m < kNumModules; m++) {
                if (!active[m])
                    r.moduleIdle.idle[m]++;
            }
            r.moduleIdle.totalCycles++;
        };
        r.runs.push_back(runWorkloadGate(nl, w, *s.prog, *s.input,
                                         &shared, &activity, per_cycle,
                                         ctx));
    }
    r.sharedCounts = countsOf(shared, nl);
    r.sharedCycles = shared.cycles();
    for (int i : counted) {
        r.perScenarioCounts.push_back(countsOf(*per[i], nl));
        r.perScenarioCycles.push_back(per[i]->cycles());
    }
    r.activityToggled.resize(nl.size());
    r.activityInitial.resize(nl.size());
    for (GateId g = 0; g < nl.size(); g++) {
        r.activityToggled[g] = activity.toggled(g);
        r.activityInitial[g] =
            static_cast<uint8_t>(activity.initialValue(g));
    }
    return r;
}

/** The batch runner under test, same observer shape. */
BatchResult
runBatch(const Netlist &nl, const Workload &w,
         std::vector<GateScenario> scenarios,
         const std::vector<int> &counted, int plane_bits)
{
    BatchResult r;
    ToggleCounter shared(nl);
    ActivityTracker activity(nl);
    std::vector<std::unique_ptr<ToggleCounter>> per;
    for (size_t i = 0; i < scenarios.size(); i++)
        per.push_back(std::make_unique<ToggleCounter>(nl));
    for (int i : counted)
        scenarios[i].toggles = per[i].get();

    GateBatchObservers obs;
    obs.toggles = &shared;
    obs.activity = &activity;
    obs.moduleIdle = &r.moduleIdle;
    r.runs = runScenarioGateBatch(nl, w, scenarios, plane_bits, obs);

    r.sharedCounts = countsOf(shared, nl);
    r.sharedCycles = shared.cycles();
    for (int i : counted) {
        r.perScenarioCounts.push_back(countsOf(*per[i], nl));
        r.perScenarioCycles.push_back(per[i]->cycles());
    }
    r.activityToggled.resize(nl.size());
    r.activityInitial.resize(nl.size());
    for (GateId g = 0; g < nl.size(); g++) {
        r.activityToggled[g] = activity.toggled(g);
        r.activityInitial[g] =
            static_cast<uint8_t>(activity.initialValue(g));
    }
    return r;
}

void
expectRunsEqual(const std::vector<GateRun> &a,
                const std::vector<GateRun> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].halted, b[i].halted) << "run " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "run " << i;
        EXPECT_EQ(a[i].out, b[i].out) << "run " << i;
        EXPECT_EQ(a[i].gpioOut, b[i].gpioOut) << "run " << i;
        EXPECT_EQ(a[i].ram, b[i].ram) << "run " << i;
    }
}

void
expectBatchEqual(const BatchResult &ref, const BatchResult &got)
{
    expectRunsEqual(ref.runs, got.runs);
    EXPECT_EQ(ref.sharedCounts, got.sharedCounts);
    EXPECT_EQ(ref.sharedCycles, got.sharedCycles);
    ASSERT_EQ(ref.perScenarioCounts.size(),
              got.perScenarioCounts.size());
    for (size_t i = 0; i < ref.perScenarioCounts.size(); i++) {
        EXPECT_EQ(ref.perScenarioCounts[i], got.perScenarioCounts[i])
            << "per-scenario counter " << i;
        EXPECT_EQ(ref.perScenarioCycles[i], got.perScenarioCycles[i])
            << "per-scenario counter " << i;
    }
    EXPECT_EQ(ref.activityToggled, got.activityToggled);
    EXPECT_EQ(ref.activityInitial, got.activityInitial);
    EXPECT_EQ(ref.moduleIdle.idle, got.moduleIdle.idle);
    EXPECT_EQ(ref.moduleIdle.totalCycles, got.moduleIdle.totalCycles);
}

std::vector<WorkloadInput>
genInputs(const Workload &w, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<WorkloadInput> inputs;
    for (size_t i = 0; i < count; i++)
        inputs.push_back(w.genInput(rng));
    return inputs;
}

std::vector<GateScenario>
scenariosOf(const AsmProgram &prog,
            const std::vector<WorkloadInput> &inputs)
{
    std::vector<GateScenario> s(inputs.size());
    for (size_t i = 0; i < inputs.size(); i++) {
        s[i].prog = &prog;
        s[i].input = &inputs[i];
    }
    return s;
}

TEST(GateBatch, ResolvePlaneBits)
{
    EXPECT_EQ(resolvePlaneBits(0), 64);
    EXPECT_EQ(resolvePlaneBits(128), 128);
    EXPECT_EQ(resolvePlaneBits(256), 256);
    EXPECT_EQ(resolvePlaneBits(512), 512);
    EXPECT_EQ(resolvePlaneBits(100), 64);  // invalid
    EXPECT_EQ(resolvePlaneBits(99), 64);
}

/** Halting runs, one chunk, per-scenario counters on a subset. */
TEST(GateBatch, MatchesScalarHaltingRuns)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 10, 42);
    auto scenarios = scenariosOf(prog, inputs);
    std::vector<int> counted = {1, 4, 7};

    BatchResult ref = runReference(nl, w, scenarios, counted);
    for (const GateRun &r : ref.runs)
        ASSERT_TRUE(r.halted);
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted, 64));
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted, 256));
}

/**
 * More scenarios than one 64-lane plane holds: two chunks at W=64
 * (pinning the cross-chunk boundary replay on the shared counter) and
 * one multi-word plane at W=128 (pinning cross-word lane placement).
 * The cycle budget is capped so every run retires by exhaustion.
 */
TEST(GateBatch, MatchesScalarAcrossChunksAndWords)
{
    const Netlist &nl = cpuNetlist();
    Workload w = workloadByName("intAVG");
    w.maxCycles = 300;
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 70, 7);
    auto scenarios = scenariosOf(prog, inputs);
    std::vector<int> counted = {0, 63, 65, 69};  // straddle the word

    BatchResult ref = runReference(nl, w, scenarios, counted);
    for (const GateRun &r : ref.runs)
        ASSERT_FALSE(r.halted);
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted, 64));
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted, 128));
}

/** IRQ workloads share the cycle-scheduled pulse across lanes. */
TEST(GateBatch, MatchesScalarIrqWorkload)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("irq");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 6, 11);
    auto scenarios = scenariosOf(prog, inputs);

    BatchResult ref = runReference(nl, w, scenarios, {2});
    for (const GateRun &r : ref.runs)
        ASSERT_TRUE(r.halted);
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {2}, 64));
}

/** Per-lane program overlays (the mutant-sweep shape). */
TEST(GateBatch, MixedProgramsPerLane)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram base = w.assembleProgram();
    AsmProgram alt =
        workloadByName("intFilt-scrambled").assembleProgram();
    auto inputs = genInputs(w, 8, 5);
    auto scenarios = scenariosOf(base, inputs);
    for (size_t i = 1; i < scenarios.size(); i += 2)
        scenarios[i].prog = &alt;

    BatchResult ref = runReference(nl, w, scenarios, {0, 1});
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {0, 1}, 64));
}

/** Batches below kMinLaneBatch take the scalar fallback — and still
 *  honor every observer. */
TEST(GateBatch, SmallBatchFallsBackToScalar)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, kMinLaneBatch - 1, 3);
    auto scenarios = scenariosOf(prog, inputs);

    BatchResult ref = runReference(nl, w, scenarios, {0, 2});
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {0, 2}, 512));
}

/**
 * A shared counter primed by a scalar run and then handed to a batch
 * sees the scalar-to-batch boundary transition, exactly as if every
 * run had gone through observe() in sequence.
 */
TEST(GateBatch, SharedCounterInterleavesWithScalarRuns)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 6, 21);
    auto ctx = SocContext::make(nl);

    ToggleCounter ref(nl);
    for (const WorkloadInput &in : inputs)
        runWorkloadGate(nl, w, prog, in, &ref, nullptr, nullptr, ctx);

    ToggleCounter got(nl);
    runWorkloadGate(nl, w, prog, inputs[0], &got, nullptr, nullptr,
                    ctx);
    std::vector<WorkloadInput> rest(inputs.begin() + 1, inputs.end());
    GateBatchObservers obs;
    obs.toggles = &got;
    runWorkloadGateBatch(nl, w, prog, rest, 64, obs, ctx);

    EXPECT_EQ(countsOf(ref, nl), countsOf(got, nl));
    EXPECT_EQ(ref.cycles(), got.cycles());
}

/** Batch results with no observers at all still match. */
TEST(GateBatch, NoObservers)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 5, 77);

    std::vector<GateRun> ref;
    for (const WorkloadInput &in : inputs)
        ref.push_back(runWorkloadGate(nl, w, prog, in));
    expectRunsEqual(ref, runWorkloadGateBatch(nl, w, prog, inputs, 64));
    expectRunsEqual(ref,
                    runWorkloadGateBatch(nl, w, prog, inputs, 512));
}

} // namespace
} // namespace bespoke
