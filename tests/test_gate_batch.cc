/**
 * @file
 * Bit-identity pin for the lane-batched gate runner: every result and
 * toggle counter of runScenarioGateBatch / runWorkloadGateBatch must
 * equal running the same scenarios through runWorkloadGate
 * sequentially with the same counters — across chunk
 * boundaries, for halting and cycle-exhausted runs, for
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
 * Golden reference: sequential runWorkloadGate, the `counted`
 * scenarios each into a private counter and every other scenario into
 * one shared counter. Written independently of the batch runner's own
 * scalar fallback so both paths are pinned against it.
 */
BatchResult
runReference(const Netlist &nl, const Workload &w,
             const std::vector<GateScenario> &scenarios,
             const std::vector<int> &counted)
{
    BatchResult r;
    ToggleCounter shared(nl);
    std::vector<std::unique_ptr<ToggleCounter>> per;
    for (size_t i = 0; i < scenarios.size(); i++)
        per.push_back(std::make_unique<ToggleCounter>(nl));

    auto ctx = SocContext::make(nl);
    for (size_t i = 0; i < scenarios.size(); i++) {
        const GateScenario &s = scenarios[i];
        bool mine = std::find(counted.begin(), counted.end(),
                              static_cast<int>(i)) != counted.end();
        r.runs.push_back(runWorkloadGate(nl, w, *s.prog, *s.input,
                                         mine ? per[i].get() : &shared,
                                         nullptr, nullptr, ctx));
    }
    r.sharedCounts = countsOf(shared, nl);
    r.sharedCycles = shared.cycles();
    for (int i : counted) {
        r.perScenarioCounts.push_back(countsOf(*per[i], nl));
        r.perScenarioCycles.push_back(per[i]->cycles());
    }
    return r;
}

/** The batch runner under test, same counter assignment. */
BatchResult
runBatch(const Netlist &nl, const Workload &w,
         std::vector<GateScenario> scenarios,
         const std::vector<int> &counted)
{
    BatchResult r;
    ToggleCounter shared(nl);
    std::vector<std::unique_ptr<ToggleCounter>> per;
    for (size_t i = 0; i < scenarios.size(); i++)
        per.push_back(std::make_unique<ToggleCounter>(nl));
    for (GateScenario &s : scenarios)
        s.toggles = &shared;
    for (int i : counted)
        scenarios[i].toggles = per[i].get();

    r.runs = runScenarioGateBatch(nl, w, scenarios);

    r.sharedCounts = countsOf(shared, nl);
    r.sharedCycles = shared.cycles();
    for (int i : counted) {
        r.perScenarioCounts.push_back(countsOf(*per[i], nl));
        r.perScenarioCycles.push_back(per[i]->cycles());
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

/** The one plane width, whatever a caller asks for. */
TEST(GateBatch, ResolvePlaneBits)
{
    for (int bits : {0, 64, 99, 128, 256, 512})
        EXPECT_EQ(resolvePlaneBits(bits), 64) << bits;
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
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted));
}

/**
 * More scenarios than one 64-lane plane holds: two chunks, pinning the
 * cross-chunk boundary replay on the shared counter and the lane
 * placement of the second chunk. The cycle budget is capped so every
 * run retires by exhaustion.
 */
TEST(GateBatch, MatchesScalarAcrossChunksAndWords)
{
    const Netlist &nl = cpuNetlist();
    Workload w = workloadByName("intAVG");
    w.maxCycles = 300;
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, 70, 7);
    auto scenarios = scenariosOf(prog, inputs);
    std::vector<int> counted = {0, 63, 65, 69};  // straddle the chunks

    BatchResult ref = runReference(nl, w, scenarios, counted);
    for (const GateRun &r : ref.runs)
        ASSERT_FALSE(r.halted);
    expectBatchEqual(ref, runBatch(nl, w, scenarios, counted));
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
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {2}));
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
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {0, 1}));
}

/** Batches below kMinLaneBatch take the scalar fallback — and still
 *  honor shared and private toggle counters. */
TEST(GateBatch, SmallBatchFallsBackToScalar)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, kMinLaneBatch - 1, 3);
    auto scenarios = scenariosOf(prog, inputs);

    BatchResult ref = runReference(nl, w, scenarios, {0, 2});
    expectBatchEqual(ref, runBatch(nl, w, scenarios, {0, 2}));
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
    runWorkloadGateBatch(nl, w, prog, rest, &got, ctx);

    EXPECT_EQ(countsOf(ref, nl), countsOf(got, nl));
    EXPECT_EQ(ref.cycles(), got.cycles());
}

/** Batch results with no counters at all still match: a batch of
 *  kMinLaneBatch + 1 runs the lane path with no toggle accounting. */
TEST(GateBatch, NoObservers)
{
    const Netlist &nl = cpuNetlist();
    const Workload &w = workloadByName("intFilt");
    AsmProgram prog = w.assembleProgram();
    auto inputs = genInputs(w, kMinLaneBatch + 1, 77);

    std::vector<GateRun> ref;
    for (const WorkloadInput &in : inputs)
        ref.push_back(runWorkloadGate(nl, w, prog, in));
    expectRunsEqual(ref, runWorkloadGateBatch(nl, w, prog, inputs));
}

} // namespace
} // namespace bespoke
