/**
 * @file
 * Tests for parallelFor, the benches' fan-out (bench/bench_common.hh):
 * every index runs exactly once at any width, width 1 stays on the
 * caller's thread, the width is clamped to the task count, and the
 * library's tailoring steps give the same answers when several apps
 * run at once as when they run one after another. Under
 * -fsanitize=thread the last case is the race check for everything the
 * benches run concurrently: analysis, power replay and the SAT pass.
 */

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/power/power_model.hh"
#include "src/sim/gate_sim.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

TEST(ParallelFor, EveryIndexRunsOnce)
{
    for (int width : {0, 1, 2, 4}) {
        for (size_t n : {size_t{0}, size_t{1}, size_t{200}}) {
            SCOPED_TRACE(testing::Message()
                         << "width " << width << ", n " << n);
            std::vector<std::atomic<int>> calls(n);
            parallelFor(n, width, [&](size_t i) { calls[i].fetch_add(1); });
            for (size_t i = 0; i < n; i++)
                EXPECT_EQ(calls[i].load(), 1) << "index " << i;
        }
    }
}

TEST(ParallelFor, DefaultWidthUsesAtMostOneThreadPerCore)
{
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    std::mutex m;
    std::set<std::thread::id> ids;
    std::atomic<int> count{0};
    parallelFor(200, 0, [&](size_t) {
        count.fetch_add(1);
        std::lock_guard<std::mutex> lk(m);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(count.load(), 200);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), cores);
}

TEST(ParallelFor, WidthOneRunsOnTheCaller)
{
    std::vector<std::thread::id> ran(16);
    parallelFor(ran.size(), 1,
                [&](size_t i) { ran[i] = std::this_thread::get_id(); });
    for (std::thread::id id : ran)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelFor, WidthIsClampedToTaskCount)
{
    std::mutex m;
    std::set<std::thread::id> ids;
    parallelFor(3, 64, [&](size_t) {
        std::lock_guard<std::mutex> lk(m);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 3u);
}

/** What one app's tailoring steps produce, for comparing widths. */
struct Outcome
{
    size_t untoggled = 0;
    uint64_t cycles = 0;
    std::vector<uint64_t> toggles;
    double powerUW = 0.0;
    size_t cells = 0;
    size_t proven = 0, refuted = 0, unknown = 0;
    uint64_t conflicts = 0, propagations = 0;
};

Outcome
tailor(const Netlist &core, const Workload &app)
{
    Outcome o;
    AnalysisResult ar = analyzeActivity(core, app);
    for (GateId i = 0; i < core.size(); i++) {
        if (!cellPseudo(core.gate(i).type) && !ar.activity->toggled(i))
            o.untoggled++;
    }

    AsmProgram prog = app.assembleProgram();
    PassEnv env = replayEnv({&app}, 2, 7);
    env.program = &prog;
    PassPipelineOptions opts;
    opts.satNeverToggle = true;
    opts.sat.depth = 8;
    PipelineReport report;
    Netlist nl = runTailorPipeline(core, ar.activity.get(), opts, env,
                                   nullptr, &report);
    o.cells = nl.numCells();
    o.proven = report.satProven;
    o.refuted = report.satRefuted;
    o.unknown = report.satUnknown;
    o.conflicts = report.satConflicts;
    o.propagations = report.satPropagations;

    ToggleCounter tc(nl);
    env.measureActivity(nl, &tc);
    o.cycles = tc.cycles();
    for (GateId i = 0; i < nl.size(); i++)
        o.toggles.push_back(tc.count(i));
    o.powerUW = computePower(nl, tc, PowerParams{}, TimingParams{})
                    .totalUW();
    return o;
}

TEST(ParallelFor, ConcurrentTailoringMatchesSerial)
{
    const Netlist core = buildBsp430();
    const char *names[] = {"binSearch", "div", "mult", "dbg"};
    std::vector<Outcome> serial(std::size(names)), wide(std::size(names));
    parallelFor(std::size(names), 1, [&](size_t a) {
        serial[a] = tailor(core, workloadByName(names[a]));
    });
    parallelFor(std::size(names), 4, [&](size_t a) {
        wide[a] = tailor(core, workloadByName(names[a]));
    });
    for (size_t a = 0; a < std::size(names); a++) {
        SCOPED_TRACE(names[a]);
        const Outcome &s = serial[a], &w = wide[a];
        EXPECT_GT(s.cycles, 0u);
        EXPECT_GT(s.proven + s.refuted, 0u);
        EXPECT_EQ(s.untoggled, w.untoggled);
        EXPECT_EQ(s.cycles, w.cycles);
        EXPECT_EQ(s.toggles, w.toggles);
        EXPECT_EQ(s.powerUW, w.powerUW);
        EXPECT_EQ(s.cells, w.cells);
        EXPECT_EQ(s.proven, w.proven);
        EXPECT_EQ(s.refuted, w.refuted);
        EXPECT_EQ(s.unknown, w.unknown);
        EXPECT_EQ(s.conflicts, w.conflicts);
        EXPECT_EQ(s.propagations, w.propagations);
    }
}

} // namespace
} // namespace bespoke
