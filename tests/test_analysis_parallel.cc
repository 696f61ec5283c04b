/**
 * @file
 * Tests for the parallel path-exploration engine behind
 * analyzeActivity():
 *
 *  - threads=1 is deterministic: the path/cycle/fork/merge counters of
 *    the 64-wide batch schedule are pinned, and the untoggled-cell
 *    counts equal those of the monolithic AnalysisEngine before the
 *    decomposition;
 *  - threads>1 yields the identical untoggled-cell set (the widening
 *    fixpoint is schedule-independent on these workloads);
 *  - exploration caps produce completed=false with a still-usable
 *    (conservative) tracker, on one thread and on many;
 *  - the observability fields are internally consistent.
 */

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"

namespace bespoke
{
namespace
{

const Netlist &
core()
{
    static Netlist nl = buildBsp430();
    return nl;
}

AnalysisResult
analyze(const char *workload, int threads, AnalysisOptions opts = {})
{
    opts.threads = threads;
    return analyzeActivity(core(), workloadByName(workload), opts);
}

/**
 * Golden counters of the one-worker batch schedule (identical at both
 * lane evaluators). The untoggled counts were captured from the serial
 * engine before the decomposition and have never moved.
 */
struct Golden
{
    const char *workload;
    uint64_t paths, cycles, forks, merges;
    size_t untoggled;
};

constexpr Golden kGolden[] = {
    {"div", 220, 3119, 105, 25, 3708},
    {"tHold", 483, 8843, 233, 78, 3537},
    {"rle", 354, 5925, 146, 92, 1424},
    {"binSearch", 65, 1269, 32, 0, 3747},
    {"intFilt", 1, 2265, 0, 0, 3101},
};

TEST(AnalysisParallel, SerialMatchesPreRefactorGolden)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.workload);
        AnalysisResult r = analyze(g.workload, 1);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.pathsExplored, g.paths);
        EXPECT_EQ(r.cyclesSimulated, g.cycles);
        EXPECT_EQ(r.forks, g.forks);
        EXPECT_EQ(r.merges, g.merges);
        EXPECT_EQ(r.untoggledCells(), g.untoggled);
        EXPECT_EQ(r.threadsUsed, 1);
    }
}

TEST(AnalysisParallel, ThreadedMatchesSerialUntoggledSet)
{
    // tHold and rle exercise the widening tables the hardest (44 and
    // 24 merges); div is fork-heavy with almost no widening.
    for (const char *name : {"div", "tHold", "rle"}) {
        SCOPED_TRACE(name);
        AnalysisResult serial = analyze(name, 1);
        ASSERT_TRUE(serial.completed);
        for (int threads : {2, 8}) {
            SCOPED_TRACE(threads);
            AnalysisResult par = analyze(name, threads);
            ASSERT_TRUE(par.completed);
            EXPECT_EQ(par.threadsUsed, threads);
            for (GateId i = 0; i < core().size(); i++) {
                ASSERT_EQ(par.activity->toggled(i),
                          serial.activity->toggled(i))
                    << "gate " << i;
                if (!serial.activity->toggled(i)) {
                    // The proven constant must agree too.
                    ASSERT_EQ(par.activity->initialValue(i),
                              serial.activity->initialValue(i))
                        << "gate " << i;
                }
            }
        }
    }
}

TEST(AnalysisParallel, LaneBatchedMatchesSerialUntoggledSet)
{
    // The bit-plane evaluator keeps the toggle fixpoint of the
    // reference scalar evaluator on one worker (where every counter
    // matches too, see tests/test_analysis_evaluators.cc) and on four,
    // where workers race on the widening tables.
    for (const char *name : {"div", "tHold", "rle", "binSearch"}) {
        SCOPED_TRACE(name);
        AnalysisOptions ref;
        ref.laneWidth = 1;
        AnalysisResult serial = analyze(name, 1, ref);
        ASSERT_TRUE(serial.completed);
        for (int threads : {1, 4}) {
            SCOPED_TRACE(threads);
            AnalysisOptions opts;
            opts.laneWidth = 64;
            AnalysisResult lane = analyze(name, threads, opts);
            ASSERT_TRUE(lane.completed);
            EXPECT_EQ(lane.lanesUsed, 64);
            EXPECT_GT(lane.gatesEvaluated, 0u);
            for (GateId i = 0; i < core().size(); i++) {
                ASSERT_EQ(lane.activity->toggled(i),
                          serial.activity->toggled(i))
                    << "gate " << i;
                if (!serial.activity->toggled(i)) {
                    ASSERT_EQ(lane.activity->initialValue(i),
                              serial.activity->initialValue(i))
                        << "gate " << i;
                }
            }
        }
    }
}

TEST(AnalysisParallel, PathCapYieldsIncompleteButUsableResult)
{
    AnalysisResult full = analyze("div", 1);
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        AnalysisOptions opts;
        opts.maxPaths = 20;  // div needs 220
        AnalysisResult r = analyze("div", threads, opts);
        EXPECT_FALSE(r.completed);
        EXPECT_LE(r.pathsExplored, opts.maxPaths);
        ASSERT_NE(r.activity, nullptr);
        EXPECT_TRUE(r.activity->initialCaptured());
        // The partial result is conservative: it can only claim MORE
        // untoggled gates than the full exploration, never a gate the
        // full exploration proves toggleable... in the other direction:
        // anything the capped run saw toggle really does toggle.
        for (GateId i = 0; i < core().size(); i++) {
            if (r.activity->toggled(i)) {
                EXPECT_TRUE(full.activity->toggled(i)) << "gate " << i;
            }
        }
        EXPECT_GE(r.untoggledCells(), full.untoggledCells());
    }
}

TEST(AnalysisParallel, CycleCapYieldsIncompleteResult)
{
    for (int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        AnalysisOptions opts;
        opts.maxTotalCycles = 500;  // div needs 3119
        AnalysisResult r = analyze("div", threads, opts);
        EXPECT_FALSE(r.completed);
        ASSERT_NE(r.activity, nullptr);
        EXPECT_TRUE(r.activity->initialCaptured());
    }
}

TEST(AnalysisParallel, ObservabilityFieldsAreConsistent)
{
    for (int threads : {1, 2, 3}) {
        SCOPED_TRACE(threads);
        AnalysisResult r = analyze("div", threads);
        EXPECT_EQ(r.threadsUsed, threads);
        EXPECT_GT(r.frontierPeak, 0u);
        EXPECT_GT(r.maxForkDepth, 0u);  // div forks 90 times
        ASSERT_EQ(r.workerStats.size(),
                  static_cast<size_t>(threads));
        uint64_t paths = 0, cycles = 0;
        for (const WorkerStats &ws : r.workerStats) {
            paths += ws.pathsExplored;
            cycles += ws.cyclesSimulated;
        }
        EXPECT_EQ(paths, r.pathsExplored);
        EXPECT_EQ(cycles, r.cyclesSimulated);
    }
}

} // namespace
} // namespace bespoke
