/**
 * @file
 * Tests for the path-exploration engine behind analyzeActivity():
 *
 *  - the exploration is deterministic: the path/cycle/fork/merge
 *    counters, frontier peak and fork depth of the 64-wide batch
 *    schedule are pinned, and the untoggled-cell counts equal those of
 *    the monolithic AnalysisEngine before the decomposition;
 *  - the bit-plane lane evaluator yields the reference evaluator's
 *    untoggled-cell set;
 *  - exploration caps produce completed=false with a still-usable
 *    (conservative) tracker;
 *  - the observability fields are internally consistent.
 */

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/mutation/mutation.hh"

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
analyze(const Workload &w, AnalysisOptions opts = {})
{
    return analyzeActivity(core(), w, opts);
}

AnalysisResult
analyze(const char *workload, AnalysisOptions opts = {})
{
    return analyze(workloadByName(workload), opts);
}

/** The generated mutant of `app` named `name`. */
Workload
mutantByName(const char *app, const std::string &name)
{
    for (Mutant &m : generateMutants(workloadByName(app))) {
        if (m.workload.name == name)
            return std::move(m.workload);
    }
    ADD_FAILURE() << "no mutant " << name;
    return workloadByName(app);
}

/**
 * Golden counters of the batch schedule (identical at both lane
 * evaluators). The untoggled counts of the base programs were captured
 * from the serial engine before the decomposition and have never
 * moved.
 */
struct Golden
{
    const char *app;
    const char *mutant;  ///< nullptr: the base program itself
    uint64_t paths, cycles, forks, merges, frontierPeak;
    uint32_t maxForkDepth;
    size_t untoggled;
};

constexpr Golden kGolden[] = {
    {"div", nullptr, 220, 3119, 105, 25, 20, 25, 3708},
    {"tHold", nullptr, 483, 8843, 233, 78, 5, 48, 3537},
    {"rle", nullptr, 354, 5925, 146, 92, 20, 35, 1424},
    {"binSearch", nullptr, 65, 1269, 32, 0, 6, 10, 3747},
    {"intFilt", nullptr, 1, 2265, 0, 0, 1, 0, 3101},
    // Its toggle set once moved with the analysis thread count.
    {"inSort", "inSort-mut10-rla2rra", 358, 9530, 159, 60, 13, 35, 1293},
};

TEST(AnalysisParallel, SerialMatchesPreRefactorGolden)
{
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.mutant ? g.mutant : g.app);
        AnalysisResult r = analyze(
            g.mutant ? mutantByName(g.app, g.mutant) : workloadByName(g.app));
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.pathsExplored, g.paths);
        EXPECT_EQ(r.cyclesSimulated, g.cycles);
        EXPECT_EQ(r.forks, g.forks);
        EXPECT_EQ(r.merges, g.merges);
        EXPECT_EQ(r.frontierPeak, g.frontierPeak);
        EXPECT_EQ(r.maxForkDepth, g.maxForkDepth);
        EXPECT_EQ(r.untoggledCells(), g.untoggled);
    }
}

TEST(AnalysisParallel, LaneBatchedMatchesSerialUntoggledSet)
{
    // The bit-plane evaluator keeps the toggle fixpoint of the
    // reference scalar evaluator (every counter matches too, see
    // tests/test_analysis_evaluators.cc).
    for (const char *name : {"div", "tHold", "rle", "binSearch"}) {
        SCOPED_TRACE(name);
        AnalysisOptions ref;
        ref.laneWidth = 1;
        AnalysisResult serial = analyze(name, ref);
        ASSERT_TRUE(serial.completed);
        AnalysisOptions opts;
        opts.laneWidth = 64;
        AnalysisResult lane = analyze(name, opts);
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

TEST(AnalysisParallel, PathCapYieldsIncompleteButUsableResult)
{
    AnalysisResult full = analyze("div");
    AnalysisOptions opts;
    opts.maxPaths = 20;  // div needs 220
    AnalysisResult r = analyze("div", opts);
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

TEST(AnalysisParallel, CycleCapYieldsIncompleteResult)
{
    // div (3119 cycles) runs out in a lane sweep; intFilt (one path of
    // 2265 cycles) runs out inside its only path with nothing queued,
    // which must not read as a clean finish.
    for (const char *name : {"div", "intFilt"}) {
        SCOPED_TRACE(name);
        AnalysisOptions opts;
        opts.maxTotalCycles = 500;
        AnalysisResult r = analyze(name, opts);
        EXPECT_FALSE(r.completed);
        ASSERT_NE(r.activity, nullptr);
        EXPECT_TRUE(r.activity->initialCaptured());
    }
}

TEST(AnalysisParallel, ObservabilityFieldsAreConsistent)
{
    AnalysisResult r = analyze("div");
    EXPECT_GT(r.frontierPeak, 0u);
    EXPECT_GT(r.maxForkDepth, 0u);  // div forks 105 times
    // Every lane-cycle is a simulated cycle (the rest ran on the scalar
    // path machinery), and one sweep advances at most 64 lanes.
    EXPECT_GT(r.laneCycles, 0u);
    EXPECT_LE(r.laneCycles, r.cyclesSimulated);
    EXPECT_LE(r.laneCycles, r.laneSweeps * 64);
}

} // namespace
} // namespace bespoke
