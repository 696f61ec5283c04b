/**
 * @file
 * The activity analysis has one exploration schedule and two lane
 * evaluators: the default bit-plane LaneSoc (laneWidth 64) and the
 * reference evaluator of 64 scalar Socs (laneWidth 1). Everything the
 * analysis reports must be a function of the program and the options,
 * never of the evaluator: the toggle set, the proven constants,
 * `completed`, the path / cycle / fork / merge counters (the cycle
 * count is the horizon the flow resolves `--sat-depth 0` to), the lane
 * sweep and lane-cycle counts, the frontier peak and the fork depth.
 * Only `gatesEvaluated` differs, since a plane visit counts once.
 *
 * Per PR this covers the 15 Table-1 programs, the two mutants whose
 * toggle sets once differed between two exploration schedules, and a
 * seeded draw of generateMutants() picks. The sweep over every
 * program (all bases and all mutants) runs when BESPOKE_NIGHTLY is
 * set (nightly workflow).
 */

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/mutation/mutation.hh"
#include "src/util/rng.hh"

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

/** The caps of the mutant studies: a divergent mutant fails fast. */
AnalysisOptions
cappedOptions(int lane_width)
{
    AnalysisOptions opts;
    opts.maxTotalCycles = 4'000'000;
    opts.maxPaths = 40'000;
    opts.laneWidth = lane_width;
    return opts;
}

void
expectSameResultAtBothEvaluators(const Workload &w)
{
    SCOPED_TRACE(w.name);
    AsmProgram prog = w.assembleProgram();
    AnalysisResult ref = analyzeActivity(core(), prog, cappedOptions(1));
    AnalysisResult planes =
        analyzeActivity(core(), prog, cappedOptions(64));
    ASSERT_EQ(ref.lanesUsed, 1);
    ASSERT_EQ(planes.lanesUsed, 64);
    EXPECT_EQ(ref.completed, planes.completed);
    EXPECT_EQ(ref.pathsExplored, planes.pathsExplored);
    EXPECT_EQ(ref.cyclesSimulated, planes.cyclesSimulated);
    EXPECT_EQ(ref.forks, planes.forks);
    EXPECT_EQ(ref.merges, planes.merges);
    EXPECT_EQ(ref.laneSweeps, planes.laneSweeps);
    EXPECT_EQ(ref.laneCycles, planes.laneCycles);
    EXPECT_EQ(ref.frontierPeak, planes.frontierPeak);
    EXPECT_EQ(ref.maxForkDepth, planes.maxForkDepth);
    for (GateId i = 0; i < core().size(); i++) {
        ASSERT_EQ(ref.activity->toggled(i), planes.activity->toggled(i))
            << "gate " << i;
        if (!ref.activity->toggled(i)) {
            ASSERT_EQ(ref.activity->initialValue(i),
                      planes.activity->initialValue(i))
                << "gate " << i;
        }
    }
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

TEST(AnalysisEvaluators, BaseProgramsIdenticalAtBothEvaluators)
{
    for (const Workload &w : workloads())
        expectSameResultAtBothEvaluators(w);
}

TEST(AnalysisEvaluators, ScheduleSensitiveMutantsIdenticalAtBothEvaluators)
{
    // Under the depth-first schedule these two explored different trees
    // than the 64-wide batch schedule and toggled 22 and 13 more gates.
    expectSameResultAtBothEvaluators(
        mutantByName("binSearch", "binSearch-mut3-rra2rla"));
    expectSameResultAtBothEvaluators(
        mutantByName("inSort", "inSort-mut10-rla2rra"));
}

TEST(AnalysisEvaluators, SeededMutantDrawIdenticalAtBothEvaluators)
{
    std::vector<Workload> all;
    for (const Workload &w : workloads()) {
        for (Mutant &m : generateMutants(w))
            all.push_back(std::move(m.workload));
    }
    Rng rng(16);
    constexpr size_t kDraw = 30;
    for (size_t j = 0; j < kDraw && j < all.size(); j++) {
        size_t i = j + rng.below(static_cast<uint32_t>(all.size() - j));
        std::swap(all[j], all[i]);
        expectSameResultAtBothEvaluators(all[j]);
    }
}

TEST(AnalysisEvaluators, AllProgramsIdenticalAtBothEvaluators)
{
    if (!std::getenv("BESPOKE_NIGHTLY"))
        GTEST_SKIP() << "the every-program sweep runs in the nightly "
                        "workflow (set BESPOKE_NIGHTLY to force)";
    for (const Workload &w : workloads()) {
        expectSameResultAtBothEvaluators(w);
        for (const Mutant &m : generateMutants(w))
            expectSameResultAtBothEvaluators(m.workload);
    }
}

} // namespace
} // namespace bespoke
