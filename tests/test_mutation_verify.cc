/**
 * @file
 * Tests for the mutation engine, the mutant-support check, the oracle
 * power-gating evaluator, and the coverage-directed input generator.
 */

#include <gtest/gtest.h>

#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/gating/power_gating.hh"
#include "src/mutation/mutation.hh"
#include "src/verify/coverage_gen.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

TEST(Mutation, GeneratesAllThreeTypes)
{
    const Workload &w = workloadByName("tea8");
    std::vector<Mutant> mutants = generateMutants(w);
    EXPECT_GT(mutants.size(), 10u);
    int count[3] = {};
    for (const Mutant &m : mutants)
        count[static_cast<int>(m.type)]++;
    // tea8's loop body is full of computation ops inside one loop.
    EXPECT_GT(count[static_cast<int>(MutantType::TypeII)], 5);
    EXPECT_GT(count[static_cast<int>(MutantType::TypeIII)], 0);
}

TEST(Mutation, MutantsAssembleAndDifferFromOriginal)
{
    const Workload &w = workloadByName("div");
    AsmProgram orig = w.assembleProgram();
    for (const Mutant &m : generateMutants(w)) {
        AsmProgram mp = m.workload.assembleProgram();
        EXPECT_NE(mp.rom, orig.rom)
            << m.workload.name << " did not change the binary";
        EXPECT_EQ(mp.rom.size(), orig.rom.size());
    }
}

TEST(Mutation, LoopConditionalsClassifiedAsTypeIII)
{
    const Workload &w = workloadByName("div");
    // div's only branches are its loop condition(s).
    for (const Mutant &m : generateMutants(w)) {
        if (m.from[0] == 'j') {
            EXPECT_EQ(m.type, MutantType::TypeIII) << m.from;
        }
    }
}

TEST(Mutation, SupportIsReflexiveAndMonotone)
{
    FlowOptions opts;
    BespokeFlow flow(opts);
    const Workload &w = workloadByName("binSearch");
    AnalysisResult base = flow.analyze(w);

    // An application always supports itself.
    EXPECT_TRUE(mutantSupported(*base.activity, *base.activity));

    // A union design supports both constituents.
    AnalysisResult other = flow.analyze(workloadByName("div"));
    ActivityTracker merged = *base.activity;
    merged.mergeFrom(*other.activity);
    EXPECT_TRUE(mutantSupported(merged, *base.activity));
    EXPECT_TRUE(mutantSupported(merged, *other.activity));
}

TEST(PowerGating, OracleSavingsBoundedAndModulesIdle)
{
    Netlist nl = buildBsp430();
    sizeForLoads(nl);
    const Workload &w = workloadByName("binSearch");
    GatingResult g = evaluateOracleGating(nl, w, 1, 9);
    EXPECT_GT(g.baselineUW, 0.0);
    EXPECT_GE(g.savingsPercent(), 0.0);
    EXPECT_LT(g.savingsPercent(), 60.0);
    // binSearch never touches the multiplier: its domain idles ~100%.
    EXPECT_GT(g.idleFraction[static_cast<int>(Module::Mult)], 0.95);
    // The frontend is busy nearly every cycle.
    EXPECT_LT(g.idleFraction[static_cast<int>(Module::Frontend)], 0.3);
}

/**
 * Pins the oracle's exact numbers on a batch large enough
 * (kMinLaneBatch + 1 inputs) that the batched gate runner would take
 * its lane path. Recorded when the batch runner still counted module
 * idle cycles lane-parallel; the evaluator now replays the inputs one
 * by one on the scalar simulator and must reproduce them bit for bit.
 */
TEST(PowerGating, OracleNumbersArePinned)
{
    Netlist nl = buildBsp430();
    sizeForLoads(nl);
    GatingResult g = evaluateOracleGating(
        nl, workloadByName("binSearch"),
        static_cast<int>(kMinLaneBatch + 1), 9);
    EXPECT_EQ(g.baselineUW, 209.67375540935373);
    EXPECT_EQ(g.gatedUW, 169.4659695919751);
    const std::array<double, kNumModules> idle = {
        0, 0.12665684830633284, 0.46980854197349042,
        0.18262150220913106, 0.98821796759941094, 0.18409425625920472,
        1, 1, 0, 0.22680412371134021, 1, 1, 1};
    EXPECT_EQ(g.idleFraction, idle);
}

TEST(CoverageGen, CoversLinesAndBranches)
{
    const Workload &w = workloadByName("binSearch");
    CoverageInputs cov = generateCoverageInputs(w, 64, 8);
    EXPECT_GE(cov.inputs.size(), 2u);
    EXPECT_GT(cov.linePct, 90.0);
    EXPECT_GT(cov.branchPct, 90.0);
    EXPECT_GT(cov.branchDirPct, 60.0);
}

TEST(CoverageGen, StraightLineNeedsOneInput)
{
    const Workload &w = workloadByName("mult");
    CoverageInputs cov = generateCoverageInputs(w, 64, 4);
    EXPECT_GE(cov.inputs.size(), 1u);
    EXPECT_EQ(cov.linePct, 100.0);
}

} // namespace
} // namespace bespoke
