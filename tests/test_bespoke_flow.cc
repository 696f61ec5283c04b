/**
 * @file
 * Integration tests of the end-to-end bespoke flow: tailored designs
 * shrink, still execute their application exactly (ISS cross-check and
 * symbolic equivalence), multi-application designs contain their
 * members' designs, and the coarse-grained module baseline is never
 * smaller than the fine-grained design.
 */

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/mutation/mutation.hh"
#include "src/sat/equiv_prover.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

BespokeFlow &
flow()
{
    static BespokeFlow f = [] {
        FlowOptions opts;
        opts.powerInputsPerWorkload = 1;
        return BespokeFlow(opts);
    }();
    return f;
}

TEST(BespokeFlow, TailoredDesignShrinksAndStillRuns)
{
    for (const char *name : {"div", "binSearch", "convEn"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign d = flow().tailor(w);
        DesignMetrics base = flow().measureBaseline({&w});

        EXPECT_LT(d.metrics.gates, base.gates) << name;
        EXPECT_LT(d.metrics.areaUm2, base.areaUm2) << name;
        EXPECT_LT(d.metrics.powerNominal.totalUW(),
                  base.powerNominal.totalUW())
            << name;
        // No performance cost: same clock, and the design still meets
        // it (slack can only be exposed, never lost).
        EXPECT_LE(d.metrics.criticalPathPs, flow().clockPeriodPs())
            << name;

        AsmProgram prog = w.assembleProgram();
        Rng rng(17);
        for (int t = 0; t < 2; t++) {
            WorkloadInput in = w.genInput(rng);
            IssRun ir = runWorkloadIss(w, in);
            GateRun gr = runWorkloadGate(d.netlist, w, prog, in);
            RunDiff diff = compareRuns(ir, gr, w);
            EXPECT_TRUE(diff.ok) << name << ": " << diff.detail;
            // Identical cycle count: zero performance degradation.
            GateRun gr_base =
                runWorkloadGate(flow().baseline(), w, prog, in);
            EXPECT_EQ(gr.cycles, gr_base.cycles) << name;
        }
    }
}

TEST(BespokeFlow, SymbolicEquivalenceOfTailoredDesigns)
{
    for (const char *name : {"intAVG", "mult"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign d = flow().tailor(w);
        AsmProgram prog = w.assembleProgram();
        EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                                  d.netlist, prog);
        EXPECT_TRUE(eq.equivalent) << name << ": " << eq.firstMismatch;
        EXPECT_TRUE(eq.completed) << name;
        EXPECT_GT(eq.outputsCompared, 1000u) << name;
    }
}

TEST(BespokeFlow, ScheduleSensitiveMutantCutsProveEquivalent)
{
    // The 64-wide batch schedule proves 22 (binSearch) and 13 (inSort)
    // more gates constant on these mutants than the earlier depth-first
    // schedule did. Both independent equivalence engines must accept
    // the designs cut on those larger constant sets.
    const std::pair<const char *, const char *> mutants[] = {
        {"binSearch", "binSearch-mut3-rra2rla"},
        {"inSort", "inSort-mut10-rla2rra"},
    };
    for (auto [app, name] : mutants) {
        SCOPED_TRACE(name);
        std::vector<Mutant> all = generateMutants(workloadByName(app));
        auto it = std::find_if(all.begin(), all.end(), [&](const Mutant &m) {
            return m.workload.name == name;
        });
        ASSERT_NE(it, all.end());
        const Workload &w = it->workload;
        BespokeDesign d = flow().tailor(w);
        AsmProgram prog = w.assembleProgram();

        EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                                  d.netlist, prog);
        EXPECT_TRUE(eq.equivalent) << eq.firstMismatch;
        EXPECT_TRUE(eq.completed);

        sat::SatEquivResult smt = sat::proveEquivalentSat(
            flow().baseline(), d.netlist, prog, sat::SatEquivOptions{});
        EXPECT_EQ(smt.verdict, sat::SatEquivVerdict::Equivalent)
            << smt.detail;
    }
}

TEST(BespokeFlow, MultiAppDesignCoversMembers)
{
    const Workload &a = workloadByName("div");
    const Workload &b = workloadByName("tHold");
    BespokeDesign da = flow().tailor(a);
    BespokeDesign db = flow().tailor(b);
    BespokeDesign dm = flow().tailorMulti({&a, &b});

    // Union design is at least as large as each member and no larger
    // than the baseline.
    EXPECT_GE(dm.metrics.gates,
              std::max(da.metrics.gates, db.metrics.gates));
    EXPECT_LE(dm.metrics.gates, flow().baseline().numCells());

    // It runs BOTH applications correctly.
    Rng rng(5);
    for (const Workload *w : {&a, &b}) {
        AsmProgram prog = w->assembleProgram();
        WorkloadInput in = w->genInput(rng);
        IssRun ir = runWorkloadIss(*w, in);
        GateRun gr = runWorkloadGate(dm.netlist, *w, prog, in);
        RunDiff diff = compareRuns(ir, gr, *w);
        EXPECT_TRUE(diff.ok) << w->name << ": " << diff.detail;
    }
}

TEST(BespokeFlow, CoarseNeverSmallerThanFine)
{
    for (const char *name : {"binSearch", "tea8"}) {
        const Workload &w = workloadByName(name);
        BespokeDesign fine = flow().tailor(w);
        BespokeDesign coarse = flow().tailorCoarse(w);
        EXPECT_GE(coarse.metrics.gates, fine.metrics.gates) << name;
        EXPECT_GE(coarse.metrics.areaUm2, fine.metrics.areaUm2)
            << name;
        // The coarse design must also still run the application.
        AsmProgram prog = w.assembleProgram();
        Rng rng(23);
        WorkloadInput in = w.genInput(rng);
        IssRun ir = runWorkloadIss(w, in);
        GateRun gr = runWorkloadGate(coarse.netlist, w, prog, in);
        EXPECT_TRUE(compareRuns(ir, gr, w).ok) << name;
    }
}

TEST(BespokeFlow, VminNeverAboveNominalAndSlackConsistent)
{
    const Workload &w = workloadByName("binSearch");
    BespokeDesign d = flow().tailor(w);
    EXPECT_LE(d.metrics.vmin, 1.0);
    EXPECT_GE(d.metrics.vmin, 0.5);
    EXPECT_GE(d.metrics.slackFraction, 0.0);
    EXPECT_LE(d.metrics.powerAtVmin.totalUW(),
              d.metrics.powerNominal.totalUW());
}

TEST(BespokeFlow, EquivalenceCheckerDetectsRealDifferences)
{
    // Negative test: tailor to app A but check equivalence against a
    // DIFFERENT app whose execution needs gates A never uses. The
    // checker must flag non-equivalence (or at minimum not certify
    // equivalence with full completion and zero mismatches while the
    // designs produce different known outputs).
    const Workload &a = workloadByName("binSearch");
    const Workload &b = workloadByName("mult");
    BespokeDesign da = flow().tailor(a);
    AsmProgram prog_b = b.assembleProgram();
    EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                              da.netlist, prog_b);
    EXPECT_FALSE(eq.equivalent && eq.completed)
        << "binSearch-tailored core cannot be equivalent to the "
           "baseline when running mult";
}

} // namespace
} // namespace bespoke
