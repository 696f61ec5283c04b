/**
 * @file
 * Integration tests of the end-to-end bespoke flow: tailored designs
 * shrink, still execute their application exactly (ISS cross-check and
 * symbolic equivalence), multi-application designs contain their
 * members' designs, and the coarse-grained module baseline is never
 * smaller than the fine-grained design.
 */

#include <algorithm>
#include <regex>
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

/**
 * tailor() and a one-app tailorMulti() are the same tailoring body:
 * same netlist and metrics, with default passes and with the SAT
 * never-toggle pass (which needs the single program image).
 */
TEST(BespokeFlow, SingleAppTailorMultiMatchesTailor)
{
    FlowOptions sat_opts;
    sat_opts.powerInputsPerWorkload = 1;
    sat_opts.passes.satNeverToggle = true;
    sat_opts.passes.sat.depth = 30;
    BespokeFlow sat_flow(sat_opts);
    const Workload &app = workloadByName("rle");
    for (BespokeFlow *f : {&flow(), &sat_flow}) {
        SCOPED_TRACE(f->options().passes.satNeverToggle ? "sat"
                                                        : "default");
        BespokeDesign one = f->tailor(app);
        BespokeDesign multi = f->tailorMulti({&app});
        EXPECT_EQ(one.netlist.contentHash(), multi.netlist.contentHash());
        EXPECT_EQ(one.metrics.gates, multi.metrics.gates);
        EXPECT_EQ(one.metrics.areaUm2, multi.metrics.areaUm2);
        EXPECT_EQ(one.metrics.criticalPathPs,
                  multi.metrics.criticalPathPs);
        EXPECT_EQ(one.metrics.powerNominal.totalUW(),
                  multi.metrics.powerNominal.totalUW());
        EXPECT_EQ(one.metrics.vmin, multi.metrics.vmin);
        EXPECT_EQ(one.pipeline.satCandidates,
                  multi.pipeline.satCandidates);
    }
}

/** The design metrics the analysis-entry test compares. */
void
expectSameDesign(const Netlist &want_nl, const DesignMetrics &want,
                 const Netlist &got_nl, const DesignMetrics &got)
{
    EXPECT_EQ(want_nl.contentHash(), got_nl.contentHash());
    EXPECT_EQ(want.gates, got.gates);
    EXPECT_EQ(want.areaUm2, got.areaUm2);
    EXPECT_EQ(want.powerNominal.totalUW(), got.powerNominal.totalUW());
    EXPECT_EQ(want.vmin, got.vmin);
}

/**
 * tailorAnalysis() over a union the caller merged (fig13's per-app
 * analyses reused across combinations, fig14's app plus mutants) is
 * the hand-wired pipeline + sizing + measure, and for app unions also
 * tailorMulti().
 */
TEST(BespokeFlow, AnalysisEntryMatchesHandPipeline)
{
    // tailorMulti()'s union: the first tracker, merged in member order.
    auto merge = [](const std::vector<const AnalysisResult *> &parts) {
        AnalysisResult u;
        u.activity = std::make_unique<ActivityTracker>(*parts[0]->activity);
        u.completed = true;
        for (size_t k = 1; k < parts.size(); k++)
            u.activity->mergeFrom(*parts[k]->activity);
        return u;
    };
    auto hand = [](const ActivityTracker &t,
                   const std::vector<const Workload *> &measured,
                   Netlist *nl) {
        *nl = runTailorPipeline(flow().baseline(), &t);
        sizeForLoads(*nl, flow().options().timing);
        return flow().measure(*nl, measured);
    };

    std::vector<AnalysisResult> acts;
    std::vector<const Workload *> all;
    for (const Workload &w : workloads()) {
        acts.push_back(flow().analyze(w));
        ASSERT_TRUE(acts.back().completed) << w.name;
        all.push_back(&w);
    }
    ASSERT_EQ(all.size(), 15u);
    std::vector<std::vector<size_t>> combos = {{4}, {9, 2, 13}, {}};
    for (size_t i = 0; i < all.size(); i++)
        combos.back().push_back(i);
    for (const std::vector<size_t> &combo : combos) {
        SCOPED_TRACE(combo.size());
        std::vector<const AnalysisResult *> parts;
        std::vector<const Workload *> members;
        for (size_t i : combo) {
            parts.push_back(&acts[i]);
            members.push_back(all[i]);
        }
        AnalysisResult u = merge(parts);
        Netlist hand_nl;
        DesignMetrics hand_m = hand(*u.activity, members, &hand_nl);
        BespokeDesign entry = flow().tailorAnalysis(std::move(u), members);
        expectSameDesign(hand_nl, hand_m, entry.netlist, entry.metrics);
        BespokeDesign multi = flow().tailorMulti(members);
        expectSameDesign(hand_nl, hand_m, multi.netlist, multi.metrics);
    }

    // fig14: the app plus its completed mutant analyses, measured on
    // the app alone.
    const Workload &app = workloadByName("binSearch");
    AnalysisResult app_act = flow().analyze(app);
    std::vector<AnalysisResult> mutant_acts;
    std::vector<Mutant> mutants = generateMutants(app);
    mutants.resize(std::min<size_t>(mutants.size(), 8));
    for (const Mutant &m : mutants) {
        AnalysisResult r = analyzeActivity(
            flow().baseline(), m.workload, flow().options().analysis);
        if (r.completed)
            mutant_acts.push_back(std::move(r));
    }
    ASSERT_GE(mutant_acts.size(), 2u);
    std::vector<const AnalysisResult *> parts = {&app_act};
    for (const AnalysisResult &r : mutant_acts)
        parts.push_back(&r);
    AnalysisResult u = merge(parts);
    Netlist hand_nl;
    DesignMetrics hand_m = hand(*u.activity, {&app}, &hand_nl);
    BespokeDesign entry = flow().tailorAnalysis(std::move(u), {&app});
    expectSameDesign(hand_nl, hand_m, entry.netlist, entry.metrics);
    // The mutants widen the design beyond the app's own.
    EXPECT_GT(entry.metrics.gates, flow().tailor(app).metrics.gates);
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
    // checker must finish and flag the first differing output, at both
    // lane evaluators.
    const Workload &a = workloadByName("binSearch");
    const Workload &b = workloadByName("mult");
    BespokeDesign da = flow().tailor(a);
    AsmProgram prog_b = b.assembleProgram();
    for (int lanes : {1, 64}) {
        SCOPED_TRACE(lanes);
        AnalysisOptions opts;
        opts.laneWidth = lanes;
        EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                                  da.netlist, prog_b, opts);
        EXPECT_TRUE(eq.completed);
        EXPECT_FALSE(eq.equivalent)
            << "binSearch-tailored core cannot be equivalent to the "
               "baseline when running mult";
        EXPECT_TRUE(std::regex_match(
            eq.firstMismatch,
            std::regex("output '.+' differs at cycle [0-9]+ "
                       "\\(pc 0x[0-9a-f]+\\): .*")))
            << eq.firstMismatch;
    }
}

/**
 * Run the equivalence check at both lane evaluators and require the
 * same verdict and counters; returns the plane evaluator's result.
 */
EquivResult
equivAtBothEvaluators(const Netlist &design, const AsmProgram &prog)
{
    EquivResult res[2];
    for (int i = 0; i < 2; i++) {
        AnalysisOptions opts;
        opts.laneWidth = i == 0 ? 1 : 64;
        res[i] = checkSymbolicEquivalence(flow().baseline(), design, prog,
                                          opts);
    }
    EXPECT_EQ(res[0].equivalent, res[1].equivalent);
    EXPECT_EQ(res[0].completed, res[1].completed);
    EXPECT_EQ(res[0].pathsExplored, res[1].pathsExplored);
    EXPECT_EQ(res[0].cyclesChecked, res[1].cyclesChecked);
    EXPECT_EQ(res[0].outputsCompared, res[1].outputsCompared);
    EXPECT_EQ(res[0].firstMismatch, res[1].firstMismatch);
    return res[1];
}

TEST(BespokeFlow, EquivalenceIdenticalAtBothEvaluators)
{
    for (const char *name : {"intAVG", "inSort", "irq"}) {
        SCOPED_TRACE(name);
        const Workload &w = workloadByName(name);
        EquivResult eq = equivAtBothEvaluators(flow().tailor(w).netlist,
                                               w.assembleProgram());
        EXPECT_TRUE(eq.equivalent) << eq.firstMismatch;
        EXPECT_TRUE(eq.completed);
        EXPECT_GT(eq.pathsExplored, 1u);
    }
    for (auto [app, name] :
         {std::pair{"binSearch", "binSearch-mut3-rra2rla"},
          std::pair{"inSort", "inSort-mut10-rla2rra"}}) {
        SCOPED_TRACE(name);
        std::vector<Mutant> all = generateMutants(workloadByName(app));
        auto it = std::find_if(all.begin(), all.end(), [&](const Mutant &m) {
            return m.workload.name == name;
        });
        ASSERT_NE(it, all.end());
        const Workload &w = it->workload;
        EquivResult eq = equivAtBothEvaluators(flow().tailor(w).netlist,
                                               w.assembleProgram());
        EXPECT_TRUE(eq.equivalent) << eq.firstMismatch;
        EXPECT_TRUE(eq.completed);
    }
}

TEST(BespokeFlow, EquivalenceRejectsInjectedFaultAtBothEvaluators)
{
    // Single-gate faults: one tie-fed input pin of a kept cell re-tied
    // to the opposite constant. Most such pins sit on logic the
    // program never observes; take the first fault (in gate order) that
    // a short scan (a few paths) rejects past the first fork, so the
    // mismatch surfaces inside a lane sweep, and require both
    // evaluators' full checks to reject it identically.
    const Workload &w = workloadByName("intAVG");
    const Netlist design = flow().tailor(w).netlist;
    AsmProgram prog = w.assembleProgram();
    AnalysisOptions scan;
    scan.maxPaths = 8;
    for (GateId g = 0; g < design.size(); g++) {
        const Gate &gate = design.gate(g);
        if (cellPseudo(gate.type) || gate.type == CellType::DFF ||
            gate.type == CellType::DFFE)
            continue;
        for (int pin = 0; pin < gate.numInputs(); pin++) {
            CellType tie = design.gate(gate.in[pin]).type;
            if (tie != CellType::TIE0 && tie != CellType::TIE1)
                continue;
            Netlist faulty = design;
            faulty.setFanin(g, pin,
                            faulty.tie(tie == CellType::TIE0,
                                       design.gate(gate.in[pin]).module));
            EquivResult eq = checkSymbolicEquivalence(flow().baseline(),
                                                      faulty, prog, scan);
            if (eq.equivalent || eq.pathsExplored < 2)
                continue;
            SCOPED_TRACE(g);
            eq = equivAtBothEvaluators(faulty, prog);
            EXPECT_FALSE(eq.equivalent);
            EXPECT_TRUE(eq.completed);
            EXPECT_EQ(eq.firstMismatch.rfind("output '", 0), 0u)
                << eq.firstMismatch;
            return;
        }
    }
    FAIL() << "no tie flip of the tailored design was rejected past the "
              "first fork";
}

} // namespace
} // namespace bespoke
