/**
 * @file
 * SAT never-toggle prover against the measured world: every gate the
 * prover promotes to "never toggles" must be consistent with a
 * concrete replay of the committed workloads (a proven-constant net
 * may never hold the known opposite value in any replay cycle of the
 * checked envelope — a disagreement is an encoder or solver bug and
 * fails with a gate/cycle witness). Also pins that the pass recovers
 * 3-valued widening pessimism (the reason it exists), that it promotes
 * proven gates into the cut, and that verdicts are bit-identical
 * across repeated runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/never_toggle.hh"
#include "src/sim/gate_sim.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/rng.hh"
#include "src/verify/runner.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

constexpr uint64_t kSeed = 0x1234;
constexpr int kInputs = 3;

/**
 * The reduced-precision analysis configuration the recovery tests use:
 * immediate widening at merge points maximizes the 3-valued pessimism
 * the SAT pass exists to claw back. (At the default precision the
 * X-analysis of the small apps is exact and the correct recovery is
 * zero — see DESIGN.md section 13.)
 */
AnalysisResult
wideningAnalysis(const Netlist &nl, const Workload &app)
{
    AnalysisOptions aopts;
    aopts.concreteVisits = 1;
    return analyzeActivity(nl, app, aopts);
}

/**
 * Candidate selection exactly as the pass does it: zero-toggle
 * non-pseudo gates over the flow's seeded replay, pinned at 0 where
 * that one observed value was 0, both polarities where it was 1 or X
 * (always-1 and always-X are indistinguishable there).
 */
std::vector<sat::NeverToggleCandidate>
selectCandidates(const Netlist &nl, const Workload &app)
{
    ToggleCounter tc(nl);
    replayEnv({&app}, kInputs, kSeed).measureActivity(nl, &tc);
    std::vector<sat::NeverToggleCandidate> cands;
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
            g.type == CellType::TIE1 || tc.count(i) != 0) {
            continue;
        }
        if (tc.lastValue(i) != Logic::Zero)
            cands.push_back({i, true});
        cands.push_back({i, false});
    }
    return cands;
}

/**
 * The central soundness property: a SAT proof quantifies over EVERY
 * input sequence in the envelope, so no concrete replay may ever catch
 * a proven net at the known opposite of its proven constant inside the
 * proved horizon. (An X in the replay is fine — that is exactly the
 * pessimism the prover resolves; only a *known* contradiction is a
 * bug.) Recovery must be nonzero here: this configuration widens
 * aggressively, and SAT claws the widened constants back.
 */
TEST(SatNeverToggle, ProvenGatesNeverContradictReplay)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisResult ar = wideningAnalysis(core, app);
    ASSERT_TRUE(ar.completed);
    EXPECT_GT(ar.merges, 0u) << "config must induce widening";

    PassPipelineOptions popts;
    PassEnv env;
    Netlist nl = runTailorPipeline(core, ar.activity.get(), popts, env);

    std::vector<sat::NeverToggleCandidate> cands =
        selectCandidates(nl, app);
    ASSERT_FALSE(cands.empty());

    const int kDepth = 60;
    sat::NeverToggleOptions no;
    no.depth = kDepth;
    sat::NeverToggleResult res =
        sat::proveNeverToggling(nl, prog, cands, no);
    EXPECT_GT(res.proven.size(), 0u)
        << "widening pessimism must be recoverable by SAT";
    EXPECT_EQ(res.proven.size() + res.refuted.size() +
                  res.unknown.size(),
              cands.size());

    // Concrete replay of every committed input, first kDepth cycles.
    Rng rng(kSeed);
    for (int i = 0; i < kInputs; i++) {
        WorkloadInput in = app.genInput(rng);
        int cycle = 0;
        auto per_cycle = [&](const GateSim &sim) {
            if (cycle++ >= kDepth)
                return;
            for (const sat::NeverToggleCandidate &c : res.proven) {
                Logic v = sim.value(c.gate);
                if (!isKnown(v))
                    continue;
                ASSERT_EQ(v == Logic::One, c.value)
                    << "witness: input " << i << " cycle "
                    << (cycle - 1) << " gate " << c.gate << " ("
                    << cellName(nl.gate(c.gate).type,
                                nl.gate(c.gate).drive)
                    << ") proven constant " << c.value
                    << " but replay observed the opposite";
            }
        };
        runWorkloadGate(nl, app, prog, in, nullptr, nullptr,
                        per_cycle);
    }
}

/**
 * The pipeline pass promotes proven candidates into the cut: the
 * SAT-enabled design must be strictly smaller, with report counters
 * that add up. The environment holds only the program image and an
 * activity provider: the pass keys candidate polarity on the replay's
 * observed value and reads no enable duty.
 */
TEST(SatNeverToggle, PassPromotesProvenGatesIntoCut)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisResult ar = wideningAnalysis(core, app);

    PassEnv env;
    env.program = &prog;
    env.measureActivity =
        replayEnv({&app}, kInputs, kSeed).measureActivity;

    PassPipelineOptions base;
    CutStats base_cut;
    Netlist base_nl = runTailorPipeline(core, ar.activity.get(), base,
                                        env, &base_cut);

    PassPipelineOptions with_sat = base;
    with_sat.satNeverToggle = true;
    with_sat.sat.depth = 60;
    CutStats sat_cut;
    PipelineReport report;
    Netlist sat_nl = runTailorPipeline(core, ar.activity.get(),
                                       with_sat, env, &sat_cut,
                                       &report);

    EXPECT_GT(report.satCandidates, 0u);
    EXPECT_GT(report.satProven, 0u);
    EXPECT_EQ(report.satProven + report.satRefuted + report.satUnknown,
              report.satCandidates);
    EXPECT_LT(sat_nl.numCells(), base_nl.numCells())
        << "proven gates must shrink the design";
}

/**
 * Determinism contract: candidate selection, verdicts and stats are
 * bit-identical between repeated runs. (Replays run on the one 64-lane
 * plane width, so the width half of this contract now holds by
 * construction.)
 */
TEST(SatNeverToggle, VerdictsDeterministicAndPlaneWidthIndependent)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisResult ar = wideningAnalysis(core, app);
    PassPipelineOptions popts;
    PassEnv env;
    Netlist nl = runTailorPipeline(core, ar.activity.get(), popts, env);

    std::vector<sat::NeverToggleCandidate> c1 =
        selectCandidates(nl, app);
    std::vector<sat::NeverToggleCandidate> c2 =
        selectCandidates(nl, app);
    ASSERT_EQ(c1.size(), c2.size());
    for (size_t i = 0; i < c1.size(); i++) {
        EXPECT_EQ(c1[i].gate, c2[i].gate);
        EXPECT_EQ(c1[i].value, c2[i].value);
    }

    sat::NeverToggleOptions no;
    no.depth = 24;
    sat::NeverToggleResult a = sat::proveNeverToggling(nl, prog, c1, no);
    sat::NeverToggleResult b = sat::proveNeverToggling(nl, prog, c2, no);
    ASSERT_EQ(a.proven.size(), b.proven.size());
    for (size_t i = 0; i < a.proven.size(); i++) {
        EXPECT_EQ(a.proven[i].gate, b.proven[i].gate);
        EXPECT_EQ(a.proven[i].value, b.proven[i].value);
    }
    EXPECT_EQ(a.refuted, b.refuted);
    EXPECT_EQ(a.unknown, b.unknown);
    EXPECT_EQ(a.stats.queries, b.stats.queries);
    EXPECT_EQ(a.stats.conflicts, b.stats.conflicts);
}

} // namespace
} // namespace bespoke
