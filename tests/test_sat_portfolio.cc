/**
 * @file
 * SAT determinism and incrementality contracts (src/sat/cdcl,
 * src/sat/never_toggle, src/sat/equiv_prover):
 *
 *  - shardRanges partitions are a pure function of the candidate count
 *    and cover the index space exactly.
 *  - Fuzz: a solver extended incrementally (clauses added in batches,
 *    queries interleaved, shared assumption prefixes exercising trail
 *    saving) returns the same verdict at every stage as a fresh solver
 *    re-encoding the accumulated formula from scratch — and both agree
 *    with brute-force enumeration.
 *  - Clause-database reduction triggers on a long session and neither
 *    changes the verdict nor breaks bit-level determinism.
 *  - The never-toggle prover and the miter prover reproduce their
 *    verdicts and solver statistics run to run, at values pinned here
 *    (the identity the bench goldens rely on).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/cdcl.hh"
#include "src/sat/equiv_prover.hh"
#include "src/sat/never_toggle.hh"
#include "src/sim/gate_sim.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/rng.hh"
#include "src/verify/runner.hh"
#include "src/workloads/workload.hh"

namespace bespoke::sat
{
namespace
{

/** A CNF over vars 1..n as literal lists (var 0 stays reserved). */
struct RandomCnf
{
    int nVars = 0;
    std::vector<std::vector<Lit>> clauses;
};

RandomCnf
genCnf(Rng &rng, int max_vars)
{
    RandomCnf f;
    f.nVars = 1 + static_cast<int>(rng.next() % max_vars);
    int n_clauses =
        1 + static_cast<int>(rng.next() % (4 * f.nVars + 3));
    for (int c = 0; c < n_clauses; c++) {
        int width = 1 + static_cast<int>(rng.next() % 3);
        std::vector<Lit> cl;
        for (int k = 0; k < width; k++) {
            Var v = 1 + static_cast<Var>(rng.next() % f.nVars);
            cl.push_back(mkLit(v, rng.next() & 1));
        }
        f.clauses.push_back(std::move(cl));
    }
    return f;
}

/** Exhaustive satisfiability under fixed assumption literals. */
bool
bruteForceSat(int n_vars, const std::vector<std::vector<Lit>> &clauses,
              const std::vector<Lit> &assumptions)
{
    for (uint32_t m = 0; m < (1u << n_vars); m++) {
        auto holds = [&](Lit l) {
            bool v = (m >> (l.var() - 1)) & 1;
            return v != l.negated();
        };
        bool all = true;
        for (Lit a : assumptions)
            all = all && holds(a);
        for (size_t c = 0; all && c < clauses.size(); c++) {
            bool any = false;
            for (Lit l : clauses[c])
                any = any || holds(l);
            all = any;
        }
        if (all)
            return true;
    }
    return false;
}

TEST(SatPortfolio, ShardRangesAreAFunctionOfCountOnly)
{
    for (size_t n : {0ul, 1ul, 255ul, 256ul, 257ul, 1024ul, 3709ul,
                     100000ul})
    {
        std::vector<std::pair<size_t, size_t>> r =
            shardRanges(n, 256, 4);
        if (n == 0) {
            EXPECT_TRUE(r.empty());
            continue;
        }
        size_t expect =
            std::min<size_t>(4, (n + 255) / 256);
        ASSERT_EQ(r.size(), std::max<size_t>(1, expect));
        // Contiguous exact cover, balanced to within one candidate.
        size_t pos = 0, lo = n, hi = 0;
        for (auto &[b, e] : r) {
            EXPECT_EQ(b, pos);
            ASSERT_GT(e, b);
            lo = std::min(lo, e - b);
            hi = std::max(hi, e - b);
            pos = e;
        }
        EXPECT_EQ(pos, n);
        EXPECT_LE(hi - lo, 1u);
    }
}

/**
 * The incremental-extend contract the never-toggle and miter sessions
 * lean on: growing one solver (addClause between solves, assumption
 * prefixes shared across consecutive solves so the saved trail is
 * reused) answers every query exactly like a throwaway solver handed
 * the accumulated formula — and both match brute force.
 */
TEST(SatPortfolio, IncrementalExtendMatchesFreshEncodeOnRandomCnfs)
{
    int stages_checked = 0;
    for (uint64_t seed = 0; seed < 400; seed++) {
        Rng rng(seed * 977 + 13);
        RandomCnf f = genCnf(rng, 10);

        CdclSolver inc;
        for (int v = 0; v < f.nVars; v++)
            inc.newVar();

        // Feed clauses in three batches; after each batch run several
        // queries with a shared assumption prefix (trail saving) and
        // check them against a fresh re-encode plus brute force.
        size_t batch = f.clauses.size() / 3 + 1;
        std::vector<std::vector<Lit>> sofar;
        for (size_t start = 0; start < f.clauses.size();
             start += batch)
        {
            for (size_t c = start;
                 c < std::min(start + batch, f.clauses.size()); c++)
            {
                inc.addClause(f.clauses[c].data(),
                              f.clauses[c].size());
                sofar.push_back(f.clauses[c]);
            }
            Lit pre = mkLit(1 + static_cast<Var>(rng.next() %
                                                 f.nVars),
                            rng.next() & 1);
            for (int q = 0; q < 3; q++) {
                std::vector<Lit> assumps;
                if (q > 0)  // shared prefix on queries 1 and 2
                    assumps.push_back(pre);
                if (q == 2)
                    assumps.push_back(
                        mkLit(1 + static_cast<Var>(rng.next() %
                                                   f.nVars),
                              rng.next() & 1));

                SolveResult ri = inc.solve(assumps);

                CdclSolver fresh;
                for (int v = 0; v < f.nVars; v++)
                    fresh.newVar();
                for (const std::vector<Lit> &cl : sofar)
                    fresh.addClause(cl.data(), cl.size());
                SolveResult rf = fresh.solve(assumps);

                ASSERT_EQ(ri, rf)
                    << "seed " << seed << " stage " << start
                    << " query " << q;
                bool expect =
                    bruteForceSat(f.nVars, sofar, assumps);
                ASSERT_EQ(ri == SolveResult::Sat, expect)
                    << "seed " << seed << " stage " << start
                    << " query " << q;
                stages_checked++;
            }
        }
    }
    EXPECT_GT(stages_checked, 1000);
}

/** Pigeonhole PHP(holes+1, holes): small, UNSAT, conflict-heavy. */
void
encodePigeonhole(CdclSolver &s, int holes)
{
    int pigeons = holes + 1;
    auto var = [&](int p, int h) {
        return mkLit(static_cast<Var>(1 + p * holes + h), false);
    };
    for (int p = 0; p < pigeons; p++)
        for (int h = 0; h < holes; h++)
            s.newVar();
    for (int p = 0; p < pigeons; p++) {
        std::vector<Lit> cl;
        for (int h = 0; h < holes; h++)
            cl.push_back(var(p, h));
        s.addClause(cl.data(), cl.size());
    }
    for (int h = 0; h < holes; h++)
        for (int p = 0; p < pigeons; p++)
            for (int q = p + 1; q < pigeons; q++) {
                Lit cl[2] = {~var(p, h), ~var(q, h)};
                s.addClause(cl, 2);
            }
}

/**
 * A conflict-heavy UNSAT instance drives the learned set past the
 * reduction limit: the database reduction must actually fire, the
 * verdict must stay correct, and a second identical run must reproduce
 * every statistic bit-for-bit (reduction is part of the deterministic
 * search, not a wall-clock heuristic).
 */
TEST(SatPortfolio, DbReductionFiresAndStaysDeterministic)
{
    auto run = [](uint64_t *stats) {
        CdclSolver s;
        encodePigeonhole(s, 8);
        SolveResult r = s.solve();
        EXPECT_EQ(r, SolveResult::Unsat);
        stats[0] = s.conflicts();
        stats[1] = s.dbReductions();
        stats[2] = s.removedClauses();
        stats[3] = s.learnedClauses();
        stats[4] = s.keptClauses();
        stats[5] = s.propagations();
        stats[6] = s.restarts();
    };
    uint64_t a[7], b[7];
    run(a);
    run(b);
    EXPECT_GT(a[1], 0u) << "instance too easy to trigger reduceDB";
    EXPECT_GT(a[2], 0u);
    for (int i = 0; i < 7; i++)
        EXPECT_EQ(a[i], b[i]) << "stat " << i;
}

/**
 * Run-to-run identity of the never-toggle prover on a real design: the
 * full verdict vector AND the summed solver statistics of two runs must
 * be bit-identical across the sharded path. The verdict split and the
 * solver work are pinned too, so a change to the search shows here
 * before it moves the bench goldens.
 */
TEST(SatPortfolio, NeverToggleVerdictsBitIdenticalRunToRun)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisOptions aopts;
    aopts.concreteVisits = 1;  // widen: make SAT candidates plentiful
    AnalysisResult ar = analyzeActivity(core, app, aopts);
    ASSERT_TRUE(ar.completed);

    PassPipelineOptions popts;
    PassEnv env;
    Netlist nl = runTailorPipeline(core, ar.activity.get(), popts, env);

    // Candidate selection as the pass does it: zero-toggle gates, both
    // polarities where the replay is ambiguous between 1 and X.
    ToggleCounter tc(nl);
    {
        std::shared_ptr<const SocContext> sctx = SocContext::make(nl);
        Rng rng(0x1234);
        std::vector<WorkloadInput> in;
        for (int i = 0; i < 3; i++)
            in.push_back(app.genInput(rng));
        runWorkloadGateBatch(nl, app, prog, in, &tc, sctx);
    }
    std::vector<NeverToggleCandidate> cands;
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
            g.type == CellType::TIE1 || tc.count(i) != 0) {
            continue;
        }
        if (tc.lastValue(i) == Logic::Zero) {
            cands.push_back({i, false});
        } else {
            cands.push_back({i, true});
            cands.push_back({i, false});
        }
    }
    ASSERT_GT(cands.size(), 0u);

    NeverToggleOptions no;
    no.depth = 24;
    NeverToggleResult r1 = proveNeverToggling(nl, prog, cands, no);
    NeverToggleResult r2 = proveNeverToggling(nl, prog, cands, no);

    EXPECT_EQ(cands.size(), 812u);
    EXPECT_EQ(r1.proven.size(), 653u);
    EXPECT_EQ(r1.refuted.size(), 159u);
    EXPECT_EQ(r1.unknown.size(), 0u);
    EXPECT_EQ(r1.stats.conflicts, 90u);
    EXPECT_EQ(r1.stats.propagations, 11788u);

    ASSERT_EQ(r1.proven.size(), r2.proven.size());
    for (size_t i = 0; i < r1.proven.size(); i++) {
        EXPECT_EQ(r1.proven[i].gate, r2.proven[i].gate);
        EXPECT_EQ(r1.proven[i].value, r2.proven[i].value);
    }
    EXPECT_EQ(r1.refuted, r2.refuted);
    EXPECT_EQ(r1.unknown, r2.unknown);
    EXPECT_EQ(r1.stats.conflicts, r2.stats.conflicts);
    EXPECT_EQ(r1.stats.queries, r2.stats.queries);
    EXPECT_EQ(r1.stats.propagations, r2.stats.propagations);
    EXPECT_EQ(r1.stats.learnedClauses, r2.stats.learnedClauses);
    EXPECT_EQ(r1.stats.keptClauses, r2.stats.keptClauses);
    EXPECT_EQ(r1.stats.dbReductions, r2.stats.dbReductions);
    EXPECT_EQ(r1.stats.restarts, r2.stats.restarts);
    EXPECT_EQ(r1.stats.shards, r2.stats.shards);
    EXPECT_GT(r1.stats.shards, 1u)
        << "cand set too small to exercise the sharded path";
}

/**
 * Same identity for the miter prover: verdict and solver statistics
 * repeat run to run, at the pinned values
 * (self-equivalence folds at encode time, so no query reaches the
 * solver).
 */
TEST(SatPortfolio, EquivProverVerdictIdenticalRunToRun)
{
    const Workload &app = workloadByName("binSearch");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();

    SatEquivOptions so;
    so.depth = 6;
    SatEquivResult r1 = proveEquivalentSat(core, core, prog, so);
    SatEquivResult r2 = proveEquivalentSat(core, core, prog, so);

    EXPECT_EQ(r1.verdict, SatEquivVerdict::Equivalent);
    EXPECT_EQ(r1.conflicts, 0u);
    EXPECT_EQ(r1.propagations, 1u);
    EXPECT_EQ(r1.queries, 0u);
    EXPECT_EQ(r1.verdict, r2.verdict);
    EXPECT_EQ(r1.depth, r2.depth);
    EXPECT_EQ(r1.conflicts, r2.conflicts);
    EXPECT_EQ(r1.propagations, r2.propagations);
    EXPECT_EQ(r1.queries, r2.queries);
}

} // namespace
} // namespace bespoke::sat
