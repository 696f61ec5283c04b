/**
 * @file
 * CDCL solver cross-checks: randomized verdict comparison against a
 * brute-force enumerator on small CNFs (the solver must agree with
 * exhaustive truth-table evaluation on every seed, also when one
 * solver is re-queried on a shared assumption prefix), assumption
 * semantics on hand-built formulas, model sanity on satisfiable
 * instances, and bit-level determinism of repeated identical solves.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/sat/cdcl.hh"
#include "src/sat/cnf.hh"
#include "src/util/rng.hh"

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
    // Around the 3-SAT phase transition so both verdicts appear.
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

/** Exhaustive truth-table satisfiability of a RandomCnf. */
bool
bruteForceSat(const RandomCnf &f)
{
    for (uint32_t m = 0; m < (1u << f.nVars); m++) {
        bool all = true;
        for (const std::vector<Lit> &cl : f.clauses) {
            bool any = false;
            for (Lit l : cl) {
                bool v = (m >> (l.var() - 1)) & 1;
                if (v != l.negated()) {
                    any = true;
                    break;
                }
            }
            if (!any) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

/** Load a RandomCnf into a fresh solver (allocating its vars). */
void
load(CdclSolver &s, const RandomCnf &f)
{
    for (int v = 0; v < f.nVars; v++)
        s.newVar();
    for (const std::vector<Lit> &cl : f.clauses)
        s.addClause(cl.data(), cl.size());
}

TEST(SatSolver, RandomCnfsAgreeWithBruteForce)
{
    int sat = 0, unsat = 0;
    for (uint64_t seed = 0; seed < 1000; seed++) {
        Rng rng(0x5eed0000 + seed);
        RandomCnf f = genCnf(rng, 16);
        CdclSolver s;
        load(s, f);
        SolveResult r = s.solve();
        ASSERT_NE(r, SolveResult::Unknown);
        bool expect = bruteForceSat(f);
        ASSERT_EQ(r == SolveResult::Sat, expect)
            << "seed " << seed << ": solver says "
            << (r == SolveResult::Sat ? "SAT" : "UNSAT")
            << ", brute force says " << (expect ? "SAT" : "UNSAT");
        (expect ? sat : unsat)++;
        if (r == SolveResult::Sat) {
            // The model must actually satisfy every clause.
            for (const std::vector<Lit> &cl : f.clauses) {
                bool any = false;
                for (Lit l : cl)
                    any = any || s.modelValue(l);
                ASSERT_TRUE(any) << "seed " << seed
                                 << ": model violates a clause";
            }
        }
    }
    // The generator must exercise both verdicts heavily.
    EXPECT_GT(sat, 100);
    EXPECT_GT(unsat, 100);
}

TEST(SatSolver, RandomCnfsUnderAssumptionsAgreeWithBruteForce)
{
    for (uint64_t seed = 0; seed < 300; seed++) {
        Rng rng(0xa55e + seed);
        RandomCnf f = genCnf(rng, 12);
        // Pin the first min(3, nVars) variables via assumptions and
        // mirror them as unit clauses for the brute-force check.
        std::vector<Lit> assumps;
        RandomCnf g = f;
        int pins = f.nVars < 3 ? f.nVars : 3;
        for (int k = 0; k < pins; k++) {
            Lit l = mkLit(1 + k, rng.next() & 1);
            assumps.push_back(l);
            g.clauses.push_back({l});
        }
        CdclSolver s;
        load(s, f);
        SolveResult r = s.solve(assumps);
        ASSERT_NE(r, SolveResult::Unknown);
        ASSERT_EQ(r == SolveResult::Sat, bruteForceSat(g))
            << "seed " << seed;
        if (r == SolveResult::Sat) {
            for (Lit l : assumps)
                ASSERT_TRUE(s.modelValue(l));
        }
        // The same solver, re-queried on a shared assumption prefix
        // after either verdict, still agrees.
        if (pins == 0)
            continue;
        assumps.pop_back();
        g.clauses.pop_back();
        r = s.solve(assumps);
        ASSERT_NE(r, SolveResult::Unknown);
        ASSERT_EQ(r == SolveResult::Sat, bruteForceSat(g))
            << "seed " << seed << " (prefix)";
        if (r == SolveResult::Sat) {
            for (Lit l : assumps)
                ASSERT_TRUE(s.modelValue(l));
        }
    }
}

TEST(SatSolver, VerdictsAndStatsAreDeterministic)
{
    for (uint64_t seed = 0; seed < 50; seed++) {
        Rng rng(0xdef0 + seed);
        RandomCnf f = genCnf(rng, 14);
        CdclSolver a, b;
        load(a, f);
        load(b, f);
        SolveResult ra = a.solve();
        SolveResult rb = b.solve();
        ASSERT_EQ(ra, rb);
        ASSERT_EQ(a.conflicts(), b.conflicts());
        ASSERT_EQ(a.decisions(), b.decisions());
        ASSERT_EQ(a.propagations(), b.propagations());
        if (ra == SolveResult::Sat) {
            for (Var v = 1; v < static_cast<Var>(f.nVars) + 1; v++) {
                ASSERT_EQ(a.modelValue(mkLit(v)),
                          b.modelValue(mkLit(v)));
            }
        }
    }
}

TEST(SatSolver, UnitPropagationChainsToUnsat)
{
    CdclSolver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.unit(mkLit(a));
    s.binary(~mkLit(a), mkLit(b));   // a -> b
    s.binary(~mkLit(b), mkLit(c));   // b -> c
    s.unit(~mkLit(c));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
    EXPECT_FALSE(s.okay());
}

TEST(SatSolver, ConstantTrueVarIsWired)
{
    CdclSolver s;
    // Var 0 is reserved constant-true by construction.
    EXPECT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(s.modelValue(kTrue));
    EXPECT_FALSE(s.modelValue(kFalse));
    EXPECT_EQ(s.solve({kFalse}), SolveResult::Unsat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown)
{
    // A hard pigeonhole-style instance the solver cannot finish in
    // one conflict: budget exhaustion must surface as Unknown, never
    // as a verdict.
    CdclSolver s;
    const int holes = 7;
    std::vector<std::vector<Var>> p(holes + 1,
                                    std::vector<Var>(holes));
    for (int i = 0; i <= holes; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i <= holes; i++) {
        std::vector<Lit> cl;
        for (int j = 0; j < holes; j++)
            cl.push_back(mkLit(p[i][j]));
        s.addClause(cl.data(), cl.size());
    }
    for (int j = 0; j < holes; j++)
        for (int i = 0; i <= holes; i++)
            for (int k = i + 1; k <= holes; k++)
                s.binary(~mkLit(p[i][j]), ~mkLit(p[k][j]));
    EXPECT_EQ(s.solve({}, 1), SolveResult::Unknown);
    // With no budget the verdict lands (pigeonhole: UNSAT).
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(SatSolver, CnfContainerRoundTripsThroughSolver)
{
    // Build a formula in the Cnf container, replay it into a solver,
    // and check the verdict — the export path and the solve path must
    // see the same formula.
    Cnf cnf;
    Var a = cnf.newVar(), b = cnf.newVar();
    cnf.binary(mkLit(a), mkLit(b));
    cnf.binary(~mkLit(a), mkLit(b));
    cnf.unit(~mkLit(b));
    CdclSolver s;
    while (s.numVars() < cnf.numVars())
        s.newVar();
    for (size_t i = 0; i < cnf.numClauses(); i++)
        s.addClause(cnf.clauseLits(i), cnf.clauseSize(i));
    EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

} // namespace
} // namespace bespoke::sat
