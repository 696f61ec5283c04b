/**
 * @file
 * Self-contained CDCL SAT solver (MiniSat lineage): two-watched-literal
 * propagation, first-UIP conflict-clause learning with local clause
 * minimization, EVSIDS decision activities with phase saving, Luby
 * restarts, and an assumption interface for incremental per-gate
 * queries.
 *
 * The solver is strictly deterministic: no randomness, all tie-breaks
 * by variable index, single-threaded. Two identical clause/solve
 * sequences produce identical verdicts, models and statistics
 * on any machine — the SAT pass's verdicts and counters are pinned in
 * golden baselines and diffed bit-for-bit in CI, so this is a
 * contract, not an aspiration. The search has one fixed
 * configuration: Luby restarts on a base of 100 conflicts, activity
 * decay 0.95, fresh variables phased false and branched in index
 * order.
 *
 * Incrementality. Learned clauses, activities, and phases persist
 * across solve() calls, so related queries get cheaper. Long sessions
 * stay bounded by deterministic LBD-based clause-database reduction:
 * once the live learned set passes a (growing) limit, the lowest-value
 * half — ordered by (LBD, size, age), glue (LBD <= 2) and locked
 * clauses always kept — is dropped and the arena compacted. Consecutive
 * solves that share an assumption prefix keep the propagated trail of
 * the shared prefix in place instead of re-propagating it (trail
 * saving); adding a clause invalidates the saved prefix. Callers bound
 * runaway queries with the per-solve conflict budget, which returns
 * Unknown rather than thrashing.
 */

#ifndef BESPOKE_SAT_CDCL_HH
#define BESPOKE_SAT_CDCL_HH

#include <cstdint>
#include <vector>

#include "src/sat/cnf.hh"

namespace bespoke::sat
{

enum class SolveResult : uint8_t
{
    Sat,
    Unsat,
    Unknown,  ///< conflict budget exhausted
};

class CdclSolver : public CnfSink
{
  public:
    CdclSolver();

    Var newVar() override;
    void addClause(const Lit *lits, size_t n) override;
    using CnfSink::addClause;

    /** False once the clause set is unsatisfiable outright. */
    bool okay() const { return ok_; }

    /**
     * Solve under the given assumptions. conflict_budget 0 = no limit;
     * otherwise the solve returns Unknown after that many conflicts.
     * The solver state (learned clauses, activities, saved trail)
     * persists across calls, so related queries get incrementally
     * cheaper.
     */
    SolveResult solve(const std::vector<Lit> &assumptions = {},
                      uint64_t conflict_budget = 0);

    /** After Sat: value of a literal in the found model. */
    bool modelValue(Lit l) const;

    size_t numVars() const { return nVars_; }
    uint64_t conflicts() const { return conflicts_; }
    uint64_t decisions() const { return decisions_; }
    uint64_t propagations() const { return propagations_; }
    uint64_t restarts() const { return restarts_; }
    /** Learned clauses ever recorded (including unit learnts). */
    uint64_t learnedClauses() const { return learnedTotal_; }
    /** Learned clauses currently live in the database. */
    uint64_t keptClauses() const { return learned_.size(); }
    /** Clause-database reductions performed. */
    uint64_t dbReductions() const { return reductions_; }
    /** Learned clauses dropped by database reductions. */
    uint64_t removedClauses() const { return removed_; }

  private:
    using CRef = uint32_t;
    static constexpr CRef kNoReason = 0xffffffffu;

    struct Watch
    {
        CRef cref;
        Lit blocker;
    };

    // Values: 0 = false, 1 = true, 2 = unassigned.
    uint8_t value(Lit l) const
    {
        uint8_t a = assign_[l.var()];
        return a == 2 ? 2 : static_cast<uint8_t>(a ^ (l.code & 1u));
    }

    size_t decisionLevel() const { return trailLim_.size(); }
    CRef allocClause(const std::vector<Lit> &lits, bool learned,
                     uint32_t lbd);
    void attachClause(CRef cref);
    void uncheckedEnqueue(Lit p, CRef from);
    CRef propagate();
    void cancelUntil(size_t level);
    void analyze(CRef confl, std::vector<Lit> *out_learnt,
                 size_t *out_btlevel, uint32_t *out_lbd);
    Lit pickBranchLit();
    void bumpVar(Var v);
    void decayVarActivity();
    void reduceDB();
    void invalidateSavedTrail();

    // Heap of unassigned decision candidates ordered by (activity
    // descending, index ascending).
    bool heapLess(Var a, Var b) const;
    void heapPercolateUp(size_t i);
    void heapPercolateDown(size_t i);
    void heapInsert(Var v);
    Var heapRemoveMin();

    bool ok_ = true;
    Var nVars_ = 0;

    /** Clause arena: [size<<1 | learned][lbd][lits...]. */
    std::vector<uint32_t> arena_;
    std::vector<std::vector<Watch>> watches_;  ///< by literal code

    std::vector<uint8_t> assign_;  ///< 0/1/2 per var
    std::vector<uint32_t> level_;
    std::vector<CRef> reason_;
    std::vector<Lit> trail_;
    std::vector<size_t> trailLim_;
    size_t qhead_ = 0;

    std::vector<double> activity_;
    double varInc_ = 1.0;
    std::vector<uint8_t> phase_;  ///< saved polarity (last value)
    std::vector<uint8_t> seen_;   ///< analyze scratch

    std::vector<Var> heap_;
    std::vector<int32_t> heapPos_;  ///< -1 = not in heap

    std::vector<uint8_t> model_;

    /**
     * Assumption prefix whose decision levels are still on the trail
     * from the previous solve (trail saving). Invariant between
     * solves: decisionLevel() == savedAssumptions_.size() and level
     * i+1 is the propagated decision for savedAssumptions_[i].
     */
    std::vector<Lit> savedAssumptions_;

    /** Live learned clauses, in arena order. */
    std::vector<CRef> learned_;
    size_t reduceLimit_ = 2000;

    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    uint64_t restarts_ = 0;
    uint64_t learnedTotal_ = 0;
    uint64_t reductions_ = 0;
    uint64_t removed_ = 0;
};

} // namespace bespoke::sat

#endif // BESPOKE_SAT_CDCL_HH
