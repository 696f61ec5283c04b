#include "src/sat/cdcl.hh"

#include <algorithm>
#include <cmath>

#include "src/util/logging.hh"

namespace bespoke::sat
{

namespace
{

constexpr double kActivityLimit = 1e100;
constexpr Lit kLitUndef = Lit(0xffffffffu);

/** Learned clauses added between database reductions. */
constexpr size_t kReduceInc = 1000;

/** Luby restart sequence: 1 1 2 1 1 2 4 ... (scaled by y^seq). */
double
luby(double y, int x)
{
    int size, seq;
    for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {}
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return std::pow(y, seq);
}

enum SearchStatus
{
    kSearchRestart,
    kSearchSat,
    kSearchUnsat,
    kSearchBudget,
};

} // namespace

CdclSolver::CdclSolver(const CdclConfig &config) : cfg_(config)
{
    Var t = newVar();
    bespoke_assert(t == 0);
    unit(kTrue);
}

Var
CdclSolver::newVar()
{
    Var v = nVars_++;
    assign_.push_back(2);
    level_.push_back(0);
    reason_.push_back(kNoReason);
    // A nonzero order seed perturbs initial activities with a
    // deterministic hash, permuting the portfolio member's branching
    // order while keeping every tie-break reproducible.
    double a0 = 0.0;
    if (cfg_.orderSeed != 0) {
        uint32_t h = (v * 2654435761u) ^ (cfg_.orderSeed * 2246822519u);
        a0 = 1e-6 * static_cast<double>(h & 1023u);
    }
    activity_.push_back(a0);
    phase_.push_back(cfg_.initPhase ? 1 : 0);
    seen_.push_back(0);
    heapPos_.push_back(-1);
    watches_.emplace_back();
    watches_.emplace_back();
    heapInsert(v);
    return v;
}

void
CdclSolver::invalidateSavedTrail()
{
    cancelUntil(0);
    savedAssumptions_.clear();
}

void
CdclSolver::addClause(const Lit *lits, size_t n)
{
    // New constraints invalidate the saved assumption-prefix trail:
    // the kept propagations may be incomplete under the new clause.
    invalidateSavedTrail();
    if (!ok_)
        return;
    std::vector<Lit> cs(lits, lits + n);
    std::sort(cs.begin(), cs.end());
    std::vector<Lit> out;
    out.reserve(cs.size());
    for (size_t i = 0; i < cs.size(); i++) {
        Lit l = cs[i];
        bespoke_assert(l.var() < nVars_, "literal for unknown variable");
        if (i + 1 < cs.size()) {
            if (cs[i + 1] == l)
                continue;  // duplicate
            if (cs[i + 1] == ~l)
                return;  // tautology
        }
        uint8_t v = value(l);
        if (v == 1)
            return;  // already satisfied at level 0
        if (v == 0)
            continue;  // already false at level 0: drop literal
        out.push_back(l);
    }
    if (out.empty()) {
        ok_ = false;
        return;
    }
    if (out.size() == 1) {
        uncheckedEnqueue(out[0], kNoReason);
        if (propagate() != kNoReason)
            ok_ = false;
        return;
    }
    CRef cref = allocClause(out, false, 0);
    attachClause(cref);
}

CdclSolver::CRef
CdclSolver::allocClause(const std::vector<Lit> &lits, bool learned,
                        uint32_t lbd)
{
    CRef cref = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(lits.size() << 1) |
                     (learned ? 1u : 0u));
    arena_.push_back(lbd);
    for (Lit l : lits)
        arena_.push_back(l.code);
    return cref;
}

void
CdclSolver::attachClause(CRef cref)
{
    Lit c0(arena_[cref + 2]);
    Lit c1(arena_[cref + 3]);
    watches_[(~c0).code].push_back({cref, c1});
    watches_[(~c1).code].push_back({cref, c0});
}

void
CdclSolver::uncheckedEnqueue(Lit p, CRef from)
{
    Var v = p.var();
    bespoke_assert(assign_[v] == 2);
    assign_[v] = p.negated() ? 0 : 1;
    level_[v] = static_cast<uint32_t>(decisionLevel());
    reason_[v] = from;
    trail_.push_back(p);
}

CdclSolver::CRef
CdclSolver::propagate()
{
    CRef confl = kNoReason;
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        propagations_++;
        std::vector<Watch> &ws = watches_[p.code];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watch w = ws[i];
            if (value(w.blocker) == 1) {
                ws[j++] = ws[i++];
                continue;
            }
            CRef cref = w.cref;
            uint32_t size = arena_[cref] >> 1;
            uint32_t *lits = &arena_[cref + 2];
            Lit false_lit = ~p;
            if (Lit(lits[0]) == false_lit)
                std::swap(lits[0], lits[1]);
            bespoke_assert(Lit(lits[1]) == false_lit);
            i++;
            // The other watched literal may already satisfy the clause.
            Lit first(lits[0]);
            Watch nw{cref, first};
            if (first != w.blocker && value(first) == 1) {
                ws[j++] = nw;
                continue;
            }
            // Look for a non-false literal to watch instead.
            bool moved = false;
            for (uint32_t k = 2; k < size; k++) {
                if (value(Lit(lits[k])) != 0) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~Lit(lits[1])).code].push_back(nw);
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Clause is unit or conflicting under the current trail.
            ws[j++] = nw;
            if (value(first) == 0) {
                confl = cref;
                qhead_ = trail_.size();
                while (i < ws.size())
                    ws[j++] = ws[i++];
            } else {
                uncheckedEnqueue(first, cref);
            }
        }
        ws.resize(j);
    }
    return confl;
}

void
CdclSolver::cancelUntil(size_t target_level)
{
    if (decisionLevel() <= target_level)
        return;
    size_t lim = trailLim_[target_level];
    for (size_t i = trail_.size(); i-- > lim;) {
        Var v = trail_[i].var();
        phase_[v] = assign_[v];
        assign_[v] = 2;
        reason_[v] = kNoReason;
        if (heapPos_[v] < 0)
            heapInsert(v);
    }
    trail_.resize(lim);
    trailLim_.resize(target_level);
    qhead_ = lim;
}

void
CdclSolver::analyze(CRef confl, std::vector<Lit> *out_learnt,
                    size_t *out_btlevel, uint32_t *out_lbd)
{
    out_learnt->clear();
    out_learnt->push_back(kLitUndef);  // slot for the asserting literal
    std::vector<Var> to_clear;
    size_t index = trail_.size();
    Lit p = kLitUndef;
    int pathc = 0;
    CRef cr = confl;
    do {
        bespoke_assert(cr != kNoReason);
        uint32_t size = arena_[cr] >> 1;
        const uint32_t *lits = &arena_[cr + 2];
        // For reason clauses, lits[0] is the implied literal (== p).
        for (uint32_t k = (p == kLitUndef) ? 0 : 1; k < size; k++) {
            Lit q(lits[k]);
            Var v = q.var();
            if (!seen_[v] && level_[v] > 0) {
                seen_[v] = 1;
                to_clear.push_back(v);
                bumpVar(v);
                if (level_[v] >= decisionLevel())
                    pathc++;
                else
                    out_learnt->push_back(q);
            }
        }
        while (!seen_[trail_[--index].var()]) {}
        p = trail_[index];
        cr = reason_[p.var()];
        seen_[p.var()] = 0;
        pathc--;
    } while (pathc > 0);
    (*out_learnt)[0] = ~p;

    // Local minimization: a literal is redundant when its reason is
    // subsumed by the clause itself (every antecedent is marked or at
    // level 0).
    size_t w = 1;
    for (size_t k = 1; k < out_learnt->size(); k++) {
        Lit l = (*out_learnt)[k];
        CRef r = reason_[l.var()];
        bool removable = false;
        if (r != kNoReason) {
            removable = true;
            uint32_t size = arena_[r] >> 1;
            const uint32_t *lits = &arena_[r + 2];
            for (uint32_t m = 1; m < size; m++) {
                Var v = Lit(lits[m]).var();
                if (!seen_[v] && level_[v] > 0) {
                    removable = false;
                    break;
                }
            }
        }
        if (!removable)
            (*out_learnt)[w++] = l;
    }
    out_learnt->resize(w);
    for (Var v : to_clear)
        seen_[v] = 0;

    // Literal block distance: distinct decision levels in the clause.
    std::vector<uint32_t> levels;
    levels.reserve(out_learnt->size());
    for (Lit l : *out_learnt)
        levels.push_back(level_[l.var()]);
    std::sort(levels.begin(), levels.end());
    *out_lbd = static_cast<uint32_t>(
        std::unique(levels.begin(), levels.end()) - levels.begin());

    if (out_learnt->size() == 1) {
        *out_btlevel = 0;
    } else {
        size_t maxi = 1;
        for (size_t k = 2; k < out_learnt->size(); k++) {
            if (level_[(*out_learnt)[k].var()] >
                level_[(*out_learnt)[maxi].var()]) {
                maxi = k;
            }
        }
        std::swap((*out_learnt)[1], (*out_learnt)[maxi]);
        *out_btlevel = level_[(*out_learnt)[1].var()];
    }
}

Lit
CdclSolver::pickBranchLit()
{
    while (!heap_.empty()) {
        Var v = heapRemoveMin();
        if (assign_[v] == 2) {
            decisions_++;
            return mkLit(v, phase_[v] == 0);
        }
    }
    return kLitUndef;
}

void
CdclSolver::bumpVar(Var v)
{
    activity_[v] += varInc_;
    if (activity_[v] > kActivityLimit) {
        for (Var u = 0; u < nVars_; u++)
            activity_[u] *= 1e-100;
        varInc_ *= 1e-100;
    }
    if (heapPos_[v] >= 0)
        heapPercolateUp(static_cast<size_t>(heapPos_[v]));
}

void
CdclSolver::decayVarActivity()
{
    varInc_ /= cfg_.varDecay;
}

void
CdclSolver::reduceDB()
{
    bespoke_assert(decisionLevel() == 0,
                   "database reduction requires a quiescent trail");
    // A clause is locked while it is the reason of a trail assignment.
    auto locked = [&](CRef cr) {
        Var v = Lit(arena_[cr + 2]).var();
        return assign_[v] != 2 && reason_[v] == cr;
    };
    // Glue (LBD <= 2) and locked clauses are always kept; the rest are
    // ranked by (LBD, size, youth) and the worse half dropped. Every
    // ordering key is deterministic, so the surviving database — and
    // with it every later verdict — is reproducible.
    std::vector<CRef> cand;
    for (CRef cr : learned_) {
        if (arena_[cr + 1] <= 2 || locked(cr))
            continue;
        cand.push_back(cr);
    }
    std::sort(cand.begin(), cand.end(), [&](CRef a, CRef b) {
        uint32_t la = arena_[a + 1], lb = arena_[b + 1];
        if (la != lb)
            return la < lb;
        uint32_t sa = arena_[a] >> 1, sb = arena_[b] >> 1;
        if (sa != sb)
            return sa < sb;
        return a > b;  // prefer younger among equals
    });
    std::vector<CRef> dropped(cand.begin() + cand.size() / 2,
                              cand.end());
    reduceLimit_ += kReduceInc;
    if (dropped.empty())
        return;
    std::sort(dropped.begin(), dropped.end());
    removed_ += dropped.size();

    // Compact the arena, remembering old->new positions of survivors.
    std::vector<uint32_t> next;
    next.reserve(arena_.size());
    std::vector<std::pair<CRef, CRef>> remap;
    learned_.clear();
    size_t pos = 0, di = 0;
    while (pos < arena_.size()) {
        CRef old = static_cast<CRef>(pos);
        uint32_t header = arena_[pos];
        uint32_t size = header >> 1;
        bool is_learned = (header & 1u) != 0;
        size_t words = 2 + size;
        while (di < dropped.size() && dropped[di] < old)
            di++;
        if (is_learned && di < dropped.size() && dropped[di] == old) {
            pos += words;
            continue;
        }
        CRef fresh = static_cast<CRef>(next.size());
        for (size_t k = 0; k < words; k++)
            next.push_back(arena_[pos + k]);
        remap.emplace_back(old, fresh);
        if (is_learned)
            learned_.push_back(fresh);
        pos += words;
    }
    arena_ = std::move(next);

    auto relocate = [&](CRef old) {
        auto it = std::lower_bound(
            remap.begin(), remap.end(), std::make_pair(old, CRef(0)),
            [](const std::pair<CRef, CRef> &x,
               const std::pair<CRef, CRef> &y) { return x.first < y.first; });
        bespoke_assert(it != remap.end() && it->first == old,
                       "reason clause dropped by reduction");
        return it->second;
    };
    for (Lit l : trail_) {
        Var v = l.var();
        if (reason_[v] != kNoReason)
            reason_[v] = relocate(reason_[v]);
    }
    for (std::vector<Watch> &ws : watches_)
        ws.clear();
    pos = 0;
    while (pos < arena_.size()) {
        attachClause(static_cast<CRef>(pos));
        pos += 2 + (arena_[pos] >> 1);
    }
    reductions_++;
}

bool
CdclSolver::heapLess(Var a, Var b) const
{
    if (activity_[a] != activity_[b])
        return activity_[a] > activity_[b];
    return a < b;
}

void
CdclSolver::heapPercolateUp(size_t i)
{
    Var v = heap_[i];
    while (i > 0) {
        size_t parent = (i - 1) >> 1;
        if (!heapLess(v, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i]] = static_cast<int32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heapPos_[v] = static_cast<int32_t>(i);
}

void
CdclSolver::heapPercolateDown(size_t i)
{
    Var v = heap_[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= heap_.size())
            break;
        if (child + 1 < heap_.size() &&
            heapLess(heap_[child + 1], heap_[child])) {
            child++;
        }
        if (!heapLess(heap_[child], v))
            break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i]] = static_cast<int32_t>(i);
        i = child;
    }
    heap_[i] = v;
    heapPos_[v] = static_cast<int32_t>(i);
}

void
CdclSolver::heapInsert(Var v)
{
    heap_.push_back(v);
    heapPos_[v] = static_cast<int32_t>(heap_.size() - 1);
    heapPercolateUp(heap_.size() - 1);
}

Var
CdclSolver::heapRemoveMin()
{
    Var v = heap_[0];
    heapPos_[v] = -1;
    Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heapPos_[last] = 0;
        heapPercolateDown(0);
    }
    return v;
}

SolveResult
CdclSolver::solve(const std::vector<Lit> &assumptions,
                  uint64_t conflict_budget)
{
    model_.clear();
    if (!ok_) {
        invalidateSavedTrail();
        return SolveResult::Unsat;
    }
    for (Lit a : assumptions)
        bespoke_assert(a.var() < nVars_, "assumption for unknown variable");
    // Trail saving: the decision levels of the assumption prefix shared
    // with the previous solve stay on the trail, their propagations
    // intact; only the divergent suffix is re-decided.
    size_t shared = 0;
    while (shared < savedAssumptions_.size() &&
           shared < assumptions.size() &&
           savedAssumptions_[shared] == assumptions[shared]) {
        shared++;
    }
    cancelUntil(shared);
    uint64_t budget_end =
        conflict_budget ? conflicts_ + conflict_budget : 0;

    auto search = [&](int64_t nof_conflicts) -> int {
        int64_t conflictc = 0;
        for (;;) {
            CRef confl = propagate();
            if (confl != kNoReason) {
                conflicts_++;
                conflictc++;
                if (decisionLevel() == 0) {
                    ok_ = false;
                    return kSearchUnsat;
                }
                std::vector<Lit> learnt;
                size_t btlevel;
                uint32_t lbd = 0;
                analyze(confl, &learnt, &btlevel, &lbd);
                cancelUntil(btlevel);
                learnedTotal_++;
                if (learnt.size() == 1) {
                    uncheckedEnqueue(learnt[0], kNoReason);
                } else {
                    CRef cr = allocClause(learnt, true, lbd);
                    attachClause(cr);
                    learned_.push_back(cr);
                    uncheckedEnqueue(learnt[0], cr);
                }
                decayVarActivity();
            } else {
                if (budget_end && conflicts_ >= budget_end)
                    return kSearchBudget;
                if (conflictc >= nof_conflicts) {
                    cancelUntil(0);
                    return kSearchRestart;
                }
                Lit next = kLitUndef;
                while (decisionLevel() < assumptions.size()) {
                    Lit p = assumptions[decisionLevel()];
                    uint8_t v = value(p);
                    if (v == 1) {
                        // Already true: dummy decision level keeps the
                        // assumption <-> level mapping aligned.
                        trailLim_.push_back(trail_.size());
                    } else if (v == 0) {
                        return kSearchUnsat;
                    } else {
                        next = p;
                        break;
                    }
                }
                if (next == kLitUndef) {
                    next = pickBranchLit();
                    if (next == kLitUndef) {
                        model_.assign(assign_.begin(), assign_.end());
                        return kSearchSat;
                    }
                }
                trailLim_.push_back(trail_.size());
                uncheckedEnqueue(next, kNoReason);
            }
        }
    };

    SolveResult result = SolveResult::Unknown;
    for (int restarts = 0;; restarts++) {
        int64_t nof = static_cast<int64_t>(luby(2.0, restarts) *
                                           cfg_.restartFirst);
        int r = search(nof);
        if (r == kSearchRestart) {
            restarts_++;
            if (learned_.size() >= reduceLimit_)
                reduceDB();
            continue;
        }
        if (r == kSearchSat)
            result = SolveResult::Sat;
        else if (r == kSearchUnsat)
            result = SolveResult::Unsat;
        else
            result = SolveResult::Unknown;
        break;
    }
    // Keep the assumption-prefix trail for the next solve. Invariant:
    // at any exit point the first min(decisionLevel, |assumptions|)
    // decision levels are exactly the leading assumptions.
    size_t keep = std::min(decisionLevel(), assumptions.size());
    cancelUntil(keep);
    savedAssumptions_.assign(assumptions.begin(),
                             assumptions.begin() + keep);
    return result;
}

bool
CdclSolver::modelValue(Lit l) const
{
    bespoke_assert(!model_.empty(), "modelValue before a Sat solve");
    uint8_t a = model_[l.var()];
    bespoke_assert(a != 2);
    return (a ^ (l.code & 1u)) == 1;
}

} // namespace bespoke::sat
