#include "src/sat/never_toggle.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/sat/cdcl.hh"
#include "src/sat/encode.hh"
#include "src/sat/portfolio.hh"
#include "src/util/logging.hh"
#include "src/util/worker_pool.hh"

namespace bespoke::sat
{

namespace
{

/** Candidates per shard before the partition splits (see portfolio.hh:
 *  the shard count is a function of the candidate count only). The
 *  shard cap matches the flow's 4-thread design point: every shard
 *  re-encodes the frame chain, so extra shards beyond the worker count
 *  are pure redundant encoding work. */
constexpr size_t kMinPerShard = 256;
constexpr size_t kMaxShards = 4;

/** Literal that is true iff `gate` differs from `value` in frame f. */
Lit
differsAt(const SocUnroller &un, GateId gate, bool value, int f)
{
    Lit l = un.gateAt(gate, f);
    return value ? ~l : l;
}

/**
 * Incremental deepening schedule: 8, 16, 32, ..., depth. Shallow
 * chunks refute cheap counterexamples on small formulas before the
 * full-depth encoding exists; the solver (learned clauses, activities,
 * phases) is shared across all chunks, so the final full-depth UNSAT
 * starts from everything the shallow queries taught it.
 */
std::vector<int>
chunkSchedule(int depth)
{
    std::vector<int> out;
    int d = std::min(depth, 8);
    for (;;) {
        out.push_back(d);
        if (d >= depth)
            break;
        d = std::min(depth, d * 2);
    }
    return out;
}

enum class Verdict : uint8_t
{
    Pending,
    Refuted,
    Unknown,
};

struct ShardOutcome
{
    /** Per local candidate: 0 proven, 1 refuted, 2 unknown. */
    std::vector<uint8_t> v;
    NeverToggleStats stats;
};

/**
 * Prove one contiguous candidate shard end to end on ONE solver: the
 * bounded base case is deepened chunk by chunk on a single unrolling,
 * and the optional induction stage attaches its free-state unrolling
 * to the same solver instead of rebuilding it, keeping the learned
 * clause database, activities, and phases across the stage boundary.
 */
ShardOutcome
runShard(const Netlist &nl, const AsmProgram &prog,
         const NeverToggleCandidate *cands, size_t n,
         const NeverToggleOptions &opts)
{
    ShardOutcome out;
    out.v.assign(n, 0);
    NeverToggleStats &st = out.stats;
    std::vector<Verdict> verdict(n, Verdict::Pending);
    auto solver = std::make_unique<CdclSolver>();

    // --- Stage 1: base case, bounded check from reset, incrementally
    // deepened over the chunk schedule. Runs the schedule to completion
    // and returns true, or returns false the moment a wave query
    // exhausts its conflict budget (leaving the undecided candidates
    // Pending — the caller decides whether to retry or demote them). ---
    auto runBase = [&](CdclSolver &s,
                       const std::vector<int> &schedule) -> bool {
        UnrollOptions uo;
        uo.fromReset = true;
        uo.romMux = opts.romMux;
        SocUnroller un(nl, prog, s, uo);
        Tseitin ts(s);
        // Per candidate: "differs somewhere in frames [0, encoded)".
        // Extended in place as the frame chain grows; most fold.
        std::vector<Lit> diff(n, kFalse);
        int encoded = 0;
        for (int target : schedule) {
            int prev = encoded;
            while (encoded < target) {
                un.addFrame();
                encoded++;
            }
            std::vector<size_t> pending;
            for (size_t i = 0; i < n; i++) {
                if (verdict[i] != Verdict::Pending)
                    continue;
                std::vector<Lit> ds;
                ds.reserve(static_cast<size_t>(target - prev) + 1);
                ds.push_back(diff[i]);
                for (int f = prev; f < target; f++)
                    ds.push_back(
                        differsAt(un, cands[i].gate, cands[i].value, f));
                Lit b = ts.orL(ds);
                if (b == kTrue) {
                    verdict[i] = Verdict::Refuted;
                    continue;
                }
                diff[i] = b;
                if (b != kFalse)
                    pending.push_back(i);
            }
            // Counterexample-guided waves over the pending set at this
            // horizon: each query asks "can ANY pending candidate leave
            // its constant within the frames encoded so far?". A model
            // refutes every pending candidate it drives off its value;
            // the UNSAT answer clears the whole horizon and the
            // survivors go deeper.
            while (!pending.empty()) {
                std::vector<Lit> ds;
                ds.reserve(pending.size());
                for (size_t i : pending)
                    ds.push_back(diff[i]);
                Lit any = ts.orL(ds);
                st.queries++;
                SolveResult r = s.solve({any}, opts.conflictBudget);
                if (r == SolveResult::Unsat)
                    break;
                if (r == SolveResult::Unknown)
                    return false;
                std::vector<size_t> next;
                for (size_t i : pending) {
                    if (s.modelValue(diff[i]))
                        verdict[i] = Verdict::Refuted;
                    else
                        next.push_back(i);
                }
                bespoke_assert(next.size() < pending.size(),
                               "SAT wave refuted nothing");
                pending = std::move(next);
            }
        }
        return true;
    };

    std::vector<size_t> alive;
    {
        bool done = runBase(*solver, chunkSchedule(opts.depth));
        if (!done) {
            // Budget exhaustion mid-schedule. The incremental session's
            // carried-over heuristic state (activities, saved phases,
            // learned-clause focus from the shallow horizons) can make
            // a deep UNSAT *harder* than a cold start, so before
            // demoting the survivors retry them once the way the
            // pre-incremental engine solved everything: a fresh solver
            // encoding the final depth directly. The re-encode is paid
            // only on this path; verdicts stay deterministic either
            // way. The abandoned session's work still shows up in the
            // counters (kept clauses excepted — they died with it).
            st.baseConflicts += solver->conflicts();
            st.propagations += solver->propagations();
            st.learnedClauses += solver->learnedClauses();
            st.dbReductions += solver->dbReductions();
            st.restarts += solver->restarts();
            solver = std::make_unique<CdclSolver>();
            done = runBase(*solver, {opts.depth});
        }
        if (!done) {
            // Budget exhaustion is conservative: nothing still pending
            // may be promoted to proven.
            for (size_t i = 0; i < n; i++) {
                if (verdict[i] == Verdict::Pending)
                    verdict[i] = Verdict::Unknown;
            }
        }
        for (size_t i = 0; i < n; i++) {
            if (verdict[i] == Verdict::Pending)
                alive.push_back(i);
        }
        st.baseConflicts += solver->conflicts();
    }

    // --- Stage 2: mutual induction from a free state. The SAME solver
    // carries over; only the free-state unrolling is new. ---
    const uint64_t base_end_conflicts = solver->conflicts();
    if (opts.mode == NeverToggleOptions::Mode::Induction &&
        !alive.empty())
    {
        UnrollOptions uo;
        uo.fromReset = false;
        uo.romMux = opts.romMux;
        SocUnroller un(nl, prog, *solver, uo);
        for (int f = 0; f <= opts.depth; f++)
            un.addFrame();
        Tseitin ts(*solver);

        std::vector<Lit> act(n, kFalse);
        std::vector<Lit> check(n, kFalse);
        std::vector<size_t> survivors;
        for (size_t i : alive) {
            const NeverToggleCandidate &c = cands[i];
            Lit a = ts.fresh();
            bool dropped = false;
            for (int f = 0; f < opts.depth; f++) {
                Lit eq = ~differsAt(un, c.gate, c.value, f);
                if (eq == kFalse) {
                    // The hypothesis is unsatisfiable in this frame;
                    // the candidate cannot be assumed. Never encode
                    // {~a}: a false activation literal in the shared
                    // assumption set would make every query vacuously
                    // UNSAT.
                    dropped = true;
                    break;
                }
                if (eq == kTrue)
                    continue;
                solver->binary(~a, eq);
            }
            if (dropped) {
                verdict[i] = Verdict::Unknown;
                continue;
            }
            act[i] = a;
            check[i] = differsAt(un, c.gate, c.value, opts.depth);
            survivors.push_back(i);
        }

        bool changed = true;
        while (changed && !survivors.empty()) {
            changed = false;
            st.rounds++;
            std::vector<size_t> next;
            for (size_t k = 0; k < survivors.size(); k++) {
                size_t i = survivors[k];
                if (check[i] == kFalse) {
                    next.push_back(i);  // holds at frame depth outright
                    continue;
                }
                // Queries within a round share the activation-literal
                // assumption prefix, so the solver's saved trail skips
                // re-propagating it between consecutive candidates.
                std::vector<Lit> assumps;
                assumps.reserve(survivors.size() + 1);
                for (size_t j : survivors)
                    assumps.push_back(act[j]);
                assumps.push_back(check[i]);
                st.queries++;
                SolveResult r =
                    solver->solve(assumps, opts.conflictBudget);
                if (r == SolveResult::Unsat) {
                    next.push_back(i);
                } else {
                    // Induction failed (or budget ran out): not proven.
                    // Removing i weakens every earlier UNSAT that
                    // assumed it, so the fixpoint loop runs another
                    // round.
                    verdict[i] = Verdict::Unknown;
                    changed = true;
                }
            }
            survivors = std::move(next);
        }
        // Survivors stay Pending == proven; the rest were marked.
        st.stepConflicts = solver->conflicts() - base_end_conflicts;
    }

    for (size_t i = 0; i < n; i++) {
        if (verdict[i] == Verdict::Refuted)
            out.v[i] = 1;
        else if (verdict[i] == Verdict::Unknown)
            out.v[i] = 2;
    }
    st.propagations += solver->propagations();
    st.learnedClauses += solver->learnedClauses();
    st.keptClauses = solver->keptClauses();
    st.dbReductions += solver->dbReductions();
    st.restarts += solver->restarts();
    return out;
}

} // namespace

NeverToggleResult
proveNeverToggling(const Netlist &nl, const AsmProgram &prog,
                   const std::vector<NeverToggleCandidate> &candidates,
                   const NeverToggleOptions &opts)
{
    bespoke_assert(opts.depth >= 1);
    NeverToggleResult res;
    if (candidates.empty())
        return res;

    // The partition is a function of the candidate count only, so the
    // merged verdicts are bit-identical at any thread count; each shard
    // is a self-contained deterministic session.
    std::vector<std::pair<size_t, size_t>> ranges =
        shardRanges(candidates.size(), kMinPerShard, kMaxShards);
    int threads = resolveSatThreads(opts.threads);
    std::vector<ShardOutcome> outs(ranges.size());
    auto run_one = [&](size_t s) {
        outs[s] = runShard(nl, prog, candidates.data() + ranges[s].first,
                           ranges[s].second - ranges[s].first, opts);
    };
    if (threads <= 1 || ranges.size() == 1) {
        for (size_t s = 0; s < ranges.size(); s++)
            run_one(s);
    } else {
        WorkerPool pool(
            std::min<int>(threads, static_cast<int>(ranges.size())));
        for (size_t s = 0; s < ranges.size(); s++)
            pool.post([&, s] { run_one(s); });
        pool.drain();
    }

    for (size_t s = 0; s < ranges.size(); s++) {
        const ShardOutcome &o = outs[s];
        for (size_t k = 0; k < o.v.size(); k++) {
            size_t i = ranges[s].first + k;
            if (o.v[k] == 0)
                res.proven.push_back(candidates[i]);
            else if (o.v[k] == 1)
                res.refuted.push_back(candidates[i].gate);
            else
                res.unknown.push_back(candidates[i].gate);
        }
        res.stats.baseConflicts += o.stats.baseConflicts;
        res.stats.stepConflicts += o.stats.stepConflicts;
        res.stats.queries += o.stats.queries;
        res.stats.rounds += o.stats.rounds;
        res.stats.propagations += o.stats.propagations;
        res.stats.learnedClauses += o.stats.learnedClauses;
        res.stats.keptClauses += o.stats.keptClauses;
        res.stats.dbReductions += o.stats.dbReductions;
        res.stats.restarts += o.stats.restarts;
    }
    res.stats.shards = ranges.size();
    return res;
}

} // namespace bespoke::sat
