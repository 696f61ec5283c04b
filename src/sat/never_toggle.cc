#include "src/sat/never_toggle.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/sat/cdcl.hh"
#include "src/sat/encode.hh"
#include "src/sat/portfolio.hh"
#include "src/util/logging.hh"

namespace bespoke::sat
{

namespace
{

/** Candidates per shard before the partition splits, and the shard
 *  cap. Each shard is its own solver session, so the partition shapes
 *  every search: the pinned conflict and propagation counts (bench
 *  goldens, perfbench) hold for exactly this 256-per-shard, 4-shard
 *  split, and changing either constant moves them. */
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
    Pending,  ///< proven once the shard's session completes
    Refuted,
    Unknown,
};

struct ShardOutcome
{
    std::vector<Verdict> v;  ///< per local candidate
    NeverToggleStats stats;
};

/**
 * Prove one contiguous candidate shard end to end on ONE solver: the
 * bounded check is deepened chunk by chunk on a single unrolling, so
 * every chunk starts from the learned clauses, activities, and phases
 * of the shallower ones.
 */
ShardOutcome
runShard(const Netlist &nl, const AsmProgram &prog,
         const NeverToggleCandidate *cands, size_t n,
         const NeverToggleOptions &opts)
{
    ShardOutcome out;
    out.v.assign(n, Verdict::Pending);
    std::vector<Verdict> &verdict = out.v;
    NeverToggleStats &st = out.stats;
    auto solver = std::make_unique<CdclSolver>();

    // Bounded check from reset, incrementally deepened over the chunk
    // schedule. Runs the schedule to completion and returns true, or
    // returns false the moment a wave query exhausts its conflict
    // budget (leaving the undecided candidates Pending — the caller
    // decides whether to retry or demote them).
    auto runSchedule = [&](CdclSolver &s,
                           const std::vector<int> &schedule) -> bool {
        SocUnroller un(nl, prog, s);
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

    bool done = runSchedule(*solver, chunkSchedule(opts.depth));
    if (!done) {
        // Budget exhaustion mid-schedule. The incremental session's
        // carried-over heuristic state (activities, saved phases,
        // learned-clause focus from the shallow horizons) can make a
        // deep UNSAT *harder* than a cold start, so before demoting the
        // survivors retry them once the way the pre-incremental engine
        // solved everything: a fresh solver encoding the final depth
        // directly. The re-encode is paid only on this path; verdicts
        // stay deterministic either way. The abandoned session's work
        // still shows up in the counters (kept clauses excepted — they
        // died with it).
        st.conflicts += solver->conflicts();
        st.propagations += solver->propagations();
        st.learnedClauses += solver->learnedClauses();
        st.dbReductions += solver->dbReductions();
        st.restarts += solver->restarts();
        solver = std::make_unique<CdclSolver>();
        done = runSchedule(*solver, {opts.depth});
    }
    if (!done) {
        // Budget exhaustion is conservative: nothing still pending may
        // be promoted to proven.
        for (Verdict &v : verdict) {
            if (v == Verdict::Pending)
                v = Verdict::Unknown;
        }
    }
    st.conflicts += solver->conflicts();
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

    // Each shard is a self-contained deterministic session, run in
    // index order and merged in index order.
    std::vector<std::pair<size_t, size_t>> ranges =
        shardRanges(candidates.size(), kMinPerShard, kMaxShards);
    for (const auto &[begin, end] : ranges) {
        ShardOutcome o = runShard(nl, prog, candidates.data() + begin,
                                  end - begin, opts);
        for (size_t k = 0; k < o.v.size(); k++) {
            const NeverToggleCandidate &c = candidates[begin + k];
            if (o.v[k] == Verdict::Pending)
                res.proven.push_back(c);
            else if (o.v[k] == Verdict::Refuted)
                res.refuted.push_back(c.gate);
            else
                res.unknown.push_back(c.gate);
        }
        res.stats.conflicts += o.stats.conflicts;
        res.stats.queries += o.stats.queries;
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
