/**
 * @file
 * Exact never-toggle proving: given gates the measured activity left at
 * a constant observed value, decide by SAT whether any reachable
 * input/cycle combination can make the net take the other value.
 *
 * One proof mode over the unrolled SoC (src/sat/encode): one unrolling
 * of `depth` frames from reset; per candidate, a Tseitin disjunction
 * "differs from the observed constant in some frame". UNSAT proves the
 * net holds its constant for the entire checked horizon under EVERY
 * input sequence — when `depth` covers the application's analysis
 * envelope (AnalysisResult::cyclesSimulated, the same bounded
 * exploration the X-analysis itself proves constants over), this is
 * exactly the X-analysis's own claim, minus its 3-valued pessimism.
 * SAT means some input sequence flips the net inside the horizon:
 * refuted outright.
 *
 * Incrementality. The check deepens one unrolling chunk by chunk (8,
 * 16, 32, ... frames) on a single solver: shallow chunks refute cheap
 * counterexamples on small formulas, and the final full-depth UNSAT
 * reuses every learned clause, activity, and phase the shallow queries
 * produced. The candidate set is split into contiguous shards (see
 * src/sat/portfolio.hh), each its own deterministic session, run and
 * merged in index order.
 *
 * Soundness: the encoding over-approximates the real reachable
 * envelope (free inputs each frame, free initial RAM, exact ROM), so
 * UNSAT verdicts are proofs over a superset of real executions; and
 * every cut the tailoring pass derives from them is additionally
 * re-proved by both equivalence checkers (symbolic and SAT miter).
 */

#ifndef BESPOKE_SAT_NEVER_TOGGLE_HH
#define BESPOKE_SAT_NEVER_TOGGLE_HH

#include <vector>

#include "src/isa/assembler.hh"
#include "src/netlist/netlist.hh"

namespace bespoke::sat
{

struct NeverToggleOptions
{
    /** Unrolling depth: frames 0..depth-1 from reset are checked; it
     *  must cover the application's full analysis horizon for the
     *  verdict to match the X-analysis's claim. */
    int depth = 6;
    /** Per-query conflict budget (0 = unlimited). Budget exhaustion
     *  classifies the candidate as unknown, never as proven. */
    uint64_t conflictBudget = 50000;
};

/** A net plus the constant value measurement says it is stuck at. */
struct NeverToggleCandidate
{
    GateId gate;
    bool value;
};

struct NeverToggleStats
{
    uint64_t conflicts = 0;
    uint64_t queries = 0;
    uint64_t propagations = 0;
    uint64_t learnedClauses = 0;  ///< learned clauses ever recorded
    uint64_t keptClauses = 0;     ///< learned clauses live at the end
    uint64_t dbReductions = 0;    ///< clause-database reductions
    uint64_t restarts = 0;
    size_t shards = 0;  ///< candidate partition size
};

struct NeverToggleResult
{
    /** Proven: no input sequence can flip the net within the checked
     *  envelope. */
    std::vector<NeverToggleCandidate> proven;
    /** Refuted: the abstract envelope reaches the opposite value from
     *  reset within `depth` cycles. */
    std::vector<GateId> refuted;
    /** Not decided: the conflict budget ran out. */
    std::vector<GateId> unknown;
    NeverToggleStats stats;
};

NeverToggleResult
proveNeverToggling(const Netlist &nl, const AsmProgram &prog,
                   const std::vector<NeverToggleCandidate> &candidates,
                   const NeverToggleOptions &opts = {});

} // namespace bespoke::sat

#endif // BESPOKE_SAT_NEVER_TOGGLE_HH
