/**
 * @file
 * Independent bounded equivalence checking of original vs bespoke
 * netlists by SAT, as a cross-check on the symbolic equivalence engine
 * (src/bespoke/equiv_check). The two provers share no simulation code:
 * this one lowers both designs into one CNF miter (src/sat/encode, the
 * follower sharing the leader's inputs and memory bus) and asks a CDCL
 * solver whether any frame can make a shared OUTPUT port differ.
 *
 * The verdict is *bounded*: UNSAT means no divergence is reachable
 * within `depth` cycles of reset under the abstract memory envelope —
 * strictly stronger than the measured evidence, weaker than the
 * symbolic engine's unbounded exploration. A SAT answer yields a
 * concrete input witness (gpio/irq per frame) which is replayed on the
 * real three-valued simulator; only a replay where both designs hold
 * *known, differing* output values confirms inequivalence (an X in the
 * original cannot witness a mismatch — same rule as the symbolic
 * engine). An unconfirmed witness downgrades the verdict to Unknown,
 * because the abstraction (free RAM image, havocked words) may have
 * invented it.
 *
 * Incrementality. The prover deepens ONE solver's frame chain chunk
 * by chunk (8, 16, 32, ... frames; src/sat/portfolio.hh); each chunk's
 * divergence disjunction is solved as an assumption, so an UNSAT chunk
 * leaves the solver (learned clauses, activities, phases) primed for
 * the next, and a SAT chunk short-circuits with a witness at the
 * shallowest depth that has one. There is one session under one solver
 * configuration: when a conflict budget is set and a chunk exhausts
 * it, the verdict is Unknown, the conservative answer.
 *
 * encodeMiter() is exposed separately so `bespoke_io export-cnf` can
 * dump the identical formula as DIMACS/SMT2 for third-party solvers.
 */

#ifndef BESPOKE_SAT_EQUIV_PROVER_HH
#define BESPOKE_SAT_EQUIV_PROVER_HH

#include <string>
#include <vector>

#include "src/isa/assembler.hh"
#include "src/netlist/netlist.hh"
#include "src/sat/cnf.hh"
#include "src/sat/encode.hh"

namespace bespoke::sat
{

struct SatEquivOptions
{
    /** Frames to unroll from reset. */
    int depth = 24;
    /** Solver conflict budget (0 = unlimited). */
    uint64_t conflictBudget = 0;
    /**
     * Ignored: the prover is sequential. Kept only because the
     * perfbench driver reads it; remove with the benchmark's next
     * revision.
     */
    int threads = 1;
};

enum class SatEquivVerdict : uint8_t
{
    Equivalent,     ///< UNSAT: no divergence within the bound
    NotEquivalent,  ///< SAT and the witness replays concretely
    Unknown,        ///< budget exhausted, or witness did not confirm
};

struct SatEquivResult
{
    SatEquivVerdict verdict = SatEquivVerdict::Unknown;
    int depth = 0;
    uint64_t conflicts = 0;
    uint64_t vars = 0;
    uint64_t propagations = 0;
    uint64_t learnedClauses = 0;  ///< learned clauses ever recorded
    uint64_t keptClauses = 0;     ///< learned clauses live at the end
    uint64_t dbReductions = 0;    ///< clause-database reductions
    uint64_t restarts = 0;
    uint64_t queries = 0;         ///< chunk queries issued
    /** SAT only: per-frame gpio_in / irq_ext extracted from the model. */
    std::vector<uint16_t> witnessGpio;
    std::vector<bool> witnessIrq;
    bool witnessConfirmed = false;
    std::string detail;  ///< human-readable mismatch / status
};

/**
 * Encode the miter property into `sink` via an unroller already holding
 * leader + follower: unrolls `depth` frames and returns a literal that
 * is true iff some shared OUTPUT port differs in some frame (folded to
 * kFalse when the designs are structurally identical under encoding).
 */
Lit encodeMiter(SocUnroller &un, const Netlist &original,
                const Netlist &bespoke_nl, int depth);

/**
 * Bounded SAT equivalence check of `bespoke_nl` against `original` for
 * this program, with concrete witness confirmation.
 */
SatEquivResult proveEquivalentSat(const Netlist &original,
                                  const Netlist &bespoke_nl,
                                  const AsmProgram &prog,
                                  const SatEquivOptions &opts = {});

} // namespace bespoke::sat

#endif // BESPOKE_SAT_EQUIV_PROVER_HH
