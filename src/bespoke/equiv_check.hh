/**
 * @file
 * Symbolic equivalence check between the original and a bespoke
 * processor (paper Sec. 5.1, first verification method).
 *
 * Both netlists are driven through the same input-independent symbolic
 * execution tree (same X inputs, same forced decisions at forks): the
 * check runs the two cores in lockstep on the activity analysis's
 * exploration engine (PathExplorer, with the same merge/widen rules,
 * budgets and batch schedule). Every observed cycle, all primary
 * outputs present in both designs are compared; when a path halts, the
 * data memories are compared after the six-cycle halt window. A
 * mismatch is any net/location where both designs hold *known* values
 * that differ — an X in the original is an over-approximation and
 * cannot witness inequivalence. The first mismatch stops the whole
 * exploration.
 *
 * A path whose fetch PC goes symbolic ends there: everything up to
 * that cycle is compared, nothing after it (the activity analysis
 * enumerates the candidate PCs; this check does not).
 *
 * Options: the budgets and `concreteVisits` apply as in the analysis;
 * the IRQ line of both cores is X, as in the analysis; `laneWidth`
 * selects the lane evaluator (64-lane planes, or 1 for the reference
 * scalar evaluator), with the same verdict and counters either way.
 *
 * Note that industrial equivalence checkers cannot perform this check:
 * the designs are only equivalent *for this application*, not in
 * general (paper footnote 3).
 */

#ifndef BESPOKE_BESPOKE_EQUIV_CHECK_HH
#define BESPOKE_BESPOKE_EQUIV_CHECK_HH

#include "src/analysis/activity_analysis.hh"

namespace bespoke
{

struct EquivResult
{
    bool equivalent = true;
    bool completed = true;  ///< exploration finished under the caps
    uint64_t cyclesChecked = 0;
    uint64_t pathsExplored = 0;
    uint64_t outputsCompared = 0;
    std::string firstMismatch;
};

/**
 * Check that `bespoke_nl` is output-equivalent to `original` on every
 * path of the program's symbolic execution tree, up to the first
 * symbolic PC on each path.
 */
EquivResult checkSymbolicEquivalence(const Netlist &original,
                                     const Netlist &bespoke_nl,
                                     const AsmProgram &prog,
                                     const AnalysisOptions &opts = {});

} // namespace bespoke

#endif // BESPOKE_BESPOKE_EQUIV_CHECK_HH
