/**
 * @file
 * Deterministic partitioning helpers for the SAT layer.
 *
 * 1. Candidate partitioning (`shardRanges`): a pending candidate set
 *    is split into contiguous shards whose count depends only on the
 *    candidate count; each shard is a self-contained deterministic
 *    session, and the sessions run and merge in index order.
 *
 * 2. Depth partitioning (`deepeningSchedule`): both bounded provers
 *    (never-toggle and the equivalence miter) extend their unrolling
 *    in the same doubling chunks.
 */

#ifndef BESPOKE_SAT_PORTFOLIO_HH
#define BESPOKE_SAT_PORTFOLIO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace bespoke::sat
{

/**
 * Fixed partition of [0, n) into contiguous shards. The shard count is
 * ceil(n / min_per_shard) capped at max_shards; shard lengths differ
 * by at most one.
 */
std::vector<std::pair<size_t, size_t>>
shardRanges(size_t n, size_t min_per_shard, size_t max_shards);

/**
 * Incremental deepening schedule: 8, 16, 32, ..., depth. Shallow
 * chunks refute cheap counterexamples on small formulas before the
 * full-depth encoding exists; the solver (learned clauses, activities,
 * phases) is shared across all chunks, so the final full-depth UNSAT
 * starts from everything the shallow queries taught it.
 */
std::vector<int> deepeningSchedule(int depth);

} // namespace bespoke::sat

#endif // BESPOKE_SAT_PORTFOLIO_HH
