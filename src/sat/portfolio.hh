/**
 * @file
 * Deterministic portfolio and partitioning helpers for the SAT layer.
 *
 * 1. Config portfolio (`runPortfolio`): up to N attempts of the same
 *    problem, each a differently-permuted but individually
 *    deterministic CDCL search (`portfolioConfig`), scanned in index
 *    order; the winner is the LOWEST-INDEX decisive attempt, a pure
 *    function of the problem. The scan only goes past config 0 when it
 *    is indecisive (conflict-budget exhaustion) — that is the point: a
 *    budgeted Unknown gets N deterministic chances instead of one.
 *
 * 2. Candidate partitioning (`shardRanges`): a pending candidate set
 *    is split into contiguous shards whose count depends only on the
 *    candidate count; each shard is a self-contained deterministic
 *    session, and the sessions run and merge in index order.
 */

#ifndef BESPOKE_SAT_PORTFOLIO_HH
#define BESPOKE_SAT_PORTFOLIO_HH

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "src/sat/cdcl.hh"

namespace bespoke::sat
{

/**
 * Deterministic portfolio member configs. Index 0 is the default
 * solver (the historical search order); higher indices permute the
 * restart schedule, initial phase, and branching order.
 */
CdclConfig portfolioConfig(int index);

/**
 * Fixed partition of [0, n) into contiguous shards. The shard count is
 * ceil(n / min_per_shard) capped at max_shards; shard lengths differ
 * by at most one.
 */
std::vector<std::pair<size_t, size_t>>
shardRanges(size_t n, size_t min_per_shard, size_t max_shards);

/**
 * Run deterministic tries of one problem in index order, stopping at
 * the first decisive one, and return its index, or -1 if all
 * `attempts` were indecisive. `try_one(index)` must be a pure function
 * of the index (plus the shared problem), returning true when
 * decisive.
 */
int runPortfolio(int attempts, const std::function<bool(int)> &try_one);

} // namespace bespoke::sat

#endif // BESPOKE_SAT_PORTFOLIO_HH
