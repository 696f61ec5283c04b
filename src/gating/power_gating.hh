/**
 * @file
 * Oracular module-level power-gating baseline (paper Fig. 15).
 *
 * Models an idealized power-gating scheme with zero overhead: each
 * openMSP430-style module has its own power domain, and in any cycle in
 * which none of the module's gates toggle, the module dissipates no
 * power at all (no leakage, no clock power) and wakes instantly. Real
 * power gating is strictly worse (isolation cells, retention, wake
 * latency), so this is an upper bound on what power gating could save —
 * which the paper shows is far below bespoke tailoring.
 */

#ifndef BESPOKE_GATING_POWER_GATING_HH
#define BESPOKE_GATING_POWER_GATING_HH

#include <array>

#include "src/power/power_model.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

struct GatingResult
{
    double baselineUW = 0.0;
    double gatedUW = 0.0;
    /** Fraction of cycles each module spent fully idle. */
    std::array<double, kNumModules> idleFraction = {};

    double
    savingsPercent() const
    {
        return 100.0 * (baselineUW - gatedUW) / baselineUW;
    }
};

/**
 * Evaluate oracle power gating for one workload on a netlist. The
 * concrete runs replay one by one on the scalar simulator, whose
 * per-cycle hook diffs each module's gates against the previous cycle.
 * @param inputs number of concrete input sets to average over.
 */
GatingResult evaluateOracleGating(const Netlist &netlist,
                                  const Workload &w, int inputs,
                                  uint64_t seed,
                                  const PowerParams &power = {},
                                  const TimingParams &timing = {});

} // namespace bespoke

#endif // BESPOKE_GATING_POWER_GATING_HH
