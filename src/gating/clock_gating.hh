/**
 * @file
 * Activity-driven clock gating for register banks with rare writes.
 *
 * The bsp430 generator emits register banks as DFFE cells sharing one
 * enable net (NetBuilder::regBus), and the cell library has no
 * structural clock nets — the global clock is implicit. An inserted
 * integrated clock gate (ICG) therefore changes no gate-level function
 * at all: a DFFE whose clock is gated while EN is low latches exactly
 * what the ungated DFFE latches. Clock gating here is *planned* as an
 * annotation — which enable-grouped banks are worth gating and how much
 * clock-tree power that saves — and reported next to the paper's
 * oracle module power-gating baseline (Fig. 15), which it lower-bounds
 * structurally: the oracle assumes zero overhead and full module
 * shut-off, the ICG plan pays a per-gate overhead and only stops the
 * clock pins it covers.
 *
 * Power model: every flop's clock pin costs
 * clockPinCap x clockTreeFactor x V^2 x f (the "2 transitions per
 * cycle" clock term in computePower()). Gating a bank of B flops whose
 * enable is high a fraction d of cycles saves (1-d) x B pin-costs and
 * pays kIcgFlopEquivalents pin-costs for the ICG cell and its always-on
 * clock input.
 */

#ifndef BESPOKE_GATING_CLOCK_GATING_HH
#define BESPOKE_GATING_CLOCK_GATING_HH

#include <vector>

#include "src/power/power_model.hh"

namespace bespoke
{

/** Gate only banks whose enable duty is at or below this. */
constexpr double kMaxGatedDuty = 0.25;
/** Minimum flops sharing the enable to justify an ICG. */
constexpr size_t kMinGatedBankBits = 4;
/** ICG overhead, in units of one flop's clock-pin power. */
constexpr double kIcgFlopEquivalents = 1.5;

/** A DFFE register bank: flops sharing one enable net. */
struct EnableBank
{
    GateId enable = kNoGate;
    std::vector<GateId> flops;
};

/** One bank accepted into the gating plan. */
struct GatedBank
{
    GateId enable = kNoGate;
    size_t flops = 0;
    double duty = 0.0;     ///< fraction of cycles enable was 1 or X
    double savedUW = 0.0;  ///< net clock power saved at nominal V
};

struct ClockGatingReport
{
    std::vector<GatedBank> banks;
    /** Enable-grouped banks examined (incl. rejected ones). */
    size_t candidateBanks = 0;
    /** Net clock power saved at nominal voltage (µW). Scale by
     *  (V/Vnominal)^2 for a design operating at V. */
    double savedClockUW = 0.0;
    uint64_t cyclesObserved = 0;

    size_t gatedFlops() const
    {
        size_t n = 0;
        for (const GatedBank &b : banks)
            n += b.flops;
        return n;
    }
};

/** Clock power of one flop's clock pin at nominal voltage (µW). */
double perFlopClockUW(const PowerParams &power = {});

/**
 * Group DFFE cells by their enable net. Banks are returned in
 * ascending enable-id order, flops in ascending id order, so the plan
 * is deterministic for a given netlist.
 */
std::vector<EnableBank> enumerateEnableBanks(const Netlist &netlist);

/**
 * Decide which banks to gate given measured enable duty.
 * `enableHigh[k]` = cycles in which banks[k].enable was 1 or X (X is
 * conservatively high: a maybe-writing bank cannot be gated), out of
 * `cycles` observed cycles.
 */
ClockGatingReport planClockGating(const std::vector<EnableBank> &banks,
                                  const std::vector<uint64_t> &enableHigh,
                                  uint64_t cycles,
                                  const PowerParams &power = {});

} // namespace bespoke

#endif // BESPOKE_GATING_CLOCK_GATING_HH
