#include "src/gating/clock_gating.hh"

#include <map>

#include "src/util/logging.hh"

namespace bespoke
{

double
perFlopClockUW(const PowerParams &power)
{
    // One clock pin, two transitions per cycle (the clock term in
    // computePower() divided by the flop count).
    double v2 = power.voltage * power.voltage;
    double f_hz = power.frequencyMHz * 1e6;
    return 0.5 * 2.0 * power.clockPinCap * power.clockTreeFactor * v2 *
           f_hz * 1e-9;
}

std::vector<EnableBank>
enumerateEnableBanks(const Netlist &nl)
{
    std::map<GateId, std::vector<GateId>> by_enable;
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (g.type == CellType::DFFE)
            by_enable[g.in[1]].push_back(i);
    }
    std::vector<EnableBank> banks;
    for (auto &[en, flops] : by_enable) {
        EnableBank b;
        b.enable = en;
        b.flops = std::move(flops);
        banks.push_back(std::move(b));
    }
    return banks;
}

ClockGatingReport
planClockGating(const std::vector<EnableBank> &banks,
                const std::vector<uint64_t> &enableHigh, uint64_t cycles,
                const PowerParams &power)
{
    // Every bank that passes the duty and width thresholds saves more
    // than its ICG costs, so the plan needs no profitability test.
    static_assert((1.0 - kMaxGatedDuty) *
                          static_cast<double>(kMinGatedBankBits) >
                      kIcgFlopEquivalents,
                  "a thresholded bank must save more than its ICG costs");

    bespoke_assert(enableHigh.size() == banks.size(),
                   "duty vector does not match bank list");
    bespoke_assert(cycles > 0, "no cycles observed for gating plan");

    ClockGatingReport rep;
    rep.candidateBanks = banks.size();
    rep.cyclesObserved = cycles;
    double per_flop = perFlopClockUW(power);
    for (size_t k = 0; k < banks.size(); k++) {
        const EnableBank &b = banks[k];
        double duty = static_cast<double>(enableHigh[k]) /
                      static_cast<double>(cycles);
        if (b.flops.size() < kMinGatedBankBits || duty > kMaxGatedDuty)
            continue;
        double saved =
            ((1.0 - duty) * static_cast<double>(b.flops.size()) -
             kIcgFlopEquivalents) *
            per_flop;
        GatedBank gb;
        gb.enable = b.enable;
        gb.flops = b.flops.size();
        gb.duty = duty;
        gb.savedUW = saved;
        rep.savedClockUW += saved;
        rep.banks.push_back(gb);
    }
    return rep;
}

} // namespace bespoke
