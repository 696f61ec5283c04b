#include "src/gating/power_gating.hh"

#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

GatingResult
evaluateOracleGating(const Netlist &nl, const Workload &w, int inputs,
                     uint64_t seed, const PowerParams &power,
                     const TimingParams &timing)
{
    // Aggregate toggles for the power model plus, per cycle, which
    // modules had any gate change: each run's first cycle primes a
    // fresh mirror, every later cycle counts.
    ToggleCounter toggles(nl);
    std::array<uint64_t, kNumModules> idle_cycles{};
    uint64_t total_cycles = 0;

    AsmProgram prog = w.assembleProgram();
    std::shared_ptr<const SocContext> ctx = SocContext::make(nl);
    Rng rng(seed);
    for (int i = 0; i < inputs; i++) {
        WorkloadInput input = w.genInput(rng);
        ValueMirror last(nl.size());
        auto per_cycle = [&](const GateSim &sim) {
            bool active[kNumModules] = {};
            if (!last.sync(sim, [&](GateId g) {
                    active[static_cast<int>(nl.gate(g).module)] = true;
                }))
                return;
            for (int m = 0; m < kNumModules; m++) {
                if (!active[m])
                    idle_cycles[m]++;
            }
            total_cycles++;
        };
        GateRun run = runWorkloadGate(nl, w, prog, input, &toggles,
                                      nullptr, per_cycle, ctx);
        if (!run.halted)
            bespoke_warn("gating run of ", w.name, " did not halt");
    }
    bespoke_assert(total_cycles > 0);

    PowerReport base = computePower(nl, toggles, power, timing);

    GatingResult res;
    res.baselineUW = base.totalUW();

    // Per-module static power (leakage + clock) that gating can remove
    // during idle cycles; switching power is already zero when a
    // module does not toggle.
    double saved = 0.0;
    double f_hz = power.frequencyMHz * 1e6;
    double v2 = power.voltage * power.voltage;
    for (int m = 0; m < kNumModules; m++) {
        NetlistStats s = nl.moduleStats(static_cast<Module>(m));
        double leak_uw = s.leakage * 1e-3 * v2;
        double clk_uw = 0.5 * 2.0 * power.clockPinCap *
                        power.clockTreeFactor *
                        static_cast<double>(s.numSequential) * v2 *
                        f_hz * 1e-9;
        double idle_frac = static_cast<double>(idle_cycles[m]) /
                           static_cast<double>(total_cycles);
        res.idleFraction[m] = idle_frac;
        saved += idle_frac * (leak_uw + clk_uw);
    }
    res.gatedUW = res.baselineUW - saved;
    return res;
}

} // namespace bespoke
