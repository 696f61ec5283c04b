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
    // Per-cycle module activity plus aggregate toggles for the power
    // model, collected lane-parallel by the batched runner.
    ToggleCounter toggles(nl);
    ModuleIdleCounts idle;
    GateBatchObservers obs;
    obs.toggles = &toggles;
    obs.moduleIdle = &idle;

    AsmProgram prog = w.assembleProgram();
    Rng rng(seed);
    std::vector<WorkloadInput> in;
    for (int i = 0; i < inputs; i++)
        in.push_back(w.genInput(rng));
    std::vector<GateRun> runs = runWorkloadGateBatch(nl, w, prog, in, obs);
    for (const GateRun &run : runs) {
        if (!run.halted)
            bespoke_warn("gating run of ", w.name, " did not halt");
    }
    const std::array<uint64_t, kNumModules> &idle_cycles = idle.idle;
    const uint64_t total_cycles = idle.totalCycles;
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
