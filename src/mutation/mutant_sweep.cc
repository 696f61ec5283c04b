#include "src/mutation/mutant_sweep.hh"

#include <algorithm>

#include "src/power/power_model.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

MutantPlanePrep::MutantPlanePrep(const Netlist &netlist,
                                 const Workload &w,
                                 const std::vector<Mutant> &mutants)
    : w_(&w), base_(w.assembleProgram()), ctx_(SocContext::make(netlist))
{
    progs_.reserve(mutants.size());
    for (const Mutant &m : mutants)
        progs_.push_back(m.workload.assembleProgram());
}

uint64_t
mutantCycleCap(const Workload &w, uint64_t base_max_cycles)
{
    return std::min(w.maxCycles,
                    base_max_cycles + base_max_cycles / 2 + 64);
}

std::vector<MutantVerdict>
mutantConcreteSweep(const MutantPlanePrep &prep,
                    const MutantSweepOptions &opts)
{
    const size_t nmut = prep.numMutants();
    if (nmut == 0)
        return {};
    const Netlist &nl = prep.context()->netlist;
    Workload w = prep.workload();

    Rng rng(kMutantSweepSeed);
    std::vector<WorkloadInput> inputs;
    for (int i = 0; i < opts.inputsPerMutant; i++)
        inputs.push_back(w.genInput(rng));

    // Base runs go scalar first: a handful of halting runs is cheapest
    // on the event-driven engine, they are the detection reference for
    // every mutant, and their halting cycles size the adaptive cap for
    // the mutant batch (a looping mutant only needs to be simulated
    // long enough to prove it outlived the base program).
    ToggleCounter base_toggles(nl);
    std::vector<GateRun> base_runs;
    uint64_t base_max_cycles = 0;
    for (const WorkloadInput &in : inputs) {
        base_runs.push_back(runWorkloadGate(nl, w, prep.baseProgram(),
                                            in, &base_toggles, nullptr,
                                            nullptr, prep.context()));
        base_max_cycles =
            std::max(base_max_cycles, base_runs.back().cycles);
    }
    w.maxCycles = mutantCycleCap(w, base_max_cycles);

    // One toggle counter per mutant accumulates across all inputs.
    std::vector<std::unique_ptr<ToggleCounter>> mut_toggles;
    for (size_t i = 0; i < nmut; i++)
        mut_toggles.push_back(std::make_unique<ToggleCounter>(nl));

    // Every mutant x input pair goes through one batch, lane-per-run,
    // mutant-major: each mutant's runs stay consecutive, so its shared
    // counter ingests them in input order — the scalar loop's order.
    std::vector<GateScenario> scenarios;
    scenarios.reserve(nmut * inputs.size());
    for (size_t i = 0; i < nmut; i++) {
        for (const WorkloadInput &in : inputs)
            scenarios.push_back(
                {&prep.mutantProgram(i), &in, mut_toggles[i].get()});
    }

    std::vector<GateRun> runs;
    if (opts.forceScalar) {
        for (const GateScenario &s : scenarios) {
            runs.push_back(runWorkloadGate(nl, w, *s.prog, *s.input,
                                           s.toggles, nullptr, nullptr,
                                           prep.context()));
        }
    } else {
        runs = runScenarioGateBatch(nl, w, scenarios, prep.context());
    }

    std::vector<MutantVerdict> verdicts(nmut);
    for (size_t i = 0; i < nmut; i++) {
        for (size_t j = 0; j < inputs.size(); j++) {
            const GateRun &r = runs[i * inputs.size() + j];
            const GateRun &base = base_runs[j];
            if (r.halted != base.halted || r.gpioOut != base.gpioOut ||
                r.out != base.out)
                verdicts[i].detected = true;
        }
    }

    double base_uw =
        computePower(nl, base_toggles, {}, {}).totalUW();
    for (size_t i = 0; i < nmut; i++) {
        double uw = computePower(nl, *mut_toggles[i], {}, {}).totalUW();
        verdicts[i].powerDeltaPct =
            100.0 * (uw - base_uw) / base_uw;
    }
    return verdicts;
}

} // namespace bespoke
