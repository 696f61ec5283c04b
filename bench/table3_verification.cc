/**
 * @file
 * Table 3 + Section 5.1: verification of bespoke processors.
 *
 * Method 1 (exhaustive): input-independent symbolic co-simulation of
 * the original and bespoke designs, comparing outputs every cycle and
 * data memory at every path end.
 *
 * Method 2 (input-based): coverage-directed input generation (KLEE
 * substitute) and concrete gate-level runs on the bespoke design
 * checked against the ISS oracle; reports line/branch/branch-direction
 * coverage and the fraction of bespoke gates exercised.
 */

#include <chrono>

#include "bench/bench_common.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/verify/coverage_gen.hh"
#include "src/verify/runner.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "table3_verification");
    bool quick = io.quick();

    banner("Verification runtime and coverage", "Table 3 / Sec. 5.1");

    FlowOptions opts;
    opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);

    Table table({"benchmark", "X-based sim (s)", "equiv ok",
                 "inputs", "per-input sim (s)", "line %", "br %",
                 "br dir %", "gate %", "outputs ok"});

    for (const Workload &w : workloads()) {
        BespokeDesign d = flow.tailor(w);
        AsmProgram prog = w.assembleProgram();

        // Method 1: symbolic equivalence (X-based simulation).
        auto t0 = std::chrono::steady_clock::now();
        EquivResult eq =
            checkSymbolicEquivalence(flow.baseline(), d.netlist, prog);
        double x_secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

        // Method 2: input-based simulations with generated inputs.
        CoverageInputs cov = generateCoverageInputs(
            w, quick ? 24 : 128, quick ? 6 : 12);
        ToggleCounter toggles(d.netlist);
        bool outputs_ok = true;
        t0 = std::chrono::steady_clock::now();
        // Gate-level runs go through the batch runner; every scenario
        // feeds the one shared toggle counter in input order. With 1-2
        // inputs per app the batch stays below kMinLaneBatch and runs
        // scalar. The ISS oracle is not a gate simulation.
        std::vector<GateScenario> scen(cov.inputs.size());
        for (size_t i = 0; i < cov.inputs.size(); i++)
            scen[i] = {&prog, &cov.inputs[i], &toggles};
        std::vector<GateRun> grs =
            runScenarioGateBatch(d.netlist, w, scen);
        for (size_t i = 0; i < cov.inputs.size(); i++) {
            IssRun ir = runWorkloadIss(w, cov.inputs[i]);
            RunDiff diff = compareRuns(ir, grs[i], w);
            outputs_ok &= diff.ok;
        }
        double per_input_secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            static_cast<double>(cov.inputs.size());

        // Gate coverage: bespoke cells exercised by the runs.
        size_t exercised = 0, cells = 0;
        for (GateId i = 0; i < d.netlist.size(); i++) {
            if (cellPseudo(d.netlist.gate(i).type))
                continue;
            cells++;
            if (toggles.count(i) > 0)
                exercised++;
        }

        table.row()
            .add(w.name)
            .add(x_secs, 2)
            .add(eq.equivalent && eq.completed ? "yes" : "NO")
            .add(static_cast<long>(cov.inputs.size()))
            .add(per_input_secs, 3)
            .add(cov.linePct, 0)
            .add(cov.branchPct, 0)
            .add(cov.branchDirPct, 0)
            .add(100.0 * static_cast<double>(exercised) /
                     static_cast<double>(cells),
                 0);
        table.add(outputs_ok ? "yes" : "NO");
    }
    // Columns 1 and 4 hold measured wall-clock seconds.
    io.table("verification", table,
             "Two-pronged verification (paper Sec. 5.1). Paper: "
             "X-based runtimes within an order of\nmagnitude of one "
             "input-based simulation; 78% of bespoke gates "
             "exercised on average\n(multiplier-heavy benchmarks "
             "lower).",
             {1, 4});
    return io.finish();
}
