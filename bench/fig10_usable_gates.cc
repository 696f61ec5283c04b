/**
 * @file
 * Figure 10: fraction of the processor's gates each benchmark can
 * toggle for ANY input (input-independent gate activity analysis),
 * broken down by module. This is the guaranteed-sound counterpart of
 * the profiled Fig. 2 numbers and directly determines what cutting &
 * stitching may remove.
 */

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig10_usable_gates", BenchIO::Threads);

    banner("Input-independent usable-gate fractions per module",
           "Figure 10");

    Netlist nl = buildBsp430();
    double total = static_cast<double>(nl.numCells());

    std::vector<std::string> headers = {"benchmark", "usable %"};
    size_t module_cells[kNumModules] = {};
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (!cellPseudo(g.type))
            module_cells[static_cast<int>(g.module)]++;
    }
    for (int m = 0; m < kNumModules; m++) {
        if (module_cells[m] > 0)
            headers.push_back(moduleName(static_cast<Module>(m)));
    }
    Table table(headers);

    // First row: module shares of the baseline design (paper's
    // leftmost bar).
    table.row().add("(baseline share)").add(100.0, 1);
    for (int m = 0; m < kNumModules; m++) {
        if (module_cells[m] == 0)
            continue;
        table.add(100.0 * static_cast<double>(module_cells[m]) / total,
                  1);
    }

    // One task per benchmark; each analysis runs inside its task, so
    // the numbers are identical to a one-app-at-a-time sweep (and to
    // the committed baselines) for any --threads value. Rows are
    // emitted in workload order once every task has returned.
    const std::vector<Workload> &apps = workloads();
    struct AppRow
    {
        size_t toggledPerModule[kNumModules] = {};
        size_t toggledTotal = 0;
        uint64_t gatesEvaluated = 0;
        uint64_t laneSweeps = 0;
        uint64_t laneCycles = 0;
        bool completed = false;
    };
    std::vector<AppRow> rows(apps.size());
    parallelFor(apps.size(), io.threads(), [&](size_t a) {
        AnalysisResult r = analyzeActivity(nl, apps[a]);
        AppRow &row = rows[a];
        row.completed = r.completed;
        row.gatesEvaluated = r.gatesEvaluated;
        row.laneSweeps = r.laneSweeps;
        row.laneCycles = r.laneCycles;
        for (GateId i = 0; i < nl.size(); i++) {
            const Gate &g = nl.gate(i);
            if (cellPseudo(g.type) || !r.activity->toggled(i))
                continue;
            row.toggledPerModule[static_cast<int>(g.module)]++;
            row.toggledTotal++;
        }
    });

    // Work counters (JSON only; --check ignores them).
    uint64_t gates_evaluated = 0, lane_sweeps = 0, lane_cycles = 0;
    for (const AppRow &row : rows) {
        gates_evaluated += row.gatesEvaluated;
        lane_sweeps += row.laneSweeps;
        lane_cycles += row.laneCycles;
    }
    io.counter("gates_evaluated", static_cast<double>(gates_evaluated));
    io.counter("lane_sweeps", static_cast<double>(lane_sweeps));
    io.counter("lane_cycles", static_cast<double>(lane_cycles));
    if (lane_sweeps > 0) {
        io.counter("lanes_utilized_avg",
                   static_cast<double>(lane_cycles) /
                       static_cast<double>(lane_sweeps));
    }

    for (size_t a = 0; a < apps.size(); a++) {
        const AppRow &row = rows[a];
        if (!row.completed)
            bespoke_warn(apps[a].name, ": analysis hit caps");
        table.row().add(apps[a].name)
            .add(100.0 * static_cast<double>(row.toggledTotal) / total,
                 1);
        for (int m = 0; m < kNumModules; m++) {
            if (module_cells[m] == 0)
                continue;
            // Contribution of this module to the usable fraction
            // (stacked-bar component, as a % of all design gates).
            table.add(100.0 * static_cast<double>(
                                  row.toggledPerModule[m]) /
                          total,
                      1);
        }
    }
    io.table("usable_gates", table,
             "Gates toggleable by each benchmark (% of all cells; "
             "per-module stacked components).\nPaper: at most 57% "
             "usable; 11 of 15 benchmarks below 50%.");
    return io.finish();
}
