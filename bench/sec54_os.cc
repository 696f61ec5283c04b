/**
 * @file
 * Section 5.4: bespoke processors for applications running with an
 * operating system. minios (our FreeRTOS substitution: a cooperative
 * two-task kernel with real context switching) is analyzed alone, with
 * each benchmark, and with all benchmarks together. Paper: 57% of
 * gates unusable by the OS alone (including the entire multiplier);
 * >=37% unused per app+OS; 27% unused with all 15 apps + OS.
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "sec54_os", BenchIO::Flow);
    bool quick = io.quick();

    banner("System code: bespoke design with an OS (minios)",
           "Section 5.4");

    FlowOptions opts = io.flowOptions();
    BespokeFlow flow(opts);
    const Netlist &nl = flow.baseline();
    double total = static_cast<double>(nl.numCells());
    const Workload &os = workloadByName("minios");

    AnalysisResult os_act = flow.analyze(os);
    size_t mult_total = nl.moduleStats(Module::Mult).numCells;
    size_t mult_toggled = 0;
    for (GateId i = 0; i < nl.size(); i++) {
        if (!cellPseudo(nl.gate(i).type) &&
            nl.gate(i).module == Module::Mult &&
            os_act.activity->toggled(i)) {
            mult_toggled++;
        }
    }
    double os_unusable =
        100.0 *
        static_cast<double>(os_act.activity->untoggledCellCount()) /
        total;
    std::printf("minios alone: %.0f%% of gates unusable (%zu of %zu "
                "multiplier gates toggleable)\n\n",
                os_unusable, mult_toggled, mult_total);
    io.metric("os_unusable_pct", os_unusable);
    io.metric("mult_gates_toggled",
              static_cast<double>(mult_toggled));

    Table table({"configuration", "unused gates %", "gate savings %",
                 "area savings %"});
    ActivityTracker all_union = *os_act.activity;
    int count = 0;
    for (const Workload &w : workloads()) {
        if (quick && count >= 5)
            break;
        count++;
        AnalysisResult app = flow.analyze(w);
        ActivityTracker merged = *os_act.activity;
        merged.mergeFrom(*app.activity);
        all_union.mergeFrom(*app.activity);

        Netlist design = runTailorPipeline(nl, &merged);
        table.row()
            .add(w.name + " + minios")
            .add(100.0 *
                     static_cast<double>(merged.untoggledCellCount()) /
                     total,
                 1)
            .add(savingsPct(total,
                            static_cast<double>(design.numCells())),
                 1)
            .add(savingsPct(nl.stats().area, design.stats().area), 1);
    }
    Netlist all_design = runTailorPipeline(nl, &all_union);
    table.row()
        .add("ALL apps + minios")
        .add(100.0 *
                 static_cast<double>(all_union.untoggledCellCount()) /
                 total,
             1)
        .add(savingsPct(total,
                        static_cast<double>(all_design.numCells())),
             1)
        .add(savingsPct(nl.stats().area, all_design.stats().area), 1);
    io.table("os_codesign", table,
             "Applications co-analyzed with the minios kernel "
             "(union of toggleable gates).\nPaper: 37% unused worst "
             "case per app (49% avg); 27% unused with all 15 apps "
             "+ OS.");
    return io.finish();
}
