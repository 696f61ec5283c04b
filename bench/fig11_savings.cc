/**
 * @file
 * Figure 11: reduction in gate count, area, and power of each bespoke
 * processor relative to the baseline general-purpose core. The paper
 * reports area savings of 46-92% (62% average) and power savings of
 * 37-74% (50% average).
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig11_savings", BenchIO::Flow);

    banner("Bespoke gate/area/power savings vs. baseline core",
           "Figure 11");

    FlowOptions opts = io.flowOptions();
    if (io.quick())
        opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);

    Table table({"benchmark", "gate savings %", "area savings %",
                 "power savings %", "gates", "area um2", "power uW"});
    double sum_gate = 0, sum_area = 0, sum_power = 0;
    int n = 0;

    for (const Workload &w : workloads()) {
        DesignMetrics base = flow.measureBaseline({&w});
        BespokeDesign d = flow.tailor(w);
        double gs = savingsPct(static_cast<double>(base.gates),
                               static_cast<double>(d.metrics.gates));
        double as = savingsPct(base.areaUm2, d.metrics.areaUm2);
        double ps = savingsPct(base.powerNominal.totalUW(),
                               d.metrics.powerNominal.totalUW());
        table.row()
            .add(w.name)
            .add(gs, 1)
            .add(as, 1)
            .add(ps, 1)
            .add(static_cast<long>(d.metrics.gates))
            .add(d.metrics.areaUm2, 0)
            .add(d.metrics.powerNominal.totalUW(), 1);
        sum_gate += gs;
        sum_area += as;
        sum_power += ps;
        n++;
    }
    table.row()
        .add("AVERAGE")
        .add(sum_gate / n, 1)
        .add(sum_area / n, 1)
        .add(sum_power / n, 1)
        .add("")
        .add("")
        .add("");
    io.table("savings", table,
             "Savings relative to the baseline bsp430 core "
             "(paper: area 46-92%, avg 62%; power 37-74%, avg "
             "50%).");
    return io.finish();
}
