/**
 * @file
 * Figure 12: benefit of fine-grained gate-level bespoke design over a
 * coarse-grained module-level bespoke design (an Xtensa-like flow that
 * can only drop entire modules in which no gate is usable). The paper
 * reports up to 75% additional power reduction (22% min, 35% average).
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig12_fine_vs_coarse", BenchIO::Flow);

    banner("Fine-grained (gate) vs. coarse-grained (module) bespoke",
           "Figure 12");

    FlowOptions opts = io.flowOptions();
    if (io.quick())
        opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);

    Table table({"benchmark", "coarse gates", "fine gates",
                 "gate savings %", "area savings %", "power savings %"});
    double sum_power = 0;
    int n = 0;

    for (const Workload &w : workloads()) {
        BespokeDesign coarse = flow.tailorCoarse(w);
        BespokeDesign fine = flow.tailor(w);
        double gs = savingsPct(
            static_cast<double>(coarse.metrics.gates),
            static_cast<double>(fine.metrics.gates));
        double as =
            savingsPct(coarse.metrics.areaUm2, fine.metrics.areaUm2);
        double ps = savingsPct(coarse.metrics.powerNominal.totalUW(),
                               fine.metrics.powerNominal.totalUW());
        table.row()
            .add(w.name)
            .add(static_cast<long>(coarse.metrics.gates))
            .add(static_cast<long>(fine.metrics.gates))
            .add(gs, 1)
            .add(as, 1)
            .add(ps, 1);
        sum_power += ps;
        n++;
    }
    table.row()
        .add("AVERAGE")
        .add("")
        .add("")
        .add("")
        .add("")
        .add(sum_power / n, 1);
    io.table("fine_vs_coarse", table,
             "Savings of gate-level bespoke relative to "
             "module-level bespoke (paper: power up to 75%, min "
             "22%, avg 35%).");
    return io.finish();
}
