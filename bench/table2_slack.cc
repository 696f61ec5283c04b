/**
 * @file
 * Table 2: timing slack exposed by cutting & stitching, the resulting
 * minimum safe operating voltage (worst-case PVT guardband included),
 * the additional power savings from running at Vmin, and the total
 * power savings vs. the baseline. Paper: slack 18-46%, Vmin 0.60-0.92V,
 * total power savings 50-91.5% (65% average).
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "table2_slack", BenchIO::Flow);

    banner("Exploiting timing slack exposed by gate cutting",
           "Table 2");

    FlowOptions opts = io.flowOptions();
    if (io.quick())
        opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);

    std::printf("Clock period: %.0f ps (%.1f MHz), nominal 1.00 V\n\n",
                flow.clockPeriodPs(), 1e6 / flow.clockPeriodPs());

    Table table({"benchmark", "timing slack %", "Vmin (V)",
                 "addl. savings from slack %", "total power savings %",
                 "freq. gain possible %"});
    double sum_total = 0;
    int n = 0;

    for (const Workload &w : workloads()) {
        DesignMetrics base = flow.measureBaseline({&w});
        BespokeDesign d = flow.tailor(w);
        double base_uw = base.powerNominal.totalUW();
        double nom_uw = d.metrics.powerNominal.totalUW();
        double vmin_uw = d.metrics.powerAtVmin.totalUW();
        double addl = savingsPct(nom_uw, vmin_uw);
        double total = savingsPct(base_uw, vmin_uw);
        double fgain =
            100.0 * (flow.clockPeriodPs() / d.metrics.criticalPathPs -
                     1.0);
        table.row()
            .add(w.name)
            .add(100.0 * d.metrics.slackFraction, 1)
            .add(d.metrics.vmin, 2)
            .add(addl, 1)
            .add(total, 1)
            .add(fgain, 1);
        sum_total += total;
        n++;
    }
    table.row()
        .add("AVERAGE")
        .add("")
        .add("")
        .add("")
        .add(sum_total / n, 1)
        .add("");
    io.metric("clock_period_ps", flow.clockPeriodPs());
    io.table("slack", table,
             "Slack exploitation via voltage scaling "
             "(alpha-power-law delay model, PVT margin applied).\n"
             "Paper: slack 17.9-45.7%, Vmin 0.60-0.92 V, total "
             "power savings 50-91.5% (65% avg),\nor alternatively "
             "+13% average frequency.");
    return io.finish();
}
