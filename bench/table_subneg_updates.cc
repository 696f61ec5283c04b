/**
 * @file
 * Section 5.3 (arbitrary in-field updates): overhead of adding
 * Turing-complete update support to a bespoke processor by
 * co-analyzing a subneg interpreter with the target application.
 * Paper: average area and power overheads of 8% and 10%; resulting
 * subneg-enhanced bespoke processors still save 56% area and 43% power
 * on average.
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "table_subneg_updates");
    bool quick = io.quick();

    banner("Turing-complete (subneg) update support overheads",
           "Section 5.3 / Figure 9");

    FlowOptions opts;
    if (quick)
        opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);
    const Workload &subneg = workloadByName("subneg");

    Table table({"benchmark", "area ovh % (vs bespoke)",
                 "area ovh % (vs baseline)", "power ovh %",
                 "area savings %", "power savings %"});
    double sum_aovh = 0, sum_povh = 0, sum_as = 0, sum_ps = 0;
    double sum_bovh = 0;
    int n = 0;

    for (const Workload &w : workloads()) {
        DesignMetrics base = flow.measureBaseline({&w});
        BespokeDesign plain = flow.tailor(w);
        BespokeDesign enhanced = flow.tailorMulti({&w, &subneg});

        double aovh = 100.0 *
                      (enhanced.metrics.areaUm2 - plain.metrics.areaUm2) /
                      plain.metrics.areaUm2;
        double povh = 100.0 *
                      (enhanced.metrics.powerNominal.totalUW() -
                       plain.metrics.powerNominal.totalUW()) /
                      plain.metrics.powerNominal.totalUW();
        double as = savingsPct(base.areaUm2, enhanced.metrics.areaUm2);
        double ps = savingsPct(base.powerNominal.totalUW(),
                               enhanced.metrics.powerNominal.totalUW());
        double bovh = 100.0 *
                      (enhanced.metrics.areaUm2 - plain.metrics.areaUm2) /
                      base.areaUm2;
        table.row()
            .add(w.name)
            .add(aovh, 1)
            .add(bovh, 1)
            .add(povh, 1)
            .add(as, 1)
            .add(ps, 1);
        sum_bovh += bovh;
        sum_aovh += aovh;
        sum_povh += povh;
        sum_as += as;
        sum_ps += ps;
        n++;
    }
    table.row()
        .add("AVERAGE")
        .add(sum_aovh / n, 1)
        .add(sum_bovh / n, 1)
        .add(sum_povh / n, 1)
        .add(sum_as / n, 1)
        .add(sum_ps / n, 1);
    io.table("subneg_updates", table,
             "subneg-enhanced bespoke processors (co-analysis of "
             "the app with a subneg\ninterpreter whose program "
             "lives in all-X RAM). Paper: avg overhead 8% area /\n"
             "10% power; savings remain 56% area / 43% power.\n"
             "NOTE: the paper co-analyzes a minimal X-encoded "
             "subneg instruction pattern; our\nROM is concrete, so "
             "we co-analyze a full subneg *interpreter* (stronger\n"
             "guarantee: updates load into RAM without reflashing), "
             "which costs more gates.");
    return io.finish();
}
