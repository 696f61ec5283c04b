/**
 * @file
 * Figure 14: bespoke processors designed to support ALL mutants of an
 * application (the union of the application's and every mutant's
 * toggleable gates), emulating guaranteed support for a class of
 * in-field bug fixes. Reports normalized gate count/area/power and the
 * gate-count overhead over the single-application bespoke design.
 */

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"
#include "src/mutation/mutation.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig14_mutant_designs");
    bool quick = io.quick();

    banner("Bespoke designs supporting all mutants (in-field updates)",
           "Figure 14");

    FlowOptions opts;
    opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);

    const char *names[] = {"binSearch", "inSort", "rle",
                           "tea8",      "viterbi", "autocorr"};

    Table table({"benchmark", "mutants merged", "gates (norm.)",
                 "area (norm.)", "power (norm.)",
                 "gate overhead vs bespoke %"});

    for (const char *name : names) {
        const Workload &w = workloadByName(name);
        DesignMetrics base = flow.measureBaseline({&w});
        BespokeDesign plain = flow.tailor(w);

        std::vector<Mutant> mutants = generateMutants(w);
        if (quick && mutants.size() > 10)
            mutants.resize(10);

        AnalysisResult merged = std::move(plain.analysis);
        AnalysisOptions mopts = opts.analysis;
        mopts.maxTotalCycles = 4'000'000;
        mopts.maxPaths = 40'000;
        int merged_count = 0;
        for (const Mutant &m : mutants) {
            AsmProgram mp = m.workload.assembleProgram();
            AnalysisResult r =
                analyzeActivity(flow.baseline(), mp, mopts);
            if (!r.completed)
                continue;
            merged.activity->mergeFrom(*r.activity);
            merged_count++;
        }
        DesignMetrics m = flow.tailorAnalysis(std::move(merged), {&w}).metrics;

        table.row()
            .add(w.name)
            .add(merged_count)
            .add(static_cast<double>(m.gates) /
                     static_cast<double>(base.gates),
                 2)
            .add(m.areaUm2 / base.areaUm2, 2)
            .add(m.powerNominal.totalUW() /
                     base.powerNominal.totalUW(),
                 2)
            .add(100.0 *
                     (static_cast<double>(m.gates) -
                      static_cast<double>(plain.metrics.gates)) /
                     static_cast<double>(plain.metrics.gates),
                 1);
    }
    io.table("mutant_designs", table,
             "Designs supporting the app plus all its mutants, "
             "normalized to the baseline.\nPaper: 1-40% gate "
             "overhead; area savings remain 23-66%, power savings "
             "13-53%.");
    return io.finish();
}
