/**
 * @file
 * Ablation studies of this implementation's own design choices (called
 * out in DESIGN.md):
 *
 *  1. `concreteVisits` — how long the analysis explores concretely
 *     before conservative widening begins. Trades analysis runtime
 *     against precision (more untoggled gates found). The paper's
 *     multi-hour analyses sit at the high-precision end.
 *
 *  2. Re-synthesis after cutting — the paper notes that cutting alone
 *     is not enough: constant propagation and dead-logic sweeping
 *     after cutting remove substantially more gates.
 *
 *  3. Load-based drive re-sizing after cutting — the paper's
 *     "replace faster cells with smaller, lower power versions".
 */

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/transform/rewrite.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "ablation_analysis", BenchIO::Flow);
    bool quick = io.quick();

    banner("Ablations of the reproduction's design choices",
           "methodology (DESIGN.md)");

    Netlist baseline = buildBsp430();
    sizeForLoads(baseline);
    double total = static_cast<double>(baseline.numCells());

    // ------------------------------------------------------ ablation 1
    {
        Table t({"benchmark", "concreteVisits", "untoggled %",
                 "cycles simulated", "paths", "runtime (s)"});
        std::vector<const char *> names =
            quick ? std::vector<const char *>{"div", "rle"}
                  : std::vector<const char *>{"div", "rle", "inSort",
                                              "tHold"};
        for (const char *name : names) {
            const Workload &w = workloadByName(name);
            for (int visits : {4, 16, 64, 256}) {
                AnalysisOptions opts = io.analysisOptions();
                opts.concreteVisits = visits;
                AnalysisResult r =
                    analyzeActivity(baseline, w, opts);
                t.row()
                    .add(w.name)
                    .add(visits)
                    .add(100.0 *
                             static_cast<double>(r.untoggledCells()) /
                             total,
                         1)
                    .add(static_cast<long>(r.cyclesSimulated))
                    .add(static_cast<long>(r.pathsExplored))
                    .add(r.seconds, 2);
            }
        }
        // Column 5 is measured runtime.
        io.table("concrete_visits", t,
                 "Ablation 1: concrete-exploration budget before "
                 "widening. More budget = more\nproven-constant gates "
                 "(never fewer), at higher analysis cost.",
                 {5});
    }

    // ------------------------------------------------ ablations 2 & 3
    {
        Table t({"benchmark", "cells: cut only", "+ resynthesis",
                 "resynth extra %", "power: no resize uW",
                 "+ resize uW"});
        FlowOptions fopts = io.flowOptions();
        fopts.powerInputsPerWorkload = 1;
        BespokeFlow flow(fopts);
        std::vector<const char *> names =
            quick ? std::vector<const char *>{"binSearch"}
                  : std::vector<const char *>{"binSearch", "intFilt",
                                              "tea8", "dbg"};
        for (const char *name : names) {
            const Workload &w = workloadByName(name);
            AnalysisResult r = flow.analyze(w);

            // Cut WITHOUT re-synthesis: constants tied, nothing else.
            Rewriter rw(flow.baseline());
            for (GateId i = 0; i < flow.baseline().size(); i++) {
                const Gate &g = flow.baseline().gate(i);
                if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
                    g.type == CellType::TIE1) {
                    continue;
                }
                if (!r.activity->toggled(i)) {
                    rw.makeConstant(i, r.activity->initialValue(i) ==
                                           Logic::One);
                }
            }
            Netlist cut_only = rw.compact().netlist;

            // Full pipeline, with and without the re-sizing pass.
            BespokeDesign full = flow.tailor(w);
            Netlist no_resize =
                runTailorPipeline(flow.baseline(), r.activity.get());
            // (drive strengths inherited from the sized baseline)
            DesignMetrics m_no_resize =
                flow.measure(no_resize, {&w});

            double extra =
                100.0 *
                (static_cast<double>(cut_only.numCells()) -
                 static_cast<double>(full.metrics.gates)) /
                static_cast<double>(cut_only.numCells());
            t.row()
                .add(w.name)
                .add(static_cast<long>(cut_only.numCells()))
                .add(static_cast<long>(full.metrics.gates))
                .add(extra, 1)
                .add(m_no_resize.powerNominal.totalUW(), 1)
                .add(full.metrics.powerNominal.totalUW(), 1);
        }
        io.table("resynth_resize", t,
                 "Ablations 2-3: re-synthesis removes additional gates "
                 "beyond the direct cut\n(floating outputs, constant "
                 "cones); re-sizing after cutting recovers the power\n"
                 "the baseline spent driving now-removed fanout.");
    }
    return io.finish();
}
