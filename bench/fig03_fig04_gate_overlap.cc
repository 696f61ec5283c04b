/**
 * @file
 * Figures 3 and 4: different applications leave different gates
 * unexercised, and even the SAME instruction mix in a different order
 * (intFilt vs. scrambled intFilt) leaves different gates unexercised.
 * The paper shows die plots; we report the per-module common/unique
 * untoggled-gate breakdown.
 */

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"

using namespace bespoke;

namespace
{

void
comparePair(BenchIO &io, const std::string &key, const Netlist &nl,
            const std::string &name_a, const std::string &name_b,
            const char *figure)
{
    const AnalysisOptions aopts = io.analysisOptions();
    AnalysisResult ra =
        analyzeActivity(nl, workloadByName(name_a), aopts);
    AnalysisResult rb =
        analyzeActivity(nl, workloadByName(name_b), aopts);

    size_t common = 0, only_a = 0, only_b = 0;
    size_t common_m[kNumModules] = {}, a_m[kNumModules] = {},
           b_m[kNumModules] = {};
    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (cellPseudo(g.type))
            continue;
        bool ua = !ra.activity->toggled(i);
        bool ub = !rb.activity->toggled(i);
        int m = static_cast<int>(g.module);
        if (ua && ub) {
            common++;
            common_m[m]++;
        } else if (ua) {
            only_a++;
            a_m[m]++;
        } else if (ub) {
            only_b++;
            b_m[m]++;
        }
    }

    std::printf("\n--- %s: %s vs %s ---\n", figure, name_a.c_str(),
                name_b.c_str());
    Table t({"module", "untoggled by both",
             ("only " + name_a), ("only " + name_b)});
    for (int m = 0; m < kNumModules; m++) {
        if (common_m[m] + a_m[m] + b_m[m] == 0)
            continue;
        t.row()
            .add(moduleName(static_cast<Module>(m)))
            .add(static_cast<long>(common_m[m]))
            .add(static_cast<long>(a_m[m]))
            .add(static_cast<long>(b_m[m]));
    }
    t.row()
        .add("TOTAL")
        .add(static_cast<long>(common))
        .add(static_cast<long>(only_a))
        .add(static_cast<long>(only_b));
    io.table(key, t);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig03_fig04_gate_overlap", BenchIO::Lanes);

    banner("Unused-gate overlap between applications",
           "Figures 3 and 4");

    Netlist nl = buildBsp430();

    // Fig. 3: two different applications (FFT vs binSearch).
    comparePair(io, "fig3_two_apps", nl, "FFT", "binSearch",
                "Figure 3");

    // Fig. 4: the same instructions in a different order.
    comparePair(io, "fig4_scrambled", nl, "intFilt",
                "intFilt-scrambled", "Figure 4");

    std::printf(
        "\nEach pair leaves overlapping but DIFFERENT gates unused — "
        "including the\nscrambled twin with an identical instruction "
        "mix — so neither ISA-level nor\nprofile-based reasoning can "
        "identify removable gates; hardware/software\nco-analysis is "
        "required (paper Sec. 2).\n");
    return io.finish();
}
