/**
 * @file
 * Scenario: before taping out a bespoke processor, a product team
 * audits how robust the design is to future bug-fix updates (paper
 * Sec. 5.3). The example generates emulated bug fixes (mutants) for
 * the shipped firmware, checks which ones the tailored die already
 * supports, and quantifies the cost of hardening the die to support
 * every anticipated fix.
 */

#include <cstdio>

#include "src/bespoke/flow.hh"
#include "src/util/logging.hh"
#include "src/mutation/mutation.hh"

using namespace bespoke;

int
main()
{
    setVerbose(false);
    const Workload &app = workloadByName("rle");

    BespokeFlow flow;
    BespokeDesign shipped = flow.tailor(app);
    DesignMetrics base = flow.measureBaseline({&app});
    std::printf("shipped die for '%s': %zu cells (baseline %zu)\n\n",
                app.name.c_str(), shipped.metrics.gates, base.gates);

    // Emulate the space of likely bug fixes.
    std::vector<Mutant> mutants = generateMutants(app);
    std::printf("anticipated fixes (mutants): %zu\n", mutants.size());

    AnalysisOptions mopts;
    mopts.maxTotalCycles = 4'000'000;
    mopts.maxPaths = 40'000;
    AnalysisResult hardened;
    hardened.activity =
        std::make_unique<ActivityTracker>(*shipped.analysis.activity);
    hardened.completed = true;
    int supported = 0, analyzed = 0;
    for (const Mutant &m : mutants) {
        AsmProgram prog = m.workload.assembleProgram();
        AnalysisResult r =
            analyzeActivity(flow.baseline(), prog, mopts);
        if (!r.completed) {
            std::printf("  line %3d %-4s -> %-4s  [%s]  divergent; "
                        "excluded\n",
                        m.sourceLine, m.from.c_str(), m.to.c_str(),
                        mutantTypeName(m.type));
            continue;
        }
        analyzed++;
        bool ok = mutantSupported(*shipped.analysis.activity,
                                  *r.activity);
        supported += ok;
        std::printf("  line %3d %-4s -> %-4s  [%s]  %s\n",
                    m.sourceLine, m.from.c_str(), m.to.c_str(),
                    mutantTypeName(m.type),
                    ok ? "supported as-is" : "needs extra gates");
        hardened.activity->mergeFrom(*r.activity);
    }
    std::printf("\n%d of %d analyzable fixes deploy on the shipped "
                "die unchanged\n",
                supported, analyzed);

    // Harden the die to support every anticipated fix.
    DesignMetrics hm =
        flow.tailorAnalysis(std::move(hardened), {&app}).metrics;
    std::printf("hardened die: %zu cells (+%.1f%% vs shipped, still "
                "-%.1f%% vs baseline)\n",
                hm.gates,
                100.0 * (static_cast<double>(hm.gates) -
                         static_cast<double>(shipped.metrics.gates)) /
                    static_cast<double>(shipped.metrics.gates),
                100.0 * (static_cast<double>(base.gates) -
                         static_cast<double>(hm.gates)) /
                    static_cast<double>(base.gates));
    return 0;
}
