/**
 * @file
 * Tables 4 and 5: emulated in-field updates (mutants). Table 4 counts
 * mutants by type for the six benchmarks with the most mutants; Table
 * 5 reports the percentage of mutants whose gate requirements are
 * already covered by the bespoke design of the unmutated application
 * (i.e. bug-fix updates that deploy without a hardware respin).
 */

#include <algorithm>
#include <cmath>

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"
#include "src/mutation/mutant_sweep.hh"
#include "src/mutation/mutation.hh"
#include "src/util/worker_pool.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "table4_5_mutants", BenchIO::Threads);
    bool quick = io.quick();

    banner("Mutant generation and bespoke support for in-field fixes",
           "Tables 4 and 5");

    BespokeFlow flow;

    // The paper's six mutant-rich benchmarks.
    const char *names[] = {"binSearch", "inSort", "rle",
                           "tea8",      "viterbi", "autocorr"};

    WorkerPool pool(io.threads());
    Table t4({"benchmark", "Type I", "Type II", "Type III", "total"});
    Table t5({"benchmark", "Type I supp. %", "Type II supp. %",
              "Type III supp. %", "total supp. %", "analyzed"});
    Table td({"benchmark", "swept", "detected", "detected %",
              "max |dP| %"});

    for (const char *name : names) {
        const Workload &w = workloadByName(name);
        std::vector<Mutant> mutants = generateMutants(w);
        if (quick && mutants.size() > 12)
            mutants.resize(12);

        int count[3] = {}, supported[3] = {}, analyzed[3] = {};
        for (const Mutant &m : mutants)
            count[static_cast<int>(m.type)]++;

        AnalysisResult base = flow.analyze(w);
        AnalysisOptions mopts;
        mopts.maxTotalCycles = 4'000'000;
        mopts.maxPaths = 40'000;
        enum : uint8_t { kSkipped, kAnalyzed, kSupported };
        std::vector<uint8_t> verdict(mutants.size(), kSkipped);
        for (size_t mi = 0; mi < mutants.size(); mi++) {
            pool.post([&, mi] {
                AsmProgram mp =
                    mutants[mi].workload.assembleProgram();
                AnalysisResult r =
                    analyzeActivity(flow.baseline(), mp, mopts);
                if (!r.completed)
                    return;  // divergent mutant: conservatively skipped
                verdict[mi] =
                    mutantSupported(*base.activity, *r.activity)
                        ? kSupported
                        : kAnalyzed;
            });
        }
        pool.drain();

        // Concrete differential sweep, lane-per-mutant: does the
        // mutant change observable behavior, and how far does it move
        // switching power?
        MutantPlanePrep prep(flow.baseline(), w, mutants);
        MutantSweepOptions sopts;
        sopts.inputsPerMutant = quick ? 2 : 4;
        std::vector<MutantVerdict> dyn = mutantConcreteSweep(prep, sopts);
        int detected = 0;
        double max_dp = 0.0;
        for (const MutantVerdict &v : dyn) {
            if (v.detected)
                detected++;
            max_dp = std::max(max_dp, std::abs(v.powerDeltaPct));
        }
        td.row()
            .add(w.name)
            .add(static_cast<int>(dyn.size()))
            .add(detected)
            .add(dyn.empty() ? 0.0 : 100.0 * detected / dyn.size(), 1)
            .add(max_dp, 2);

        for (size_t mi = 0; mi < mutants.size(); mi++) {
            if (verdict[mi] == kSkipped)
                continue;
            int k = static_cast<int>(mutants[mi].type);
            analyzed[k]++;
            if (verdict[mi] == kSupported)
                supported[k]++;
        }

        t4.row()
            .add(w.name)
            .add(count[0])
            .add(count[1])
            .add(count[2])
            .add(count[0] + count[1] + count[2]);

        auto pct = [](int num, int den) {
            return den == 0 ? std::string("-")
                            : formatFixed(100.0 * num / den, 0);
        };
        int tot_supp = supported[0] + supported[1] + supported[2];
        int tot_ana = analyzed[0] + analyzed[1] + analyzed[2];
        t5.row()
            .add(w.name)
            .add(pct(supported[0], analyzed[0]))
            .add(pct(supported[1], analyzed[1]))
            .add(pct(supported[2], analyzed[2]))
            .add(pct(tot_supp, tot_ana))
            .add(tot_ana);
    }

    io.table("mutant_counts", t4,
             "Table 4: mutants by type (Type I: conditional-operator; "
             "Type II: computation-operator;\nType III: loop-condition "
             "operator). Paper totals: 15-83 per benchmark.");
    io.table("mutant_support", t5,
             "Table 5: mutants supported by the ORIGINAL application's "
             "bespoke design without any\nhardware change. Paper: "
             "25-100% per type, 70% of all mutants overall.");
    io.table("mutant_detection", td,
             "Concrete differential sweep (lane-per-mutant): mutants "
             "whose outputs/GPIO/halting\ndiffer from the base program "
             "on swept inputs, and the largest switching-power\nshift "
             "any mutant causes.");
    return io.finish();
}
