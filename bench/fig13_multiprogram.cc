/**
 * @file
 * Figure 13: bespoke processors supporting multiple applications. For
 * each N, bespoke designs are built for combinations of N of the 15
 * benchmarks (union of toggleable gates) and the normalized gate
 * count, area, and power ranges are reported. The paper enumerates all
 * combinations; we enumerate when feasible and sample otherwise (the
 * per-application activity analyses are reused across combinations).
 */

#include <algorithm>

#include "bench/bench_common.hh"
#include "src/bespoke/flow.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "fig13_multiprogram", BenchIO::Flow);
    bool quick = io.quick();
    const int samples_per_n = quick ? 4 : 12;

    banner("Multi-program bespoke processors", "Figure 13");

    FlowOptions opts = io.flowOptions();
    opts.powerInputsPerWorkload = 1;
    BespokeFlow flow(opts);
    const std::vector<Workload> &apps = workloads();
    const int num_apps = static_cast<int>(apps.size());

    // Per-application activities, computed once.
    std::vector<AnalysisResult> acts;
    for (const Workload &w : apps)
        acts.push_back(flow.analyze(w));

    // Baseline reference (power measured across all applications).
    std::vector<const Workload *> all_apps;
    for (const Workload &w : apps)
        all_apps.push_back(&w);
    DesignMetrics base = flow.measureBaseline(all_apps);

    Table table({"N programs", "combos", "gates min-max (norm.)",
                 "area min-max (norm.)", "power min-max (norm.)"});

    Rng rng(31415);
    for (int n = 1; n <= num_apps; n++) {
        // Choose combinations: exhaustive for n==1/n==15, random
        // samples otherwise.
        std::vector<std::vector<int>> combos;
        if (n == 1) {
            for (int i = 0; i < num_apps; i++)
                combos.push_back({i});
        } else if (n == num_apps) {
            std::vector<int> all(num_apps);
            for (int i = 0; i < num_apps; i++)
                all[i] = i;
            combos.push_back(all);
        } else {
            for (int s = 0; s < samples_per_n; s++) {
                std::vector<int> pool(num_apps);
                for (int i = 0; i < num_apps; i++)
                    pool[i] = i;
                for (int i = 0; i < n; i++) {
                    int j = i + static_cast<int>(
                                    rng.below(num_apps - i));
                    std::swap(pool[i], pool[j]);
                }
                combos.push_back(
                    std::vector<int>(pool.begin(), pool.begin() + n));
            }
        }

        double gmin = 1e18, gmax = 0, amin = 1e18, amax = 0;
        double pmin = 1e18, pmax = 0;
        for (const auto &combo : combos) {
            ActivityTracker merged = *acts[combo[0]].activity;
            std::vector<const Workload *> members;
            members.push_back(&apps[combo[0]]);
            for (size_t k = 1; k < combo.size(); k++) {
                merged.mergeFrom(*acts[combo[k]].activity);
                members.push_back(&apps[combo[k]]);
            }
            Netlist design = runTailorPipeline(flow.baseline(), &merged);
            sizeForLoads(design, opts.timing);
            DesignMetrics m = flow.measure(design, members);
            double g = static_cast<double>(m.gates) /
                       static_cast<double>(base.gates);
            double a = m.areaUm2 / base.areaUm2;
            double p = m.powerNominal.totalUW() /
                       base.powerNominal.totalUW();
            gmin = std::min(gmin, g);
            gmax = std::max(gmax, g);
            amin = std::min(amin, a);
            amax = std::max(amax, a);
            pmin = std::min(pmin, p);
            pmax = std::max(pmax, p);
        }
        table.row()
            .add(n)
            .add(static_cast<long>(combos.size()))
            .add(formatFixed(gmin, 2) + " - " + formatFixed(gmax, 2))
            .add(formatFixed(amin, 2) + " - " + formatFixed(amax, 2))
            .add(formatFixed(pmin, 2) + " - " + formatFixed(pmax, 2));
    }
    io.table("multiprogram", table,
             "Normalized to the baseline core (1.00). Paper: even "
             "10-program designs can save\n41% area / 20% power, "
             "and multi-program designs never exceed the "
             "baseline.");

    // Exhaustive enumeration over ALL 2^15-1 combinations (as in the
    // paper), on the usable-gate proxy: merging the per-application
    // toggle bitsets is cheap even for the full power set.
    if (!quick) {
        Table ex({"N programs", "combos",
                  "usable gates min-max (% of baseline)"});
        std::vector<double> nmin(num_apps + 1, 1e18);
        std::vector<double> nmax(num_apps + 1, 0.0);
        std::vector<uint64_t> ncount(num_apps + 1, 0);
        double total = static_cast<double>(base.gates);
        for (uint32_t mask = 1; mask < (1u << num_apps); mask++) {
            int n = __builtin_popcount(mask);
            ActivityTracker merged =
                *acts[__builtin_ctz(mask)].activity;
            for (int i = 0; i < num_apps; i++) {
                if ((mask & (1u << i)) &&
                    i != __builtin_ctz(mask)) {
                    merged.mergeFrom(*acts[i].activity);
                }
            }
            double usable =
                100.0 *
                (total - static_cast<double>(
                             merged.untoggledCellCount())) /
                total;
            nmin[n] = std::min(nmin[n], usable);
            nmax[n] = std::max(nmax[n], usable);
            ncount[n]++;
        }
        for (int n = 1; n <= num_apps; n++) {
            ex.row()
                .add(n)
                .add(static_cast<long>(ncount[n]))
                .add(formatFixed(nmin[n], 1) + " - " +
                     formatFixed(nmax[n], 1));
        }
        io.table("exhaustive", ex,
                 "Exhaustive sweep over all combinations (usable-gate "
                 "fraction before re-synthesis).");
    }
    return io.finish();
}
