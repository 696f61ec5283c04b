/**
 * @file
 * SAT never-toggle recovery over X-analysis pessimism (Fig. 10
 * companion): how many provably-constant gates the CNF/CDCL prover
 * recovers that the three-valued activity analysis left toggleable.
 *
 * The activity analysis is run in a reduced-precision configuration
 * (concreteVisits = 1: states widen at the first merge-point revisit)
 * so the widening pessimism the SAT pass exists to claw back is
 * actually present — at the default precision the small apps' analyses
 * are exact (zero merges or generous widening budgets) and the correct
 * recovery is zero, which demonstrates nothing. This mirrors the
 * paper-practical situation where the exploration budget binds before
 * the program's state space is exhausted and an exact backstop decides
 * the leftovers. See DESIGN.md section 13 for the envelope semantics.
 *
 * Table: per app, the merge count of the reduced analysis, SAT
 * candidates (replay-constant gates the cut left untouched), the
 * proven / refuted / unknown split at a fixed 30-cycle envelope (a
 * uniform bound keeps rows comparable; beyond the interrupt latency
 * the irq app's free-interrupt envelope starts legitimately refuting
 * almost everything, see EXPERIMENTS.md), plus solver observability:
 * conflicts and propagations (exact — solver work is deterministic)
 * and the SAT-pass wall time (volatile, excluded from --check).
 * --threads runs that many apps at once (parallelFor) without moving
 * any checked value; each app's analysis and prover run inside its own
 * task.
 *
 * Full mode additionally tailors the tractable-horizon apps with the
 * SAT pass at a fixed per-app full-horizon depth and re-proves every
 * recovered cut with BOTH independent equivalence engines — the
 * symbolic explorer at default precision and the SAT miter — pinning
 * that the recovered cuts are real.
 */

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/equiv_prover.hh"
#include "src/transform/pass_pipeline.hh"

using namespace bespoke;

namespace
{

constexpr uint64_t kSeed = 2024;
constexpr int kInputs = 2;
constexpr int kTableDepth = 30;

struct AppRow
{
    uint64_t merges = 0;
    size_t candidates = 0;
    size_t proven = 0;
    size_t refuted = 0;
    size_t unknown = 0;
    size_t cellsBase = 0;  ///< X-analysis cut only
    size_t cellsSat = 0;   ///< with the SAT pass
    /** Solver work (deterministic, thread-count-independent). */
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /** Wall time of the SAT-pass pipeline run (volatile column). */
    double satMs = 0.0;
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "sat_recovery", BenchIO::Threads);

    banner("SAT never-toggle recovery over widened X-analysis",
           "Fig. 10 companion (exact backstop)");

    Netlist core = buildBsp430();
    const std::vector<Workload> &apps = workloads();

    AnalysisOptions aopts;
    aopts.concreteVisits = 1;  // widen aggressively: see header comment

    std::vector<AppRow> rows(apps.size());
    parallelFor(apps.size(), io.threads(), [&](size_t a) {
        const Workload &app = apps[a];
        AsmProgram prog = app.assembleProgram();
        AnalysisResult ar = analyzeActivity(core, app, aopts);
        AppRow &row = rows[a];
        row.merges = ar.merges;

        PassEnv env = replayEnv({&app}, kInputs, kSeed);
        env.program = &prog;
        PassPipelineOptions base;
        CutStats cut;
        // Base vs SAT cut at a fixed envelope, both unsized: no flow.
        Netlist base_nl = runTailorPipeline(
            core, ar.activity.get(), base, env, &cut);
        row.cellsBase = base_nl.numCells();

        PassPipelineOptions with_sat = base;
        with_sat.satNeverToggle = true;
        with_sat.sat.depth = kTableDepth;
        PipelineReport report;
        auto t0 = std::chrono::steady_clock::now();
        // The SAT cut, timed, on the same unsized footing as base_nl.
        Netlist sat_nl =
            runTailorPipeline(core, ar.activity.get(), with_sat,
                              env, &cut, &report);
        row.satMs = msSince(t0);
        row.cellsSat = sat_nl.numCells();
        row.candidates = report.satCandidates;
        row.proven = report.satProven;
        row.refuted = report.satRefuted;
        row.unknown = report.satUnknown;
        row.conflicts = report.satConflicts;
        row.propagations = report.satPropagations;
    });

    // conflicts/propagations are exact columns: solver work is a pure
    // function of the sharded sessions, identical at any --threads.
    // Only the wall-time column ("sat ms") is machine-dependent.
    Table table({"benchmark", "merges", "candidates", "recovered",
                 "refuted", "unknown", "cells x-only", "cells +sat",
                 "conflicts", "props", "sat ms"});
    size_t apps_recovering = 0;
    for (size_t a = 0; a < apps.size(); a++) {
        const AppRow &row = rows[a];
        if (row.proven > 0)
            apps_recovering++;
        table.row()
            .add(apps[a].name)
            .add(static_cast<double>(row.merges), 0)
            .add(static_cast<double>(row.candidates), 0)
            .add(static_cast<double>(row.proven), 0)
            .add(static_cast<double>(row.refuted), 0)
            .add(static_cast<double>(row.unknown), 0)
            .add(static_cast<double>(row.cellsBase), 0)
            .add(static_cast<double>(row.cellsSat), 0)
            .add(static_cast<double>(row.conflicts), 0)
            .add(static_cast<double>(row.propagations), 0)
            .add(row.satMs, 1);
    }
    io.table("sat_recovery", table,
             "Gates the SAT prover recovers beyond the widened "
             "X-analysis cut (30-cycle envelope, concreteVisits=1).",
             /*volatile_cols=*/{10});
    io.counter("apps_recovering",
               static_cast<double>(apps_recovering));

    if (!io.quick()) {
        // Full-horizon recovery, with both independent equivalence
        // engines re-proving every recovered cut. The symbolic engine
        // runs at DEFAULT precision — the strongest available
        // cross-check of cuts derived from the widened analysis plus
        // SAT; the miter depth is bounded (the solving path of the
        // SAT engine is pinned separately in tests/test_sat_equiv.cc).
        // The subset is the apps whose full analysis horizon stays
        // tractable to unroll and solve in minutes: viterbi and FFT
        // unroll to 12k/80k frames, irq's every-frame-free interrupt
        // envelope refutes candidates one witness at a time past its
        // dispatch latency, and the remaining mid-size apps each cost
        // minutes of pure solving. div is included deliberately even
        // though its full horizon exhausts the per-query conflict
        // budget: the golden pins that budget exhaustion degrades to
        // `unknown` (not cut), never to an unsound promotion.
        struct VRow
        {
            int horizon = 0;
            size_t proven = 0;
            size_t refuted = 0;
            size_t unknown = 0;
            bool symOk = false;
            bool satOk = false;
            uint64_t conflicts = 0;
            uint64_t propagations = 0;
            double satMs = 0.0;
        };
        // Each app unrolls to a fixed depth: its analysis horizon
        // (cyclesSimulated, what --sat-depth 0 resolves to) under the
        // earlier depth-first schedule at concreteVisits 1. Pinning the
        // depth keeps this full-horizon yardstick stable whatever the
        // exploration schedule; EXPERIMENTS.md records what auto depth
        // gives today.
        struct VApp
        {
            const char *name;
            int depth;
        };
        const std::vector<VApp> verified_apps = {
            {"mult", 1026}, {"binSearch", 1206}, {"div", 1477},
            {"dbg", 1245},  {"convEn", 1522},    {"tea8", 1755}};
        std::vector<VRow> vrows(verified_apps.size());
        parallelFor(verified_apps.size(), io.threads(), [&](size_t v) {
            const Workload &app =
                workloadByName(verified_apps[v].name);
            AsmProgram prog = app.assembleProgram();
            AnalysisResult ar = analyzeActivity(core, app, aopts);
            PassEnv env = replayEnv({&app}, kInputs, kSeed);
            env.program = &prog;
            PassPipelineOptions with_sat;
            with_sat.satNeverToggle = true;
            with_sat.sat.depth = verified_apps[v].depth;
            PipelineReport report;
            CutStats cut;
            auto t0 = std::chrono::steady_clock::now();
            // Timed SAT cut at the app's pinned depth, verified below.
            Netlist sat_nl =
                runTailorPipeline(core, ar.activity.get(),
                                  with_sat, env, &cut, &report);
            double sat_ms = msSince(t0);

            // Default precision.
            EquivResult sym = checkSymbolicEquivalence(
                core, sat_nl, prog);
            sat::SatEquivOptions seq;
            seq.depth = 16;
            sat::SatEquivResult smt =
                sat::proveEquivalentSat(core, sat_nl, prog, seq);

            VRow &row = vrows[v];
            row.horizon = with_sat.sat.depth;
            row.proven = report.satProven;
            row.refuted = report.satRefuted;
            row.unknown = report.satUnknown;
            row.conflicts = report.satConflicts;
            row.propagations = report.satPropagations;
            row.satMs = sat_ms;
            row.symOk = sym.equivalent && sym.completed;
            row.satOk =
                smt.verdict == sat::SatEquivVerdict::Equivalent;
            std::fprintf(stderr,
                         "verified %s: horizon %d, %zu proven, "
                         "sym %d, sat %d\n",
                         verified_apps[v].name, row.horizon,
                         row.proven, (int)row.symOk,
                         (int)row.satOk);
        });

        Table vt({"benchmark", "horizon", "recovered", "refuted",
                  "unknown", "sym equiv", "sat equiv", "conflicts",
                  "props", "sat ms"});
        for (size_t v = 0; v < verified_apps.size(); v++) {
            const VRow &row = vrows[v];
            vt.row()
                .add(verified_apps[v].name)
                .add(static_cast<double>(row.horizon), 0)
                .add(static_cast<double>(row.proven), 0)
                .add(static_cast<double>(row.refuted), 0)
                .add(static_cast<double>(row.unknown), 0)
                .add(row.symOk ? 1.0 : 0.0, 0)
                .add(row.satOk ? 1.0 : 0.0, 0)
                .add(static_cast<double>(row.conflicts), 0)
                .add(static_cast<double>(row.propagations), 0)
                .add(row.satMs, 1);
        }
        io.table("sat_recovery_verified", vt,
                 "Full-horizon recovery with every recovered cut "
                 "re-proved by both independent equivalence engines.",
                 /*volatile_cols=*/{9});
    }
    return io.finish();
}
