/**
 * @file
 * End-to-end bespoke-processor flow (paper Figs. 5 and 8).
 *
 * The flow owns the baseline general-purpose core (built, drive-sized,
 * and timed once: the baseline clock period is the sized design's
 * achievable period, mirroring the paper's area-optimized 100 MHz
 * operating point). tailor() then produces a bespoke design for one
 * application: activity analysis -> cutting & stitching -> re-synthesis
 * -> re-sizing (downsizing, now that fanouts shrank) -> STA -> power.
 * tailorMulti() unions the toggleable-gate sets of several applications
 * before cutting (Fig. 8); tailorAnalysis() cuts a union the caller has
 * already merged (per-app analyses reused across combinations, or an
 * app plus its mutants, Sec. 5.3).
 */

#ifndef BESPOKE_BESPOKE_FLOW_HH
#define BESPOKE_BESPOKE_FLOW_HH

#include <memory>

#include "src/analysis/activity_analysis.hh"
#include "src/power/power_model.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

/** Area/power/timing summary of one design under one workload set. */
struct DesignMetrics
{
    size_t gates = 0;
    size_t flops = 0;
    double areaUm2 = 0.0;
    double criticalPathPs = 0.0;
    double slackFraction = 0.0;  ///< (period - critical) / period
    PowerReport powerNominal;
    double vmin = 1.0;
    PowerReport powerAtVmin;
};

/** A tailored design plus how it was derived. */
struct BespokeDesign
{
    Netlist netlist;
    CutStats cut;
    DesignMetrics metrics;
    /** The analysis the design was cut by; tailorMulti() keeps the
     *  merged tracker with the last application's counters. */
    AnalysisResult analysis;
    /** What the tailoring pipeline did (per-pass stats, rewrite count,
     *  clock-gating plan). */
    PipelineReport pipeline;
};

struct FlowOptions
{
    AnalysisOptions analysis;
    /** Concrete runs per workload when measuring switching activity. */
    int powerInputsPerWorkload = 2;
    uint64_t powerSeed = 2024;
    /**
     * Ignored: power replays always run on 64-lane planes. Kept only
     * because the perfbench driver reads it; remove with the
     * benchmark's next revision.
     */
    int planeBits = 0;
    TimingParams timing;
    PowerParams power;
    /**
     * Tailoring pass pipeline configuration. The default reproduces the
     * historical cut + re-synthesis flow bit-identically; enabling the
     * optional passes (rewrite search, clock gating) changes the design.
     */
    PassPipelineOptions passes;
};

/**
 * Seeded replay providers over a workload set: each program is
 * assembled once, and `inputs` inputs per app are drawn from Rng(seed)
 * in app order, exactly the runs BespokeFlow::measure() replays for
 * its power numbers. measureActivity replays them lane-batched into a
 * ToggleCounter; measureDuty replays them scalar for clock gating's
 * enable duty. Only the two providers are set: the program image,
 * model parameters and clock budget are the caller's. The workloads
 * must outlive the returned environment.
 */
PassEnv replayEnv(const std::vector<const Workload *> &apps, int inputs,
                  uint64_t seed);

class BespokeFlow
{
  public:
    explicit BespokeFlow(FlowOptions opts = {});
    /**
     * Flow over an externally supplied baseline core (e.g. an imported
     * netlist, or the extended core): it is drive-sized and timed
     * exactly like the built-in core.
     */
    BespokeFlow(FlowOptions opts, Netlist baseline);

    const Netlist &baseline() const { return baseline_; }
    /** Clock period (ps) all designs are held to. */
    double clockPeriodPs() const { return clockPeriodPs_; }

    /** Metrics of the baseline core running the given workloads. */
    DesignMetrics measureBaseline(
        const std::vector<const Workload *> &apps);

    /** Tailor to a single application. */
    BespokeDesign tailor(const Workload &app);

    /** Tailor to several applications (union of toggleable gates). */
    BespokeDesign tailorMulti(const std::vector<const Workload *> &apps);

    /**
     * tailor() that reports capped (incomplete) analysis through `err`
     * instead of dying, so a caller tailoring many programs can skip
     * one that hits the caps. Returns false (with *out untouched) iff
     * analysis hit its caps.
     */
    bool tryTailor(const Workload &app, BespokeDesign *out,
                   std::string *err);

    /**
     * tryTailor() over a workload set (union of toggleable gates):
     * analyzes each app, merges the toggle sets in app order and hands
     * the union to tailorAnalysis(), with the program image when there
     * is exactly one app.
     */
    bool tryTailorMulti(const std::vector<const Workload *> &apps,
                        BespokeDesign *out, std::string *err);

    /**
     * The one tailoring body, which every tailor*() call runs: cut and
     * re-synthesize baseline() by a completed analysis of it (one
     * app's, or a union the caller merged), re-size, and measure()
     * against `apps`. Pass `program` only when the
     * analysis is that one program's: the SAT never-toggle pass needs
     * it, and an auto SAT depth resolves to the analysis horizon
     * (cyclesSimulated). An explicit depth below the horizon warns,
     * since the design is then proven only over that shorter envelope.
     */
    BespokeDesign tailorAnalysis(AnalysisResult analysis,
                                 const std::vector<const Workload *> &apps,
                                 const AsmProgram *program = nullptr);

    /** Module-level coarse-grained baseline (paper Fig. 12). */
    BespokeDesign tailorCoarse(const Workload &app);

    /** Activity analysis only (used by Fig. 10 and Fig. 13 sweeps). */
    AnalysisResult analyze(const Workload &app);

    /**
     * Measure any netlist (already sized) against a workload set:
     * STA + Vmin + activity-based power.
     */
    DesignMetrics measure(const Netlist &netlist,
                          const std::vector<const Workload *> &apps);

    const FlowOptions &options() const { return opts_; }

  private:
    FlowOptions opts_;
    Netlist baseline_;
    double clockPeriodPs_ = 0.0;
};

} // namespace bespoke

#endif // BESPOKE_BESPOKE_FLOW_HH
