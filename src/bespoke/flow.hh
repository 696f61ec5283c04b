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
 * before cutting (Fig. 8).
 */

#ifndef BESPOKE_BESPOKE_FLOW_HH
#define BESPOKE_BESPOKE_FLOW_HH

#include <functional>
#include <memory>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/checkpoint.hh"
#include "src/power/power_model.hh"
#include "src/transform/bespoke_transform.hh"
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
    AnalysisResult analysis;  ///< analysis of the *last* application
    /** What the tailoring pipeline did (per-pass stats, rewrite count,
     *  clock-gating plan). Restored from checkpointed designs. */
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
     * benchmark's next revision. Excluded from hashFlowOptions().
     */
    int planeBits = 0;
    TimingParams timing;
    PowerParams power;
    /**
     * Tailoring pass pipeline configuration. The default reproduces the
     * historical cut + re-synthesis flow bit-identically; enabling the
     * optional passes (rewrite search, clock gating) changes design
     * artifacts, so the configuration is part of hashFlowOptions().
     */
    PassPipelineOptions passes;
    /**
     * When non-empty, stage artifacts (analysis, cut design, metrics)
     * are persisted here and reused by later runs with matching
     * content-hashed keys; a killed run resumes at the last completed
     * stage, a repeated run short-circuits entirely. "" disables.
     */
    std::string checkpointDir;
};

class BespokeFlow
{
  public:
    explicit BespokeFlow(FlowOptions opts = {});
    /**
     * Flow over an externally supplied baseline core (e.g. an imported
     * netlist): it is drive-sized and timed exactly like the built-in
     * core, and every checkpoint key hashes the sized input.
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

    /** tryTailor() over a workload set (union of toggleable gates). */
    bool tryTailorMulti(const std::vector<const Workload *> &apps,
                        BespokeDesign *out, std::string *err);

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

    /** The stage-artifact store (disabled unless checkpointDir set). */
    const CheckpointStore &checkpoints() const { return store_; }

  private:
    /** analyze() body, reusing an already-assembled program. */
    AnalysisResult analyzeProgram(const AsmProgram &prog,
                                  const std::string &name);
    /**
     * Cut-design stage with checkpointing: load the sized bespoke
     * netlist (and its pipeline report) for (baseline, program set,
     * options) from the store, or run `build` + sizeForLoads and save
     * the result.
     */
    Netlist obtainDesign(
        uint64_t program_hash, const char *stage, CutStats *cut,
        PipelineReport *report,
        const std::function<Netlist(CutStats *, PipelineReport *)>
            &build);
    /**
     * Pass environment for the tailoring pipeline: flow model
     * parameters, the baseline clock budget, and replay providers over
     * `apps` mirroring measure()'s power replay (same seed and input
     * count, so rewrite-search scores are measured the same way the
     * final design is).
     */
    PassEnv makePassEnv(std::vector<const Workload *> apps) const;

    FlowOptions opts_;
    Netlist baseline_;
    double clockPeriodPs_ = 0.0;
    CheckpointStore store_;
    uint64_t baselineHash_ = 0;
    uint64_t analysisOptsHash_ = 0;
    uint64_t flowOptsHash_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_BESPOKE_FLOW_HH
