/**
 * @file
 * The benchmark's three workloads. Each op takes one drawn program
 * through one library flow:
 *
 *  - tailor: BespokeFlow::tryTailor at library defaults (analysis ->
 *    cut and stitch -> re-sizing -> STA/Vmin -> power replay);
 *  - prove: exact SAT recovery in bench/sat_recovery's quick
 *    configuration (analysis at concreteVisits = 1, then the pipeline
 *    with sat-never-toggle at a 30-frame envelope);
 *  - verify: the in-field-update check of the program against its
 *    app's tailored design (support check, symbolic equivalence, and
 *    the `tailor --verify` SAT miter).
 *
 * run() with a null trace is the plain library call; with a trace it
 * does the same work through the layers' public functions, one span
 * per call, and must return the same result.
 */

#ifndef PERFBENCH_OPS_HH
#define PERFBENCH_OPS_HH

#include <memory>
#include <string>

#include "perfbench/draw.hh"
#include "perfbench/trace.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/sat/equiv_prover.hh"

namespace perfbench
{

struct OpResult
{
    bool ok = false;
    std::string error;  ///< why the op failed (ok == false)
    /** Cells of the bespoke design the op produced (tailor, prove) or
     *  checked the program against (verify). */
    size_t cells = 0;
    /** tailor: the design's metrics. */
    double powerUW = 0.0;
    double criticalPathPs = 0.0;
    double vmin = 0.0;
    /** prove: the SAT pass's verdicts and solver work. */
    size_t satCandidates = 0;
    size_t satProven = 0;
    size_t satRefuted = 0;
    size_t satUnknown = 0;
    uint64_t satConflicts = 0;
    uint64_t satPropagations = 0;
    /** verify: the three checks. */
    bool supported = false;
    bool symEquivalent = false;
    bespoke::sat::SatEquivVerdict miter =
        bespoke::sat::SatEquivVerdict::Unknown;
};

/** Execution settings as the library resolves them for a workload. */
struct ResolvedExec
{
    int analysisThreads = 0;
    int analysisLanes = 0;
    int planeBits = 0;
    int satThreads = 0;
};

class Bench
{
  public:
    virtual ~Bench() = default;
    /** Build what every op shares (the core, the flow, base designs).
     *  Returns false with *err set if that fails. */
    virtual bool setup(Trace *trace, std::string *err) = 0;
    virtual OpResult run(const DrawnProgram &p, Trace *trace) = 0;
    virtual ResolvedExec exec() const = 0;
};

/** "tailor", "prove" or "verify"; null for any other name. */
std::unique_ptr<Bench> makeBench(const std::string &workload);

/** The table4_5 mutant-study analysis caps every workload runs under:
 *  a divergent program fails fast instead of exploring for minutes. */
bespoke::AnalysisOptions cappedAnalysis();

/** A verify op's one-way rules (supported => symbolically equivalent
 *  => miter not NotEquivalent); "" when they hold. */
std::string verifyRuleViolation(const OpResult &r);

/** "" if the traced result equals the untraced one, else what differs. */
std::string fidelityMismatch(const OpResult &untraced,
                             const OpResult &traced);

} // namespace perfbench

#endif // PERFBENCH_OPS_HH
