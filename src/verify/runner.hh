/**
 * @file
 * Workload run harness: executes a workload on the ISS golden model or
 * on a gate-level netlist (original or bespoke), with input injection,
 * interrupt scheduling, halt detection, and result extraction. Used by
 * the profiling study (Fig. 2), input-based verification (Table 3),
 * the power model (toggle collection), and the example programs.
 */

#ifndef BESPOKE_VERIFY_RUNNER_HH
#define BESPOKE_VERIFY_RUNNER_HH

#include <map>
#include <set>

#include "src/iss/iss.hh"
#include "src/sim/soc.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

/** Instruction addresses holding the `jmp .` halt idiom. */
std::vector<uint16_t> haltAddresses(const AsmProgram &prog);

/** Result of an ISS run. */
struct IssRun
{
    StepResult result = StepResult::Ok;
    std::vector<uint16_t> out;  ///< output-region words
    uint16_t gpioOut = 0;
    uint64_t instructions = 0;
    std::set<uint16_t> executedPCs;
    std::map<uint16_t, std::pair<bool, bool>> branchDirs;
    std::vector<uint8_t> ram;   ///< final RAM image
};

/**
 * Run a workload with a concrete input on the ISS. For IRQ-using
 * workloads, one external interrupt is injected early in the run (the
 * gate-level harness injects the equivalent pulse).
 */
IssRun runWorkloadIss(const Workload &w, const WorkloadInput &input,
                      uint64_t max_steps = 2'000'000);

/** Result of a gate-level run. */
struct GateRun
{
    bool halted = false;
    uint64_t cycles = 0;
    std::vector<SWord> out;  ///< output-region words
    SWord gpioOut;
    std::vector<SWord> ram;  ///< final RAM contents
};

/**
 * Run a workload with a concrete input on a netlist. Optional trackers
 * observe every cycle (ToggleCounter for power, ActivityTracker for
 * profiled unused gates, Fig. 2).
 *
 * @param prog must be the workload's assembled program (passed in so
 *        callers can reuse one assembly across runs).
 * @param ctx optional pre-built simulation context for `netlist`;
 *        callers running many inputs on one netlist pass it to skip
 *        the per-run levelization/port-resolution prep.
 */
GateRun runWorkloadGate(const Netlist &netlist, const Workload &w,
                        const AsmProgram &prog, const WorkloadInput &input,
                        ToggleCounter *toggles = nullptr,
                        ActivityTracker *activity = nullptr,
                        const std::function<void(const GateSim &)>
                            &per_cycle = nullptr,
                        std::shared_ptr<const SocContext> ctx = nullptr);

/**
 * The lane-batch plane width: always 64, whatever the argument. Kept
 * only because the perfbench driver reports it; the library has one
 * plane width. Remove with the benchmark's next revision.
 */
int resolvePlaneBits(int plane_bits);

/**
 * One scenario of a lane batch: a program image, an input, and an
 * optional toggle counter. Scenarios may share a counter (a batch that
 * sums every run into one, like a power replay) or keep their own
 * (lane-per-mutant sweeps give every mutant its own). All scenarios of
 * a batch share one workload (input model, cycle budget, IRQ schedule)
 * and one netlist.
 */
struct GateScenario
{
    const AsmProgram *prog = nullptr;
    const WorkloadInput *input = nullptr;
    ToggleCounter *toggles = nullptr;
};

/**
 * Run many scenarios of one workload lane-parallel, 64 per plane
 * sweep. Results and toggle counts are bit-identical to running the
 * scenarios through runWorkloadGate() sequentially in vector order,
 * each into its own counter — the scalar path IS the fallback, taken
 * whenever a batch is too small to win from plane packing (fewer than
 * kMinLaneBatch scenarios). Counters see within-run transitions summed
 * order-free plus the cross-run boundary transitions replayed in
 * sequential order (ToggleCounter::ingestRun), so the committed power
 * baselines do not move.
 */
constexpr size_t kMinLaneBatch = 4;
std::vector<GateRun> runScenarioGateBatch(
    const Netlist &netlist, const Workload &w,
    const std::vector<GateScenario> &scenarios,
    std::shared_ptr<const SocContext> ctx = nullptr);

/**
 * Scenario batch with one shared program and one optional counter
 * every run feeds: the common verify and power-replay shape.
 */
std::vector<GateRun> runWorkloadGateBatch(
    const Netlist &netlist, const Workload &w, const AsmProgram &prog,
    const std::vector<WorkloadInput> &inputs,
    ToggleCounter *toggles = nullptr,
    std::shared_ptr<const SocContext> ctx = nullptr);

/**
 * The counter of the overload below. Kept only because perfbench's
 * ops.cc names it; remove with the benchmark's next revision.
 */
struct GateBatchObservers
{
    ToggleCounter *toggles = nullptr;
};

/**
 * The same, with a `plane_bits` argument that is ignored. Kept only
 * because the perfbench driver calls this signature; remove with the
 * benchmark's next revision.
 */
inline std::vector<GateRun>
runWorkloadGateBatch(const Netlist &netlist, const Workload &w,
                     const AsmProgram &prog,
                     const std::vector<WorkloadInput> &inputs,
                     int /*plane_bits*/,
                     const GateBatchObservers &obs = {},
                     std::shared_ptr<const SocContext> ctx = nullptr)
{
    return runWorkloadGateBatch(netlist, w, prog, inputs, obs.toggles,
                                std::move(ctx));
}

/** Check a gate run against the ISS oracle; fatal-free, returns diff. */
struct RunDiff
{
    bool ok = true;
    std::string detail;
};
RunDiff compareRuns(const IssRun &iss, const GateRun &gate,
                    const Workload &w);

} // namespace bespoke

#endif // BESPOKE_VERIFY_RUNNER_HH
