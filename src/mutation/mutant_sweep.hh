/**
 * @file
 * Lane-per-mutant concrete differential sweep.
 *
 * The in-field-update study (Tables 4/5) asks a static question — can
 * the bespoke design *host* a mutant — via activity analysis. This
 * sweep asks the complementary dynamic question for the same mutants:
 * does the mutant change observable behavior on concrete inputs, and
 * by how much does it move switching power? Both feed the
 * "mutant_detection" table.
 *
 * The execution shape is the one the batched gate runner was built
 * for: all mutants of one benchmark share the netlist, the workload's
 * input model, and all but a few ROM words. MutantPlanePrep compiles
 * that shared skeleton once — one SocContext (levelized eval program,
 * port resolution) plus the assembled base image — and represents each
 * mutant as a small ROM-word overlay on top of it. The base program
 * runs scalar first (a few halting runs suit the event-driven engine,
 * and their cycle counts size the adaptive cap); then every mutant x
 * input pair runs lane-per-run through one batch, so a handful of
 * plane sweeps evaluates the whole mutant population. Verdicts are
 * bit-identical to running every mutant through the scalar simulator
 * (pinned by tests/test_mutant_lane.cc).
 */

#ifndef BESPOKE_MUTATION_MUTANT_SWEEP_HH
#define BESPOKE_MUTATION_MUTANT_SWEEP_HH

#include "src/mutation/mutation.hh"
#include "src/sim/soc.hh"

namespace bespoke
{

class MutantPlanePrep
{
  public:
    /** One ROM word a mutant changes relative to the base image. */
    struct RomDelta
    {
        uint16_t addr = 0;      ///< byte address of the word
        uint16_t baseWord = 0;  ///< base image contents
        uint16_t mutWord = 0;   ///< mutant image contents
    };

    /**
     * Assemble the base program and every mutant, diff the ROM images
     * into per-mutant overlays, and build the shared simulation
     * context for `netlist`. The mutants' workloads must share the
     * base workload's input model (generateMutants guarantees this).
     */
    MutantPlanePrep(const Netlist &netlist, const Workload &w,
                    const std::vector<Mutant> &mutants);

    const Workload &workload() const { return *w_; }
    const AsmProgram &baseProgram() const { return base_; }
    size_t numMutants() const { return progs_.size(); }
    const AsmProgram &mutantProgram(size_t i) const
    {
        return progs_[i];
    }
    /** ROM words mutant i changes (empty = equivalent image). */
    const std::vector<RomDelta> &overlay(size_t i) const
    {
        return overlays_[i];
    }
    /** Shared levelized eval context, compiled once. */
    const std::shared_ptr<const SocContext> &context() const
    {
        return ctx_;
    }

  private:
    const Workload *w_;
    AsmProgram base_;
    std::vector<AsmProgram> progs_;
    std::vector<std::vector<RomDelta>> overlays_;
    std::shared_ptr<const SocContext> ctx_;
};

/** Dynamic verdict for one mutant across the swept inputs. */
struct MutantVerdict
{
    /**
     * True iff any swept input distinguishes the mutant from the base
     * program on architectural outputs: output words, GPIO word, or
     * halting behavior (exact three-valued equality; cycle counts are
     * deliberately not compared — a mutant that merely reschedules is
     * not an observable behavior change).
     */
    bool detected = false;
    /** Switching-power delta vs. base, percent (default PowerParams). */
    double powerDeltaPct = 0.0;
};

struct MutantSweepOptions
{
    int inputsPerMutant = 4;
    uint64_t seed = 99;
    /**
     * Cycle cap per mutant run, replacing the workload's maxCycles.
     * Mutants can loop forever; a cap turns them into exhausted runs,
     * which count as detected when the base halts. 0 (the default)
     * adapts the cap to the measured base runs — half again the
     * longest base halting time plus slack — so a looping mutant is
     * simulated only long enough to prove it outlived the base
     * program.
     */
    uint64_t maxCycles = 0;
    /**
     * Run every mutant through the scalar runWorkloadGate instead of
     * the lane path — the reference the equivalence tests pin the
     * lane verdicts against.
     */
    bool forceScalar = false;
};

/**
 * Sweep every mutant of `prep` against `opts.inputsPerMutant` inputs
 * drawn from the base workload's input model. Returns one verdict per
 * mutant, in prep order. Deterministic in (prep, opts.seed, inputs,
 * maxCycles); independent of forceScalar.
 */
std::vector<MutantVerdict> mutantConcreteSweep(
    const MutantPlanePrep &prep, const MutantSweepOptions &opts = {});

} // namespace bespoke

#endif // BESPOKE_MUTATION_MUTANT_SWEEP_HH
