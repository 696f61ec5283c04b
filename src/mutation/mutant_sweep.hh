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
 * for: all mutants of one benchmark share the netlist and the
 * workload's input model. MutantPlanePrep compiles that shared
 * skeleton once — one SocContext (levelized eval program, port
 * resolution) — next to the assembled base image and every mutant's
 * full image, which its lanes run through LaneSoc::setProgLane. The
 * base program runs scalar first (a few halting runs suit the
 * event-driven engine, and their cycle counts size the adaptive cap);
 * then every mutant x input pair runs lane-per-run through one batch,
 * so a handful of plane sweeps evaluates the whole mutant population.
 * Verdicts are bit-identical to running every mutant through the
 * scalar simulator (pinned by tests/test_mutant_lane.cc).
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
    /**
     * Assemble the base program and every mutant and build the shared
     * simulation context for `netlist`. The mutants' workloads must
     * share the base workload's input model (generateMutants
     * guarantees this).
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
    /** Shared levelized eval context, compiled once. */
    const std::shared_ptr<const SocContext> &context() const
    {
        return ctx_;
    }

  private:
    const Workload *w_;
    AsmProgram base_;
    std::vector<AsmProgram> progs_;
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

/** Seed of the input draw every mutant sweep replays. */
constexpr uint64_t kMutantSweepSeed = 99;

struct MutantSweepOptions
{
    int inputsPerMutant = 4;
    /**
     * Run every mutant through the scalar runWorkloadGate instead of
     * the lane path — the reference the equivalence tests pin the
     * lane verdicts against.
     */
    bool forceScalar = false;
};

/**
 * The cycle cap of every mutant run: half again the longest base
 * halting time `base_max_cycles` plus 64 cycles of slack, never above
 * the workload's own maxCycles.
 */
uint64_t mutantCycleCap(const Workload &w, uint64_t base_max_cycles);

/**
 * Sweep every mutant of `prep` against `opts.inputsPerMutant` inputs
 * drawn from the base workload's input model (seed kMutantSweepSeed).
 * Returns one verdict per mutant, in prep order. Deterministic in
 * (prep, inputsPerMutant); independent of forceScalar.
 *
 * Mutants can loop forever, so every mutant run is capped at
 * mutantCycleCap() of the longest base run: a looping mutant is
 * simulated only long enough to prove it outlived the base program,
 * and an exhausted run counts as detected when the base halts.
 */
std::vector<MutantVerdict> mutantConcreteSweep(
    const MutantPlanePrep &prep, const MutantSweepOptions &opts = {});

} // namespace bespoke

#endif // BESPOKE_MUTATION_MUTANT_SWEEP_HH
