/**
 * @file
 * Invariant tests for the input-independent gate activity analysis:
 * soundness with respect to concrete executions (every gate that
 * toggles in any concrete run must be marked toggleable), constant
 * discovery, decision forking, and termination on unbounded loops.
 * Every invariant is checked on the reference lane evaluator (one
 * worker and four) and on four workers running the bit-plane
 * evaluator.
 */

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

const Netlist &
core()
{
    static Netlist nl = buildBsp430();
    return nl;
}

AsmProgram &
prog(const std::string &body)
{
    static std::deque<AsmProgram> keep;
    keep.push_back(assemble(std::string("        .org 0xf000\n") + body +
                            "\n        .org 0xfffe\n        .word 0xf000\n"));
    return keep.back();
}

/** `base` at each execution configuration: (threads, lane width). */
std::vector<AnalysisOptions>
execConfigs(AnalysisOptions base = {})
{
    std::vector<AnalysisOptions> out;
    for (auto [threads, lanes] : {std::pair{1, 1}, {4, 1}, {4, 64}}) {
        base.threads = threads;
        base.laneWidth = lanes;
        out.push_back(base);
    }
    return out;
}

std::string
execName(const AnalysisOptions &opts)
{
    return "threads " + std::to_string(opts.threads) + ", lanes " +
           std::to_string(opts.laneWidth);
}

TEST(Analysis, StraightLineCodeHasNoForks)
{
    AsmProgram &p = prog(R"(
        mov #0x0a00, sp
        mov #5, r5
        add #3, r5
        mov r5, &0x0400
halt:   jmp halt
    )");
    for (const AnalysisOptions &opts : execConfigs()) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult r = analyzeActivity(core(), p, opts);
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.forks, 0u);
        EXPECT_EQ(r.pathsExplored, 1u);
        EXPECT_GT(r.untoggledCells(), core().numCells() / 3);
    }
}

TEST(Analysis, InputDependentBranchForks)
{
    AsmProgram &p = prog(R"(
        mov #0x0a00, sp
        mov &0x0300, r5      ; X input
        tst r5
        jz  zero
        mov #1, &0x0400
        jmp halt
zero:   mov #2, &0x0400
halt:   jmp halt
    )");
    for (const AnalysisOptions &opts : execConfigs()) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult r = analyzeActivity(core(), p, opts);
        EXPECT_TRUE(r.completed);
        EXPECT_GE(r.forks, 1u);
        EXPECT_GE(r.pathsExplored, 2u);
    }
}

TEST(Analysis, TerminatesOnUnboundedCounterLoop)
{
    // A deliberately infinite concrete loop: the conservative-state
    // table must saturate and terminate the exploration.
    AsmProgram &p = prog(R"(
        mov #0x0a00, sp
        clr r5
loop:   inc r5
        jmp loop
    )");
    AnalysisOptions base;
    base.concreteVisits = 8;
    for (const AnalysisOptions &opts : execConfigs(base)) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult r = analyzeActivity(core(), p, opts);
        EXPECT_TRUE(r.completed);
        EXPECT_GT(r.merges, 0u);
    }
}

TEST(Analysis, TerminatesOnInputDependentLoop)
{
    AsmProgram &p = prog(R"(
        mov #0x0a00, sp
        mov &0x0300, r5
loop:   dec r5
        jnz loop
        mov #1, &0x0400
halt:   jmp halt
    )");
    AnalysisOptions base;
    base.concreteVisits = 8;
    for (const AnalysisOptions &opts : execConfigs(base)) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult r = analyzeActivity(core(), p, opts);
        EXPECT_TRUE(r.completed);
        EXPECT_GE(r.forks, 1u);
    }
}

TEST(Analysis, SoundnessAgainstConcreteRuns)
{
    // Every gate that toggles in ANY concrete run of a workload must
    // be marked toggleable by the input-independent analysis.
    for (const char *name : {"div", "tHold", "rle"}) {
        const Workload &w = workloadByName(name);
        AsmProgram p = w.assembleProgram();
        Rng rng(321);
        std::deque<ActivityTracker> concrete;
        for (int t = 0; t < 3; t++) {
            WorkloadInput in = w.genInput(rng);
            concrete.emplace_back(core());
            GateRun run = runWorkloadGate(core(), w, p, in, nullptr,
                                          &concrete.back());
            ASSERT_TRUE(run.halted);
        }

        for (const AnalysisOptions &opts : execConfigs()) {
            SCOPED_TRACE(execName(opts));
            AnalysisResult symbolic = analyzeActivity(core(), w, opts);
            ASSERT_TRUE(symbolic.completed);
            for (const ActivityTracker &c : concrete) {
                for (GateId i = 0; i < core().size(); i++) {
                    if (c.toggled(i)) {
                        ASSERT_TRUE(symbolic.activity->toggled(i))
                            << name << ": gate " << i << " ("
                            << cellName(core().gate(i).type,
                                        core().gate(i).drive)
                            << " in "
                            << moduleName(core().gate(i).module)
                            << ") toggled concretely but the analysis "
                               "missed it";
                    }
                }
            }
        }
    }
}

TEST(Analysis, ConstantsMatchConcreteValues)
{
    // Untoggled gates' proven constants must equal their values in a
    // concrete run (at any observed cycle; we check the final state).
    const Workload &w = workloadByName("div");
    AsmProgram p = w.assembleProgram();
    Rng rng(55);
    WorkloadInput in = w.genInput(rng);

    Soc soc(core(), p, false);
    soc.setGpioIn(SWord::of(in.gpioIn));
    soc.setIrqExt(Logic::Zero);
    for (size_t i = 0; i < in.ramWords.size(); i++) {
        soc.pokeRamWord(static_cast<uint16_t>(kInputBase + 2 * i),
                        SWord::of(in.ramWords[i]));
    }
    for (int c = 0; c < 500; c++)
        soc.cycle();

    for (const AnalysisOptions &opts : execConfigs()) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult symbolic = analyzeActivity(core(), w, opts);
        for (GateId i = 0; i < core().size(); i++) {
            if (cellPseudo(core().gate(i).type))
                continue;
            if (!symbolic.activity->toggled(i)) {
                EXPECT_EQ(soc.sim().value(i),
                          symbolic.activity->initialValue(i))
                    << "gate " << i;
            }
        }
    }
}

TEST(Analysis, IrqLineKnownZeroSuppressesIrqForks)
{
    const Workload &w = workloadByName("irq");
    AsmProgram p = w.assembleProgram();
    for (AnalysisOptions opts : execConfigs()) {
        SCOPED_TRACE(execName(opts));
        opts.irqLineUnknown = false;  // tie the IRQ pin low
        AnalysisResult quiet = analyzeActivity(core(), p, opts);
        opts.irqLineUnknown = true;
        AnalysisResult noisy = analyzeActivity(core(), p, opts);
        EXPECT_TRUE(quiet.completed);
        // With the pin tied low the ISR is unreachable; far fewer
        // gates can toggle.
        EXPECT_GT(quiet.untoggledCells(), noisy.untoggledCells());
    }
}

TEST(Analysis, MultiplierConstrainedByConstantCoefficients)
{
    // intFilt writes only constant coefficients into MPYS: part of the
    // multiplier must be provably untoggleable; mult (arbitrary
    // operands) must use almost all of it (paper Sec. 5 discussion).
    for (const AnalysisOptions &opts : execConfigs()) {
        SCOPED_TRACE(execName(opts));
        AnalysisResult filt =
            analyzeActivity(core(), workloadByName("intFilt"), opts);
        AnalysisResult mult =
            analyzeActivity(core(), workloadByName("mult"), opts);
        size_t filt_mult_toggled = 0, mult_mult_toggled = 0, total = 0;
        for (GateId i = 0; i < core().size(); i++) {
            const Gate &g = core().gate(i);
            if (cellPseudo(g.type) || g.module != Module::Mult)
                continue;
            total++;
            filt_mult_toggled += filt.activity->toggled(i);
            mult_mult_toggled += mult.activity->toggled(i);
        }
        EXPECT_LT(filt_mult_toggled, total * 3 / 4);
        EXPECT_GT(mult_mult_toggled, total * 3 / 4);
        EXPECT_LT(filt_mult_toggled, mult_mult_toggled);
    }
}

} // namespace
} // namespace bespoke
