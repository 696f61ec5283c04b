/**
 * @file
 * Tests of the behavioral SoC environment: synchronous memory timing,
 * conservative handling of symbolic addresses/enables, environment
 * state snapshot/merge, and drive-strength preservation through
 * transforms (regression for a bug where compact() silently reset
 * every cell to X1).
 */

#include <gtest/gtest.h>

#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/sim/soc.hh"
#include "src/transform/rewrite.hh"

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

AsmProgram
tinyProg()
{
    return assemble(R"(
        .org 0xf000
start:  mov #0x0a00, sp
        mov #0x1234, &0x0300
        mov &0x0300, r5
halt:   jmp halt
        .org 0xfffe
        .word 0xf000
    )");
}

TEST(SocEnv, RamStartsUnknownInSymbolicMode)
{
    AsmProgram p = tinyProg();
    Soc symbolic(core(), p, /*ram_unknown=*/true);
    Soc concrete(core(), p, /*ram_unknown=*/false);
    EXPECT_TRUE(symbolic.ramWord(0x0300).anyX());
    EXPECT_TRUE(concrete.ramWord(0x0300).fullyKnown());
    EXPECT_EQ(concrete.ramWord(0x0300).val, 0);
}

TEST(SocEnv, SymbolicWriteAddressSmearsRam)
{
    // Direct check of the conservative write rule via EnvState merge:
    // a write through an unknown address must widen every word that
    // could have been hit.
    AsmProgram p = assemble(R"(
        .org 0xf000
start:  mov #0x0a00, sp
        mov &0x0300, r4      ; X pointer
        mov #0x5a5a, 0(r4)   ; store through X address
halt:   jmp halt
        .org 0xfffe
        .word 0xf000
    )");
    Soc soc(core(), p, /*ram_unknown=*/false);
    soc.setGpioIn(SWord::of(0));
    soc.setIrqExt(Logic::Zero);
    // RAM concrete-zero but the pointer cell is X.
    soc.pokeRamWord(0x0300, SWord::allX());
    for (int c = 0; c < 60; c++)
        soc.cycle();
    // Every RAM word must now admit 0x5a5a as a possible value: no
    // word may be *known* to differ in bits where 0x5a5a differs
    // from its old value 0x0000.
    int widened = 0;
    for (uint16_t a = kRamBase; a < kRamBase + kRamSize; a += 2) {
        SWord w = soc.ramWord(a);
        // Bits where the write would have changed 0 -> 1 cannot
        // remain known-0.
        EXPECT_EQ(w.known & 0x5a5a & ~w.val, 0)
            << "word 0x" << std::hex << a << " = " << w.toString();
        if (w.anyX())
            widened++;
    }
    EXPECT_GT(widened, 100);
}

TEST(SocEnv, EnvStateMergeAndSubstate)
{
    EnvState a, b;
    a.ram = {SWord::of(1), SWord::of(2)};
    a.rdata = SWord::of(7);
    b.ram = {SWord::of(1), SWord::of(3)};
    b.rdata = SWord::of(7);
    EnvState m = EnvState::merge(a, b);
    EXPECT_TRUE(a.substateOf(m));
    EXPECT_TRUE(b.substateOf(m));
    EXPECT_EQ(m.ram[0], SWord::of(1));
    EXPECT_TRUE(m.ram[1].anyX());
    EXPECT_FALSE(m.substateOf(a));
}

TEST(SocEnv, MemoryReadLatencyIsOneCycle)
{
    // The core's whole instruction sequencing depends on this; check
    // it at the environment level: rdata changes only on the cycle
    // after a read request was sampled.
    AsmProgram p = tinyProg();
    Soc soc(core(), p, false);
    soc.setGpioIn(SWord::of(0));
    soc.setIrqExt(Logic::Zero);
    // Cycle 0 issues the reset-vector read; rdata is X during it and
    // becomes the vector in cycle 1.
    EXPECT_TRUE(soc.envState().rdata.anyX());
    soc.cycle();
    EXPECT_TRUE(soc.envState().rdata.fullyKnown());
    EXPECT_EQ(soc.envState().rdata.val, 0xf000);
}

TEST(Transforms, DrivesSurviveCompact)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId g = b.inv(a);
    GateId h = b.buf(g);
    GateId q = b.inv(h);
    nl.addOutput("o", q);
    nl.gateRef(g).drive = Drive::X4;
    nl.gateRef(q).drive = Drive::X2;

    RewriteResult rr = stripBuffers(nl);
    int x4 = 0, x2 = 0;
    for (const Gate &gg : rr.netlist.gates()) {
        x4 += gg.drive == Drive::X4;
        x2 += gg.drive == Drive::X2;
    }
    EXPECT_EQ(x4, 1);
    EXPECT_EQ(x2, 1);
}

TEST(Transforms, ResizingAfterCutReducesPower)
{
    // End-to-end regression: a bespoke design inheriting the sized
    // baseline's (now oversized) drivers must not consume less power
    // than the properly downsized design.
    FlowOptions o;
    o.powerInputsPerWorkload = 1;
    BespokeFlow flow(o);
    const Workload &w = workloadByName("binSearch");
    AnalysisResult r = flow.analyze(w);
    Netlist inherited = runTailorPipeline(flow.baseline(), r.activity.get());
    Netlist resized = inherited;
    sizeForLoads(resized, o.timing);
    DesignMetrics mi = flow.measure(inherited, {&w});
    DesignMetrics mr = flow.measure(resized, {&w});
    EXPECT_LE(mr.powerNominal.totalUW(), mi.powerNominal.totalUW());
    // Timing must still be met either way.
    EXPECT_LE(mr.criticalPathPs, flow.clockPeriodPs());
}

} // namespace
} // namespace bespoke
