/**
 * @file
 * Rewriter alias-chain edge cases: chain resolution through multiple
 * alias hops and into constants, deterministic rejection of self-
 * aliases and alias cycles at mark time, ties (killed or not)
 * resolving to their constants and compacting onto shared tie cells,
 * and the kill contract (a killed non-tie gate resolves to itself and
 * is dropped; any live pin reading it is a pass bug caught at
 * compact()).
 */

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/transform/rewrite.hh"

namespace bespoke
{
namespace
{

/** in -> three INVs (parallel), one output keeps the netlist alive. */
Netlist
threeInvs(GateId *in, GateId *g1, GateId *g2, GateId *g3)
{
    Netlist nl;
    NetBuilder b(nl);
    *in = nl.addInput("in");
    *g1 = b.inv(*in);
    *g2 = b.inv(*in);
    *g3 = b.inv(*in);
    nl.addOutput("out", *g1);
    nl.validate();
    return nl;
}

TEST(RewriteChains, AliasChainsResolveToFinalTarget)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    rw.makeAlias(g1, g2);
    rw.makeAlias(g2, g3);

    Rewriter::Resolved r = rw.resolve(g1);
    EXPECT_FALSE(r.isConst);
    EXPECT_EQ(r.gate, g3);

    RewriteResult rr = rw.compact();
    rr.netlist.validate();
    // Aliased gates are dropped (no surviving id); the alias target
    // survives and every reader is rewired onto it.
    EXPECT_EQ(rr.remap(g1), kNoGate);
    EXPECT_EQ(rr.remap(g2), kNoGate);
    EXPECT_NE(rr.remap(g3), kNoGate);
    // The output port now reads the survivor.
    GateId out = rr.netlist.port("out");
    EXPECT_EQ(rr.netlist.gate(out).in[0], rr.remap(g3));
}

TEST(RewriteChains, AliasChainEndingInConstantIsConstant)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    rw.makeAlias(g1, g2);
    rw.makeConstant(g2, true);

    Rewriter::Resolved r = rw.resolve(g1);
    EXPECT_TRUE(r.isConst);
    EXPECT_TRUE(r.value);

    RewriteResult rr = rw.compact();
    rr.netlist.validate();
    GateId out = rr.netlist.port("out");
    GateId drv = rr.netlist.gate(out).in[0];
    EXPECT_EQ(rr.netlist.gate(drv).type, CellType::TIE1);
}

TEST(RewriteChainsDeath, SelfAliasIsRejectedAtMarkTime)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    EXPECT_DEATH(rw.makeAlias(g1, g1), "alias");
}

TEST(RewriteChainsDeath, AliasCycleIsRejectedAtMarkTime)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    rw.makeAlias(g1, g2);
    rw.makeAlias(g2, g3);
    // g3 -> g1 would close the loop g1 -> g2 -> g3 -> g1.
    EXPECT_DEATH(rw.makeAlias(g3, g1), "alias");
}

TEST(RewriteChains, KilledTiesResolveToTheirConstants)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId in = nl.addInput("in");
    GateId t0 = b.tie0();
    GateId t1 = b.tie1();
    GateId a = b.and2(in, t1);
    GateId o = b.or2(a, t0);
    // A second, un-killed TIE1 (another module's) read by a Glue gate.
    GateId u1 = nl.tie(true, Module::Alu);
    GateId c = b.and2(o, u1);
    nl.addOutput("out", c);
    nl.validate();

    Rewriter rw(nl);
    rw.kill(t0);
    rw.kill(t1);
    // A killed tie is still a constant, not an implicit X/0: dead
    // sweeping unreferenced ties must never corrupt a reader that
    // (transiently) still points at them.
    Rewriter::Resolved r0 = rw.resolve(t0);
    EXPECT_TRUE(r0.isConst);
    EXPECT_FALSE(r0.value);
    Rewriter::Resolved r1 = rw.resolve(t1);
    EXPECT_TRUE(r1.isConst);
    EXPECT_TRUE(r1.value);
    Rewriter::Resolved ru = rw.resolve(u1);
    EXPECT_TRUE(ru.isConst);
    EXPECT_TRUE(ru.value);

    // Live readers of the ties compact fine (they read the constants;
    // compact re-creates shared tie cells as needed): the readers of
    // the killed and the kept TIE1 share the one Glue TIE1.
    RewriteResult rr = rw.compact();
    rr.netlist.validate();
    EXPECT_NE(rr.remap(a), kNoGate);
    EXPECT_NE(rr.remap(o), kNoGate);
    ASSERT_NE(rr.remap(c), kNoGate);
    EXPECT_EQ(rr.remap(u1), kNoGate);
    GateId shared = rr.netlist.findTie(true, Module::Glue);
    ASSERT_NE(shared, kNoGate);
    EXPECT_EQ(rr.netlist.gate(rr.remap(a)).in[1], shared);
    EXPECT_EQ(rr.netlist.gate(rr.remap(c)).in[1], shared);
    EXPECT_EQ(rr.netlist.findTie(true, Module::Alu), kNoGate);
}

// The two names below predate the kill contract: a killed non-tie gate
// is dropped, not a constant, and resolves to itself.
TEST(RewriteChains, KilledNonTieResolvesViaDead)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    rw.kill(g2);  // g2 has no readers: a legitimate kill
    Rewriter::Resolved r = rw.resolve(g2);
    EXPECT_FALSE(r.isConst);
    EXPECT_EQ(r.gate, g2);

    RewriteResult rr = rw.compact();
    rr.netlist.validate();
    EXPECT_EQ(rr.remap(g2), kNoGate);
    EXPECT_NE(rr.remap(g1), kNoGate);
}

TEST(RewriteChains, AliasIntoKilledGateKeepsViaDeadMarking)
{
    GateId in, g1, g2, g3;
    Netlist nl = threeInvs(&in, &g1, &g2, &g3);
    Rewriter rw(nl);
    rw.makeAlias(g2, g3);
    rw.kill(g3);
    // An alias into a killed gate resolves to that gate, which
    // compact() does not emit.
    Rewriter::Resolved r = rw.resolve(g2);
    EXPECT_FALSE(r.isConst);
    EXPECT_EQ(r.gate, g3);

    RewriteResult rr = rw.compact();
    rr.netlist.validate();
    EXPECT_EQ(rr.remap(g3), kNoGate);
    EXPECT_EQ(rr.remap(g2), kNoGate);
    EXPECT_NE(rr.remap(g1), kNoGate);
}

TEST(RewriteChainsDeath, LivePinReadingKilledGateDiesAtCompact)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId in = nl.addInput("in");
    GateId mid = b.inv(in);
    GateId top = b.inv(mid);  // live reader of mid
    nl.addOutput("out", top);
    nl.validate();

    Rewriter rw(nl);
    rw.kill(mid);
    // Killing a gate with live readers is a pass bug: compact() must
    // refuse to wire the reader to a gate it dropped.
    EXPECT_DEATH(rw.compact(), "reads dropped gate");
}

} // namespace
} // namespace bespoke
