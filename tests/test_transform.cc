/**
 * @file
 * Transform correctness: stripBuffers / sweepDead / re-synthesis must
 * preserve the simulated behavior of the design. Checked structurally
 * on hand-built cases and behaviorally on randomized netlists
 * (simulation equivalence over random stimulus).
 */

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/sim/gate_sim.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/transform/rewrite.hh"
#include "src/util/rng.hh"

namespace bespoke
{
namespace
{

/** Random netlist with inputs, combinational soup, flops, outputs. */
Netlist
randomNetlist(Rng &rng, int num_inputs, int num_gates, int num_flops,
              bool with_ties)
{
    Netlist nl;
    NetBuilder b(nl);
    std::vector<GateId> pool;
    for (int i = 0; i < num_inputs; i++)
        pool.push_back(nl.addInput("in[" + std::to_string(i) + "]"));
    if (with_ties) {
        pool.push_back(b.tie0());
        pool.push_back(b.tie1());
    }
    // Flops with placeholder D (bound to random nets at the end).
    std::vector<GateId> flop_d;
    for (int i = 0; i < num_flops; i++) {
        GateId ph = b.buf(b.tie0());
        flop_d.push_back(ph);
        pool.push_back(b.dff(ph, rng.chance(1, 2)));
    }
    auto pick = [&]() { return pool[rng.below(
        static_cast<uint32_t>(pool.size()))]; };
    for (int i = 0; i < num_gates; i++) {
        CellType types[] = {CellType::INV,   CellType::AND2,
                            CellType::OR2,   CellType::NAND2,
                            CellType::NOR2,  CellType::XOR2,
                            CellType::XNOR2, CellType::MUX2,
                            CellType::AOI21, CellType::OAI21,
                            CellType::AND3,  CellType::OR3,
                            CellType::BUF};
        CellType t = types[rng.below(13)];
        int n = cellNumInputs(t);
        GateId g = nl.addGate(t, Module::Glue, pick(),
                              n > 1 ? pick() : kNoGate,
                              n > 2 ? pick() : kNoGate);
        pool.push_back(g);
    }
    for (GateId ph : flop_d)
        nl.setFanin(ph, 0, pool[rng.below(
            static_cast<uint32_t>(pool.size()))]);
    for (int i = 0; i < 4; i++)
        nl.addOutput("out[" + std::to_string(i) + "]", pick());
    nl.validate();
    return nl;
}

/** Run both netlists on identical random stimulus; compare outputs. */
void
expectBehaviorEquivalent(const Netlist &a, const Netlist &b,
                         uint32_t seed, int cycles)
{
    GateSim sa(a), sb(b);
    sa.reset();
    sb.reset();
    std::vector<GateId> ins_a = a.inputIds(), outs_a = a.outputIds();
    Rng rng(seed);
    for (int c = 0; c < cycles; c++) {
        for (GateId id : ins_a) {
            Logic v = logicOf(rng.chance(1, 2));
            sa.setInput(id, v);
            sb.setInput(b.port(a.name(id)), v);
        }
        sa.evalComb();
        sb.evalComb();
        for (GateId id : outs_a) {
            Logic va = sa.value(id);
            Logic vb = sb.value(b.port(a.name(id)));
            ASSERT_EQ(va, vb) << "output " << a.name(id) << " cycle "
                              << c;
        }
        sa.latchSequential();
        sb.latchSequential();
    }
}

class TransformSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(TransformSweep, StripBuffersPreservesBehavior)
{
    Rng rng(GetParam());
    Netlist nl = randomNetlist(rng, 5, 60, 6, false);
    RewriteResult rr = stripBuffers(nl);
    rr.netlist.validate();
    // No BUF cells remain.
    for (const Gate &g : rr.netlist.gates())
        EXPECT_NE(g.type, CellType::BUF);
    expectBehaviorEquivalent(nl, rr.netlist, GetParam() * 7 + 1, 24);
}

TEST_P(TransformSweep, ResynthesizePreservesBehavior)
{
    Rng rng(GetParam() + 50);
    Netlist nl = randomNetlist(rng, 5, 80, 6, /*with_ties=*/true);
    Netlist opt = runTailorPipeline(nl, nullptr);
    EXPECT_LE(opt.numCells(), nl.numCells());
    expectBehaviorEquivalent(nl, opt, GetParam() * 13 + 3, 24);
}

TEST_P(TransformSweep, SweepDeadRemovesOnlyUnobservable)
{
    Rng rng(GetParam() + 99);
    Netlist nl = randomNetlist(rng, 5, 60, 6, false);
    RewriteResult rr = sweepDead(nl);
    EXPECT_LE(rr.netlist.numCells(), nl.numCells());
    expectBehaviorEquivalent(nl, rr.netlist, GetParam() * 17 + 5, 24);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(Transform, ConstantFoldingCases)
{
    // AND with 0 folds to 0; NAND with 1 becomes INV; XOR with 1
    // becomes INV; MUX with constant select becomes a wire.
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    nl.addOutput("and0", b.and2(a, b.tie0()));
    nl.addOutput("nand1", b.nand2(a, b.tie1()));
    nl.addOutput("xor1", b.xor2(a, b.tie1()));
    nl.addOutput("mux", b.mux2(b.tie1(), b.inv(a), a));
    nl.addOutput("or_self", b.or2(a, a));
    nl.validate();

    Netlist opt = runTailorPipeline(nl, nullptr);
    // and0 -> tie0; nand1/xor1 -> one INV each (may share); mux -> a;
    // or_self -> a. Expect a drastic reduction.
    EXPECT_LE(opt.numCells(), 4u);
    expectBehaviorEquivalent(nl, opt, 3, 8);
}

TEST(Transform, DffWithConstantInputs)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    // D tied to reset value: constant forever.
    nl.addOutput("q0", b.dff(b.tie0(), false));
    // Enable tied low: holds reset value forever.
    nl.addOutput("q1", b.dffe(a, b.tie0(), true));
    // Enable tied high: plain DFF.
    GateId q2 = b.dffe(a, b.tie1(), false);
    nl.addOutput("q2", q2);
    nl.validate();

    Netlist opt = runTailorPipeline(nl, nullptr);
    size_t flops = opt.stats().numSequential;
    EXPECT_EQ(flops, 1u);  // only q2 survives as a flop
    for (const Gate &g : opt.gates()) {
        if (cellSequential(g.type)) {
            EXPECT_EQ(g.type, CellType::DFF);  // DFFE simplified
        }
    }
    expectBehaviorEquivalent(nl, opt, 5, 16);
}

TEST(Transform, CutAndStitchHonorsActivity)
{
    // Build a mux between two subcircuits; mark one side untoggled.
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId sel = nl.addInput("sel");
    GateId left = b.inv(a);
    GateId right = b.xor2(a, b.inv(a));  // actually constant 1
    GateId m = b.mux2(sel, left, right);
    nl.addOutput("o", m);
    nl.validate();

    GateSim sim(nl);
    sim.reset();
    sim.setInput(a, Logic::Zero);
    sim.setInput(sel, Logic::Zero);
    sim.evalComb();
    ActivityTracker tracker(nl);
    tracker.captureInitial(sim);
    // Toggle only 'a'; 'sel' stays 0 so the mux and left side toggle.
    for (Logic v : {Logic::One, Logic::Zero, Logic::One}) {
        sim.setInput(a, v);
        sim.evalComb();
        tracker.observe(sim);
    }

    CutStats stats;
    Netlist cut = runTailorPipeline(nl, &tracker, {}, {}, &stats);
    EXPECT_GT(stats.gatesCutDirect, 0u);
    EXPECT_LT(cut.numCells(), nl.numCells());

    // The cut design must match the original for sel == 0 stimulus.
    GateSim so(nl), sc(cut);
    so.reset();
    sc.reset();
    for (Logic v : {Logic::Zero, Logic::One, Logic::Zero}) {
        so.setInput(a, v);
        so.setInput(sel, Logic::Zero);
        sc.setInput(cut.port("a"), v);
        sc.setInput(cut.port("sel"), Logic::Zero);
        so.evalComb();
        sc.evalComb();
        EXPECT_EQ(so.value(nl.port("o")),
                  sc.value(cut.port("o")));
    }
}

TEST(Transform, RewriterResolveChains)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId g1 = b.buf(a);
    GateId g2 = b.buf(g1);
    GateId g3 = b.buf(g2);
    nl.addOutput("o", g3);

    Rewriter rw(nl);
    rw.makeAlias(g1, a);
    rw.makeAlias(g2, g1);
    rw.makeAlias(g3, g2);
    Rewriter::Resolved r = rw.resolve(g3);
    EXPECT_FALSE(r.isConst);
    EXPECT_EQ(r.gate, a);

    RewriteResult rr = rw.compact();
    // Output port now fed directly by the input.
    GateId out = rr.netlist.port("o");
    EXPECT_EQ(rr.netlist.gate(out).in[0], rr.netlist.port("a"));
}

TEST(Transform, ModuleLevelCutKeepsUsedModules)
{
    Netlist nl;
    NetBuilder b(nl, Module::Alu);
    GateId a = nl.addInput("a");
    GateId a2 = nl.addInput("a2");
    GateId used = b.inv(a);
    b.setModule(Module::Mult);
    GateId unused1 = b.and2(a, a2);
    GateId unused2 = b.inv(unused1);
    b.setModule(Module::Alu);
    nl.addOutput("o", used);
    nl.addOutput("m", unused2);
    nl.validate();

    GateSim sim(nl);
    sim.reset();
    sim.setInput(a, Logic::Zero);
    sim.setInput(a2, Logic::One);
    sim.evalComb();
    ActivityTracker tracker(nl);
    tracker.captureInitial(sim);
    sim.setInput(a, Logic::One);
    sim.evalComb();
    tracker.observe(sim);
    // Mult gates toggled here, so the whole module must be kept.
    PassPipelineOptions module_cut;
    module_cut.moduleCut = true;
    Netlist cut = runTailorPipeline(nl, &tracker, module_cut);
    EXPECT_EQ(cut.moduleStats(Module::Mult).numCells, 2u);
}

} // namespace
} // namespace bespoke
