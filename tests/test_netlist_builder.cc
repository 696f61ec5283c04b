/**
 * @file
 * Unit and property tests for the netlist graph and the structural
 * builder: datapath blocks are checked against uint16 arithmetic over
 * randomized operands (parameterized sweeps), and graph utilities
 * (levelize, stats) are checked on known structures.
 */

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/sim/gate_sim.hh"
#include "src/util/rng.hh"

namespace bespoke
{
namespace
{

/** Evaluate a pure-combinational function netlist for given inputs. */
class CombHarness
{
  public:
    CombHarness() : builder_(netlist_) {}

    NetBuilder &b() { return builder_; }

    Bus
    in(const std::string &name, int width)
    {
        Bus bus = builder_.inputBus(name, width);
        inputs_.push_back(bus);
        return bus;
    }

    void
    out(const std::string &name, const Bus &bus)
    {
        builder_.outputBus(name, bus);
        outWidths_[name] = static_cast<int>(bus.size());
    }

    void
    outBit(const std::string &name, GateId g)
    {
        netlist_.addOutput(name, g);
        outWidths_[name] = 0;  // scalar
    }

    /** Apply input words (in declaration order) and evaluate. */
    void
    eval(const std::vector<uint16_t> &values)
    {
        if (!sim_) {
            netlist_.validate();
            sim_ = std::make_unique<GateSim>(netlist_);
        }
        sim_->reset();
        ASSERT_EQ(values.size(), inputs_.size());
        for (size_t i = 0; i < values.size(); i++)
            sim_->setInputWord(inputs_[i], SWord::of(values[i]));
        sim_->evalComb();
    }

    uint16_t
    word(const std::string &name)
    {
        SWord w = sim_->busWord(
            netlist_.bus(name, outWidths_.at(name)));
        EXPECT_TRUE(w.fullyKnown());
        return w.val;
    }

    bool
    bit(const std::string &name)
    {
        Logic v = sim_->value(netlist_.port(name));
        EXPECT_TRUE(isKnown(v));
        return knownValue(v);
    }

  private:
    Netlist netlist_;
    NetBuilder builder_;
    std::vector<Bus> inputs_;
    std::map<std::string, int> outWidths_;
    std::unique_ptr<GateSim> sim_;
};

class BuilderSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BuilderSweep, AdderMatchesUint16)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    AddResult r = h.b().adder(a, b, h.b().tie0());
    h.out("sum", r.sum);
    h.outBit("cout", r.carryOut);

    Rng rng(GetParam());
    for (int t = 0; t < 50; t++) {
        uint16_t x = rng.word(), y = rng.word();
        h.eval({x, y});
        uint32_t wide = static_cast<uint32_t>(x) + y;
        EXPECT_EQ(h.word("sum"), static_cast<uint16_t>(wide));
        EXPECT_EQ(h.bit("cout"), (wide >> 16) != 0);
    }
}

TEST_P(BuilderSweep, SubtractorMatchesUint16)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    AddResult r = h.b().subtractor(a, b);
    h.out("diff", r.sum);
    h.outBit("noborrow", r.carryOut);

    Rng rng(GetParam() + 1000);
    for (int t = 0; t < 50; t++) {
        uint16_t x = rng.word(), y = rng.word();
        h.eval({x, y});
        EXPECT_EQ(h.word("diff"), static_cast<uint16_t>(x - y));
        EXPECT_EQ(h.bit("noborrow"), x >= y);
    }
}

TEST_P(BuilderSweep, LogicBusesMatch)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    h.out("and", h.b().andBus(a, b));
    h.out("or", h.b().orBus(a, b));
    h.out("xor", h.b().xorBus(a, b));
    h.out("inv", h.b().invBus(a));

    Rng rng(GetParam() + 2000);
    for (int t = 0; t < 30; t++) {
        uint16_t x = rng.word(), y = rng.word();
        h.eval({x, y});
        EXPECT_EQ(h.word("and"), x & y);
        EXPECT_EQ(h.word("or"), x | y);
        EXPECT_EQ(h.word("xor"), x ^ y);
        EXPECT_EQ(h.word("inv"), static_cast<uint16_t>(~x));
    }
}

TEST_P(BuilderSweep, ComparatorsAndReductions)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    h.outBit("eq", h.b().equal(a, b));
    h.outBit("zero", h.b().isZero(a));
    h.outBit("eqc", h.b().equalsConst(a, 0x1234));
    h.outBit("ror", h.b().reduceOr(a));
    h.outBit("rand", h.b().reduceAnd(a));

    Rng rng(GetParam() + 3000);
    for (int t = 0; t < 30; t++) {
        uint16_t x = rng.word();
        uint16_t y = rng.chance(1, 3) ? x : rng.word();
        if (t == 0)
            x = 0;
        if (t == 1)
            x = 0xffff;
        if (t == 2)
            x = 0x1234;
        h.eval({x, y});
        EXPECT_EQ(h.bit("eq"), x == y);
        EXPECT_EQ(h.bit("zero"), x == 0);
        EXPECT_EQ(h.bit("eqc"), x == 0x1234);
        EXPECT_EQ(h.bit("ror"), x != 0);
        EXPECT_EQ(h.bit("rand"), x == 0xffff);
    }
}

TEST_P(BuilderSweep, MuxTreeSelects)
{
    CombHarness h;
    Bus sel = h.in("sel", 3);
    std::vector<Bus> choices;
    for (int i = 0; i < 8; i++)
        choices.push_back(
            h.in(std::string("c").append(std::to_string(i)), 16));
    h.out("out", h.b().muxTree(sel, choices));

    Rng rng(GetParam() + 4000);
    for (int t = 0; t < 30; t++) {
        std::vector<uint16_t> vals = {
            static_cast<uint16_t>(rng.below(8))};
        for (int i = 0; i < 8; i++)
            vals.push_back(rng.word());
        h.eval(vals);
        EXPECT_EQ(h.word("out"), vals[1 + vals[0]]);
    }
}

TEST_P(BuilderSweep, AdderCarryEdges)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    Bus cin = h.in("cin", 1);
    AddResult r = h.b().adder(a, b, cin[0]);
    h.out("sum", r.sum);
    h.outBit("cout", r.carryOut);
    h.outBit("c7", r.carries[7]);

    // Directed wraparound / full-chain cases plus randomized carry-in.
    std::vector<std::array<uint16_t, 3>> cases = {
        {0xffff, 0x0001, 0},  // full-length carry ripple, wraps to 0
        {0xffff, 0x0000, 1},  // carry-in alone ripples end to end
        {0xffff, 0xffff, 1},  // all-ones + all-ones + cin
        {0x7fff, 0x0001, 0},  // ripple stops at bit 15 (no cout)
        {0x00ff, 0x0001, 0},  // byte-boundary carry: c7 set, cout clear
        {0x8000, 0x8000, 0},  // single-bit carry out of the MSB
        {0x0000, 0x0000, 0},
    };
    Rng rng(GetParam() + 5000);
    for (int t = 0; t < 20; t++) {
        cases.push_back({rng.word(), rng.word(),
                         static_cast<uint16_t>(rng.chance(1, 2))});
    }
    for (auto [x, y, ci] : cases) {
        h.eval({x, y, ci});
        uint32_t wide = static_cast<uint32_t>(x) + y + ci;
        EXPECT_EQ(h.word("sum"), static_cast<uint16_t>(wide));
        EXPECT_EQ(h.bit("cout"), (wide >> 16) != 0);
        EXPECT_EQ(h.bit("c7"), (((x & 0xff) + (y & 0xff) + ci) >> 8)
                      != 0);
    }
}

TEST_P(BuilderSweep, SubtractorBorrowChains)
{
    CombHarness h;
    Bus a = h.in("a", 16), b = h.in("b", 16);
    AddResult r = h.b().subtractor(a, b);
    h.out("diff", r.sum);
    h.outBit("noborrow", r.carryOut);
    h.outBit("c7", r.carries[7]);

    std::vector<std::array<uint16_t, 2>> cases = {
        {0x0000, 0x0001},  // 0 - 1: borrow ripples the whole width
        {0x0000, 0xffff},  // 0 - (-1) = 1, borrowed
        {0x8000, 0x0001},  // borrow chain across 15 zero bits
        {0x0001, 0x0001},  // exact zero: no borrow
        {0xffff, 0xffff},
        {0x0100, 0x0001},  // borrow crosses the byte boundary
        {0x00ff, 0x0100},
    };
    Rng rng(GetParam() + 6000);
    for (int t = 0; t < 20; t++)
        cases.push_back({rng.word(), rng.word()});
    for (auto [x, y] : cases) {
        h.eval({x, y});
        EXPECT_EQ(h.word("diff"), static_cast<uint16_t>(x - y));
        EXPECT_EQ(h.bit("noborrow"), x >= y);
        // carries[7] is the byte-mode no-borrow flag.
        EXPECT_EQ(h.bit("c7"), (x & 0xff) >= (y & 0xff));
    }
}

TEST_P(BuilderSweep, MuxTreeNonPowerOfTwo)
{
    // 5 choices under a 3-bit select: the odd tail of the mux tree
    // must still route every in-range select value correctly.
    CombHarness h;
    Bus sel = h.in("sel", 3);
    std::vector<Bus> choices;
    for (int i = 0; i < 5; i++)
        choices.push_back(
            h.in(std::string("c").append(std::to_string(i)), 16));
    h.out("out", h.b().muxTree(sel, choices));

    Rng rng(GetParam() + 7000);
    for (int t = 0; t < 30; t++) {
        std::vector<uint16_t> vals = {
            static_cast<uint16_t>(rng.below(5))};
        for (int i = 0; i < 5; i++)
            vals.push_back(rng.word());
        h.eval(vals);
        EXPECT_EQ(h.word("out"), vals[1 + vals[0]]);
    }
}

TEST(Builder, MuxTreeThreeChoices)
{
    CombHarness h;
    Bus sel = h.in("sel", 2);
    std::vector<Bus> choices;
    for (int i = 0; i < 3; i++)
        choices.push_back(
            h.in(std::string("c").append(std::to_string(i)), 16));
    h.out("out", h.b().muxTree(sel, choices));
    for (uint16_t v = 0; v < 3; v++) {
        h.eval({v, 0x1111, 0x2222, 0x3333});
        EXPECT_EQ(h.word("out"),
                  static_cast<uint16_t>(0x1111 * (v + 1)));
    }
}

TEST_P(BuilderSweep, MuxTreeDefaultOutOfRange)
{
    // 5 choices under a 3-bit select with an explicit default: selects
    // 5..7 must yield the default bus, 0..4 the matching choice.
    CombHarness h;
    Bus sel = h.in("sel", 3);
    std::vector<Bus> choices;
    for (int i = 0; i < 5; i++)
        choices.push_back(
            h.in(std::string("c").append(std::to_string(i)), 16));
    Bus dflt = h.in("dflt", 16);
    h.out("out", h.b().muxTree(sel, choices, dflt));

    Rng rng(GetParam() + 8000);
    for (int t = 0; t < 40; t++) {
        std::vector<uint16_t> vals = {
            static_cast<uint16_t>(rng.below(8))};
        for (int i = 0; i < 6; i++)
            vals.push_back(rng.word());
        h.eval(vals);
        uint16_t want = vals[0] < 5 ? vals[1 + vals[0]] : vals[6];
        EXPECT_EQ(h.word("out"), want) << "sel=" << vals[0];
    }
}

TEST(Builder, MuxTreeDefaultNonPowerOfTwoWidths)
{
    // Every (choice count, select width) shape up to 4 select bits,
    // exercising both the padded tail and full trees.
    for (size_t sel_bits = 1; sel_bits <= 4; sel_bits++) {
        size_t slots = 1ull << sel_bits;
        for (size_t n = 1; n <= slots; n++) {
            CombHarness h;
            Bus sel = h.in("sel", static_cast<int>(sel_bits));
            std::vector<Bus> choices;
            for (size_t i = 0; i < n; i++)
                choices.push_back(
                    h.in(std::string("c").append(std::to_string(i)), 16));
            Bus dflt = h.in("dflt", 16);
            h.out("out", h.b().muxTree(sel, choices, dflt));
            for (size_t v = 0; v < slots; v++) {
                std::vector<uint16_t> vals = {
                    static_cast<uint16_t>(v)};
                for (size_t i = 0; i < n; i++)
                    vals.push_back(
                        static_cast<uint16_t>(0x111 * (i + 1)));
                vals.push_back(0xBEEF);
                h.eval(vals);
                uint16_t want = v < n
                                    ? static_cast<uint16_t>(
                                          0x111 * (v + 1))
                                    : 0xBEEF;
                EXPECT_EQ(h.word("out"), want)
                    << "sel_bits=" << sel_bits << " n=" << n
                    << " v=" << v;
            }
        }
    }
}

TEST(Builder, MuxTreeDefaultSingleChoice)
{
    // Degenerate 1-choice tree: select 0 hits the choice, everything
    // else the default.
    CombHarness h;
    Bus sel = h.in("sel", 2);
    Bus c0 = h.in("c0", 16);
    Bus dflt = h.in("dflt", 16);
    h.out("out", h.b().muxTree(sel, {c0}, dflt));
    for (uint16_t v = 0; v < 4; v++) {
        h.eval({v, 0xABCD, 0x5555});
        EXPECT_EQ(h.word("out"), v == 0 ? 0xABCD : 0x5555);
    }
}

TEST(Builder, IncrementerWraparound)
{
    CombHarness h;
    Bus a = h.in("a", 16);
    AddResult r = h.b().incrementer(a);
    h.out("inc", r.sum);
    h.outBit("cout", r.carryOut);
    h.eval({0xffff});
    EXPECT_EQ(h.word("inc"), 0u);      // 0xFFFF + 1 wraps to 0
    EXPECT_TRUE(h.bit("cout"));
    h.eval({0x7fff});
    EXPECT_EQ(h.word("inc"), 0x8000);  // ripple through 15 ones
    EXPECT_FALSE(h.bit("cout"));
    h.eval({0x0000});
    EXPECT_EQ(h.word("inc"), 1u);
    EXPECT_FALSE(h.bit("cout"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Builder, DecoderIsOneHot)
{
    CombHarness h;
    Bus sel = h.in("sel", 4);
    Bus dec = h.b().decoder(sel);
    h.out("dec", dec);
    for (uint16_t v = 0; v < 16; v++) {
        h.eval({v});
        EXPECT_EQ(h.word("dec"), 1u << v);
    }
}

TEST(Builder, IncrementerAndShifts)
{
    CombHarness h;
    Bus a = h.in("a", 16);
    h.out("inc", h.b().incrementer(a).sum);
    h.out("shr", h.b().shiftRight1(a, h.b().tie0()));
    h.out("shl", h.b().shiftLeft1(a, h.b().tie1()));
    Rng rng(11);
    for (int t = 0; t < 30; t++) {
        uint16_t x = t == 0 ? 0xffff : rng.word();
        h.eval({x});
        EXPECT_EQ(h.word("inc"), static_cast<uint16_t>(x + 1));
        EXPECT_EQ(h.word("shr"), x >> 1);
        EXPECT_EQ(h.word("shl"), static_cast<uint16_t>((x << 1) | 1));
    }
}

TEST(Netlist, StatsAndModules)
{
    Netlist nl;
    NetBuilder b(nl, Module::Alu);
    GateId a = nl.addInput("a");
    GateId x = b.and2(a, a);
    b.setModule(Module::RF);
    GateId q = b.dff(x);
    nl.addOutput("q", q);
    nl.validate();

    NetlistStats s = nl.stats();
    EXPECT_EQ(s.numCells, 2u);
    EXPECT_EQ(s.numSequential, 1u);
    EXPECT_GT(s.area, 0.0);
    EXPECT_EQ(nl.moduleStats(Module::Alu).numCells, 1u);
    EXPECT_EQ(nl.moduleStats(Module::RF).numCells, 1u);
    EXPECT_EQ(nl.moduleStats(Module::Mult).numCells, 0u);
}

TEST(Netlist, LevelizeRespectsDependencies)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId g1 = b.inv(a);
    GateId g2 = b.and2(g1, a);
    GateId g3 = b.or2(g2, g1);
    nl.addOutput("o", g3);
    std::vector<GateId> order = nl.levelize();
    auto pos = [&](GateId id) {
        for (size_t i = 0; i < order.size(); i++) {
            if (order[i] == id)
                return static_cast<long>(i);
        }
        return -1l;
    };
    EXPECT_LT(pos(g1), pos(g2));
    EXPECT_LT(pos(g2), pos(g3));
}

TEST(Netlist, TieCellsAreSharedPerModule)
{
    Netlist nl;
    GateId t1 = nl.tie(true, Module::Alu);
    GateId t2 = nl.tie(true, Module::Alu);
    GateId t3 = nl.tie(true, Module::RF);
    GateId t4 = nl.tie(false, Module::Alu);
    EXPECT_EQ(t1, t2);
    EXPECT_NE(t1, t3);
    EXPECT_NE(t1, t4);
}

TEST(Netlist, PortsAndBuses)
{
    Netlist nl;
    NetBuilder b(nl);
    Bus in = b.inputBus("data", 4);
    b.outputBus("out", in);
    EXPECT_TRUE(nl.hasPort("data[0]"));
    EXPECT_TRUE(nl.hasPort("out[3]"));
    EXPECT_FALSE(nl.hasPort("nope"));
    EXPECT_EQ(nl.bus("data", 4).size(), 4u);
    EXPECT_EQ(nl.inputIds().size(), 4u);
    EXPECT_EQ(nl.outputIds().size(), 4u);
}

} // namespace
} // namespace bespoke
