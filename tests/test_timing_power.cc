/**
 * @file
 * Timing and power model tests: STA on chains with known delays,
 * load-based sizing, alpha-power-law monotonicity, Vmin search, and
 * power accounting.
 */

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/power/power_model.hh"
#include "src/timing/sta.hh"

namespace bespoke
{
namespace
{

TEST(Timing, ChainDelayGrowsWithDepth)
{
    double last = 0.0;
    for (int depth : {2, 8, 32}) {
        Netlist nl;
        NetBuilder b(nl);
        GateId a = nl.addInput("a");
        GateId cur = a;
        for (int i = 0; i < depth; i++)
            cur = b.inv(cur);
        GateId q = b.dff(cur);
        nl.addOutput("o", q);
        TimingReport rep = analyzeTiming(nl);
        EXPECT_GT(rep.criticalPathPs, last);
        last = rep.criticalPathPs;
        // The reported path must end at the flop's D driver chain.
        EXPECT_GE(rep.criticalPath.size(), static_cast<size_t>(depth));
    }
}

TEST(Timing, LoadIncreasesDelay)
{
    auto critical_with_fanout = [](int fanout) {
        Netlist nl;
        NetBuilder b(nl);
        GateId a = nl.addInput("a");
        GateId g = b.inv(a);
        GateId x = b.inv(g);
        for (int i = 0; i < fanout; i++)
            nl.addOutput(std::string("o").append(std::to_string(i)), b.inv(g));
        nl.addOutput("x", x);
        return analyzeTiming(nl).criticalPathPs;
    };
    EXPECT_GT(critical_with_fanout(24), critical_with_fanout(1));
}

TEST(Timing, SizingReducesCriticalPathUnderLoad)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId heavy = b.inv(a);
    GateId sink = heavy;
    for (int i = 0; i < 30; i++)
        nl.addOutput(std::string("o").append(std::to_string(i)), b.inv(heavy));
    nl.addOutput("s", b.inv(sink));
    double before = analyzeTiming(nl).criticalPathPs;
    size_t upsized = sizeForLoads(nl);
    EXPECT_GT(upsized, 0u);
    double after = analyzeTiming(nl).criticalPathPs;
    EXPECT_LT(after, before);
}

TEST(Timing, DelayScaleMonotoneInVoltage)
{
    TimingParams p;
    double prev = 1e18;
    for (double v = 0.5; v <= 1.01; v += 0.05) {
        double s = delayScaleAtVoltage(v, p);
        EXPECT_LT(s, prev);
        prev = s;
    }
    EXPECT_NEAR(delayScaleAtVoltage(1.0, p), 1.0, 1e-9);
}

TEST(Timing, VminBehavesAtExtremes)
{
    TimingParams p;
    // No slack: stay at nominal.
    EXPECT_DOUBLE_EQ(vminForPeriod(1000.0, 1000.0, p), p.vNominal);
    // Huge slack: clamp at the floor.
    EXPECT_DOUBLE_EQ(vminForPeriod(10.0, 100000.0, p), p.vMinFloor);
    // Moderate slack: strictly between.
    double v = vminForPeriod(600.0, 1000.0, p);
    EXPECT_GT(v, p.vMinFloor);
    EXPECT_LT(v, p.vNominal);
    // More slack -> lower (or equal) Vmin.
    EXPECT_LE(vminForPeriod(500.0, 1000.0, p), v);
}

TEST(Power, AccountsAllComponentsAndScales)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    GateId g = b.inv(a);
    GateId q = b.dff(g);
    nl.addOutput("o", q);

    GateSim sim(nl);
    sim.reset();
    ToggleCounter tc(nl);
    for (int c = 0; c < 10; c++) {
        sim.setInput(a, logicOf(c % 2));
        sim.evalComb();
        tc.observe(sim);
        sim.latchSequential();
    }
    PowerReport rep = computePower(nl, tc);
    EXPECT_GT(rep.switchingUW, 0.0);
    EXPECT_GT(rep.clockUW, 0.0);
    EXPECT_GT(rep.leakageUW, 0.0);

    PowerReport half = scaleToVoltage(rep, 0.5);
    EXPECT_NEAR(half.totalUW(), rep.totalUW() * 0.25, 1e-9);
}

TEST(Power, IdleDesignStillLeaksButBarelySwitches)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId a = nl.addInput("a");
    nl.addOutput("o", b.inv(a));
    GateSim sim(nl);
    sim.reset();
    sim.setInput(a, Logic::Zero);
    ToggleCounter tc(nl);
    for (int c = 0; c < 10; c++) {
        sim.evalComb();
        tc.observe(sim);
    }
    PowerReport rep = computePower(nl, tc);
    EXPECT_EQ(rep.switchingUW, 0.0);
    EXPECT_GT(rep.leakageUW, 0.0);
}

TEST(CellLibrary, ParameterSanity)
{
    for (int t = 0; t < kNumCellTypes; t++) {
        CellType type = static_cast<CellType>(t);
        if (cellPseudo(type))
            continue;
        EXPECT_GT(cellArea(type, Drive::X1), 0.0) << cellName(type,
                                                              Drive::X1);
        // Bigger drives: more area/leakage, lower resistance.
        EXPECT_GT(cellArea(type, Drive::X4), cellArea(type, Drive::X1));
        EXPECT_GT(cellLeakage(type, Drive::X4),
                  cellLeakage(type, Drive::X1));
        if (cellDriveRes(type, Drive::X1) > 0) {
            EXPECT_LT(cellDriveRes(type, Drive::X4),
                      cellDriveRes(type, Drive::X1));
        }
    }
    EXPECT_TRUE(cellSequential(CellType::DFF));
    EXPECT_TRUE(cellSequential(CellType::DFFE));
    EXPECT_FALSE(cellSequential(CellType::NAND2));
    EXPECT_EQ(cellName(CellType::NAND2, Drive::X2), "NAND2_X2");
}

} // namespace
} // namespace bespoke
