/**
 * @file
 * Extended-core (timer + UART) tests: peripheral hardware behavior
 * (including decoding the actual UART bit stream off the tx pin),
 * golden-model consistency where applicable, and the bespoke flow on
 * the richer core — unused peripherals must be provably strippable.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/netlist/verilog_export.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

const Netlist &
extCore()
{
    static Netlist nl = buildBsp430(nullptr, CpuConfig::extended());
    return nl;
}

TEST(ExtCore, HasTimerAndUartModules)
{
    EXPECT_GT(extCore().moduleStats(Module::Timer).numCells, 100u);
    EXPECT_GT(extCore().moduleStats(Module::Uart).numCells, 80u);
    EXPECT_TRUE(extCore().hasPort("uart_tx"));
    // The default core has neither.
    Netlist base = buildBsp430();
    EXPECT_EQ(base.moduleStats(Module::Timer).numCells, 0u);
    EXPECT_FALSE(base.hasPort("uart_tx"));
    EXPECT_GT(extCore().numCells(), base.numCells());
}

TEST(ExtCore, UartTransmitsCorrectBitstream)
{
    const Workload &w = workloadByName("uartTx");
    AsmProgram prog = w.assembleProgram();
    Rng rng(21);
    WorkloadInput in = w.genInput(rng);

    // Sample the tx pin every cycle and decode 8N1 frames at the
    // divide-by-8 baud rate.
    GateId tx_port = extCore().port("uart_tx");
    std::vector<int> samples;
    auto per_cycle = [&](const GateSim &sim) {
        Logic v = sim.value(tx_port);
        samples.push_back(v == Logic::One ? 1
                          : v == Logic::Zero ? 0 : -1);
    };
    GateRun run = runWorkloadGate(extCore(), w, prog, in, nullptr,
                                  nullptr, per_cycle);
    ASSERT_TRUE(run.halted);

    std::vector<uint8_t> decoded;
    size_t i = 0;
    while (i < samples.size()) {
        if (samples[i] != 0) {
            i++;
            continue;
        }
        // Start bit found; sample each bit mid-cell (4 of 8).
        size_t frame = i;
        uint8_t byte = 0;
        bool ok = true;
        for (int bit = 0; bit < 8 && ok; bit++) {
            size_t at = frame + 8 * (bit + 1) + 4;
            ASSERT_LT(at, samples.size());
            if (samples[at] < 0)
                ok = false;
            else
                byte |= static_cast<uint8_t>(samples[at] << bit);
        }
        size_t stop_at = frame + 8 * 9 + 4;
        ASSERT_LT(stop_at, samples.size());
        EXPECT_EQ(samples[stop_at], 1) << "missing stop bit";
        ASSERT_TRUE(ok);
        decoded.push_back(byte);
        i = frame + 8 * 10;
    }

    ASSERT_EQ(decoded.size(), 6u);
    for (int k = 0; k < 6; k++)
        EXPECT_EQ(decoded[k], in.ramWords[k] & 0xff) << "byte " << k;

    // Architectural result also matches the golden model.
    IssRun ir = runWorkloadIss(w, in);
    RunDiff diff = compareRuns(ir, run, w);
    EXPECT_TRUE(diff.ok) << diff.detail;
}

TEST(ExtCore, TimerFiresPeriodically)
{
    const Workload &w = workloadByName("timerTick");
    AsmProgram prog = w.assembleProgram();
    Rng rng(5);
    WorkloadInput in = w.genInput(rng);
    GateRun run = runWorkloadGate(extCore(), w, prog, in);
    ASSERT_TRUE(run.halted);
    ASSERT_TRUE(run.out[0].fullyKnown());
    EXPECT_EQ(run.out[0].val, 3u);  // three compare events observed
    ASSERT_TRUE(run.out[1].fullyKnown());
    EXPECT_EQ(run.out[1].val, (in.ramWords[0] & 0x3f) + 20);
}

TEST(ExtCore, StandardWorkloadsRunUnchanged)
{
    // The paper's benchmarks are oblivious to the extra peripherals.
    for (const char *name : {"div", "tHold"}) {
        const Workload &w = workloadByName(name);
        AsmProgram prog = w.assembleProgram();
        Rng rng(31);
        WorkloadInput in = w.genInput(rng);
        IssRun ir = runWorkloadIss(w, in);
        GateRun gr = runWorkloadGate(extCore(), w, prog, in);
        RunDiff diff = compareRuns(ir, gr, w);
        EXPECT_TRUE(diff.ok) << name << ": " << diff.detail;
    }
}

TEST(ExtCore, BespokeStripsUnusedPeripherals)
{
    // An app that uses neither timer nor UART: both modules must be
    // provably untoggleable and cut away entirely.
    const Workload &w = workloadByName("div");
    AnalysisResult r = analyzeActivity(extCore(), w);
    ASSERT_TRUE(r.completed);
    // All peripheral *state* must be provably frozen. (Combinational
    // address-decode gates inside the modules legitimately toggle with
    // the bus; they die in re-synthesis once their strobes fold to 0.)
    for (GateId i = 0; i < extCore().size(); i++) {
        const Gate &g = extCore().gate(i);
        if (!cellSequential(g.type))
            continue;
        if (g.module == Module::Timer || g.module == Module::Uart) {
            EXPECT_FALSE(r.activity->toggled(i))
                << moduleName(g.module) << " flop " << i;
        }
    }
    Netlist cut = runTailorPipeline(extCore(), r.activity.get());
    // Nothing left but (at most) the tie cell driving the preserved
    // uart_tx output port at its proven-constant idle value.
    for (GateId i = 0; i < cut.size(); i++) {
        const Gate &g = cut.gate(i);
        if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
            g.type == CellType::TIE1) {
            continue;
        }
        EXPECT_NE(g.module, Module::Timer) << "gate " << i;
        EXPECT_NE(g.module, Module::Uart) << "gate " << i;
    }

    // And the uartTx app keeps the UART but not the timer.
    AnalysisResult ru =
        analyzeActivity(extCore(), workloadByName("uartTx"));
    ASSERT_TRUE(ru.completed);
    Netlist cut_u = runTailorPipeline(extCore(), ru.activity.get());
    EXPECT_GT(cut_u.moduleStats(Module::Uart).numCells, 50u);
    EXPECT_EQ(cut_u.moduleStats(Module::Timer).numCells, 0u);
}

TEST(VerilogExport, StructureAndPorts)
{
    const Workload &w = workloadByName("div");
    Netlist base = buildBsp430();
    AnalysisResult r = analyzeActivity(base, w);
    // Export the baseline-derived bespoke design.
    Netlist design = runTailorPipeline(base, r.activity.get());
    std::ostringstream os;
    exportVerilog(design, "bespoke_div", os);
    std::string v = os.str();
    EXPECT_NE(v.find("module bespoke_div ("), std::string::npos);
    EXPECT_NE(v.find("input wire clk"), std::string::npos);
    EXPECT_NE(v.find("[15:0] mem_rdata"), std::string::npos);
    EXPECT_NE(v.find("output wire [15:0] mem_addr"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
    // Every real cell appears as an instance.
    size_t instances = 0;
    for (size_t pos = v.find(" u"); pos != std::string::npos;
         pos = v.find(" u", pos + 1)) {
        if (std::isdigit(static_cast<unsigned char>(v[pos + 2])))
            instances++;
    }
    EXPECT_EQ(instances, design.numCells());

    std::ostringstream lib;
    writeCellLibrary(lib);
    std::string l = lib.str();
    EXPECT_NE(l.find("module NAND2_X1"), std::string::npos);
    EXPECT_NE(l.find("module DFFE_X4"), std::string::npos);
    EXPECT_NE(l.find("module TIE1"), std::string::npos);
}

} // namespace
} // namespace bespoke
