/**
 * @file
 * Extension experiment (beyond the paper's tables): the more
 * over-provisioned the general-purpose IP, the more a bespoke design
 * saves. We compare tailoring the same applications on the default
 * core vs. the extended core (adds a Timer_A-style timer and a UART
 * transmitter): for apps that use neither peripheral the bespoke
 * design is essentially unchanged while the baseline grew, so savings
 * rise — the paper's core argument, made quantitative on our own IP.
 */

#include "bench/bench_common.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/timing/sta.hh"
#include "src/transform/pass_pipeline.hh"

using namespace bespoke;

namespace
{

struct CoreCtx
{
    Netlist netlist;
    explicit CoreCtx(const CpuConfig &cfg)
        : netlist(buildBsp430(nullptr, cfg))
    {
        sizeForLoads(netlist);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "ext_core_overprovisioning", BenchIO::Lanes);
    bool quick = io.quick();

    banner("Bespoke savings grow with IP over-provisioning",
           "extension of Sec. 2's argument");

    CoreCtx base(CpuConfig{});
    CoreCtx ext(CpuConfig::extended());
    std::printf("default core: %zu cells; extended core (+timer, "
                "+uart): %zu cells\n\n",
                base.netlist.numCells(), ext.netlist.numCells());
    io.metric("default_core_cells",
              static_cast<double>(base.netlist.numCells()));
    io.metric("extended_core_cells",
              static_cast<double>(ext.netlist.numCells()));

    Table table({"benchmark", "bespoke cells (default core)",
                 "savings %", "bespoke cells (extended core)",
                 "savings %"});

    std::vector<std::string> names = {"binSearch", "div", "intFilt",
                                      "tea8", "convEn", "dbg"};
    if (quick)
        names.resize(2);
    const AnalysisOptions aopts = io.analysisOptions();
    for (const std::string &name : names) {
        const Workload &w = workloadByName(name);
        AnalysisResult rb = analyzeActivity(base.netlist, w, aopts);
        AnalysisResult re = analyzeActivity(ext.netlist, w, aopts);
        Netlist db = runTailorPipeline(base.netlist, rb.activity.get());
        Netlist de = runTailorPipeline(ext.netlist, re.activity.get());
        table.row()
            .add(w.name)
            .add(static_cast<long>(db.numCells()))
            .add(savingsPct(
                     static_cast<double>(base.netlist.numCells()),
                     static_cast<double>(db.numCells())),
                 1)
            .add(static_cast<long>(de.numCells()))
            .add(savingsPct(
                     static_cast<double>(ext.netlist.numCells()),
                     static_cast<double>(de.numCells())),
                 1);
    }

    // The peripheral-using apps, for contrast.
    for (const char *name : {"uartTx", "timerTick"}) {
        const Workload &w = workloadByName(name);
        AnalysisResult re = analyzeActivity(ext.netlist, w, aopts);
        Netlist de = runTailorPipeline(ext.netlist, re.activity.get());
        table.row()
            .add(w.name)
            .add("-")
            .add("-")
            .add(static_cast<long>(de.numCells()))
            .add(savingsPct(
                     static_cast<double>(ext.netlist.numCells()),
                     static_cast<double>(de.numCells())),
                 1);
    }
    io.table("overprovisioning", table,
             "Tailored gate counts on both cores. Unused "
             "peripherals are stripped entirely\n(the bespoke "
             "design is nearly identical on both cores), so the "
             "richer the IP, the\nlarger the relative savings.");
    return io.finish();
}
