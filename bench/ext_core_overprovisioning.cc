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
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"

using namespace bespoke;

int
main(int argc, char **argv)
{
    setVerbose(false);
    BenchIO io(argc, argv, "ext_core_overprovisioning");
    bool quick = io.quick();

    banner("Bespoke savings grow with IP over-provisioning",
           "extension of Sec. 2's argument");

    BespokeFlow base(FlowOptions{}, buildBsp430(nullptr, CpuConfig{}));
    BespokeFlow ext(FlowOptions{},
                    buildBsp430(nullptr, CpuConfig::extended()));
    const double base_cells =
        static_cast<double>(base.baseline().numCells());
    const double ext_cells = static_cast<double>(ext.baseline().numCells());
    std::printf("default core: %zu cells; extended core (+timer, "
                "+uart): %zu cells\n\n",
                base.baseline().numCells(), ext.baseline().numCells());
    io.metric("default_core_cells", base_cells);
    io.metric("extended_core_cells", ext_cells);

    Table table({"benchmark", "bespoke cells (default core)",
                 "savings %", "bespoke cells (extended core)",
                 "savings %"});

    std::vector<std::string> names = {"binSearch", "div", "intFilt",
                                      "tea8", "convEn", "dbg"};
    if (quick)
        names.resize(2);
    for (const std::string &name : names) {
        const Workload &w = workloadByName(name);
        size_t db = base.tailor(w).metrics.gates;
        size_t de = ext.tailor(w).metrics.gates;
        table.row()
            .add(w.name)
            .add(static_cast<long>(db))
            .add(savingsPct(base_cells, static_cast<double>(db)), 1)
            .add(static_cast<long>(de))
            .add(savingsPct(ext_cells, static_cast<double>(de)), 1);
    }

    // The peripheral-using apps, for contrast.
    for (const char *name : {"uartTx", "timerTick"}) {
        const Workload &w = workloadByName(name);
        size_t de = ext.tailor(w).metrics.gates;
        table.row()
            .add(w.name)
            .add("-")
            .add("-")
            .add(static_cast<long>(de))
            .add(savingsPct(ext_cells, static_cast<double>(de)), 1);
    }
    io.table("overprovisioning", table,
             "Tailored gate counts on both cores. Unused "
             "peripherals are stripped entirely\n(the bespoke "
             "design is nearly identical on both cores), so the "
             "richer the IP, the\nlarger the relative savings.");
    return io.finish();
}
