/**
 * @file
 * Scenario: hand the bespoke design to a physical-design / simulation
 * flow. Tailors a core to the TEA encryption firmware and writes the
 * result as structural Verilog plus the behavioral cell library, ready
 * for any Verilog simulator or synthesis tool.
 *
 * Produces: bespoke_tea8.v, bespoke_cells.v
 */

#include <cstdio>
#include <fstream>

#include "src/bespoke/flow.hh"
#include "src/netlist/verilog_export.hh"
#include "src/util/logging.hh"

using namespace bespoke;

int
main()
{
    setVerbose(false);
    const Workload &app = workloadByName("tea8");

    BespokeFlow flow;
    BespokeDesign design = flow.tailor(app);
    std::printf("tailored '%s': %zu cells, %.0f um^2\n",
                app.name.c_str(), design.metrics.gates,
                design.metrics.areaUm2);

    // Structural Verilog + cell library.
    {
        std::ofstream v("bespoke_tea8.v");
        exportVerilog(design.netlist, "bespoke_tea8", v);
        std::ofstream lib("bespoke_cells.v");
        writeCellLibrary(lib);
    }
    std::printf("wrote bespoke_tea8.v and bespoke_cells.v\n");
    return 0;
}
