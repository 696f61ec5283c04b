#include "src/sim/sim_context.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace bespoke
{

SimPrep::SimPrep(const Netlist &netlist)
    : order(netlist.levelize()), seqIds(netlist.sequentialIds())
{
    const std::vector<Gate> &gates = netlist.gates();
    size_t n = netlist.size();

    // Topological levels: sources (INPUT/TIE/DFF/DFFE) are level 0,
    // a combinational gate is one past its deepest combinational fanin.
    std::vector<uint32_t> level(n, 0);
    uint32_t max_level = 0;
    for (GateId id : order) {
        const Gate &g = gates[id];
        uint32_t lvl = 0;
        int ni = g.numInputs();
        for (int p = 0; p < ni; p++)
            lvl = std::max(lvl, level[g.in[p]]);
        level[id] = lvl + 1;
        max_level = std::max(max_level, lvl + 1);
    }

    // Group the order by level. Within a level no gate reads another's
    // output, so the gates of a level can be put in any order without
    // changing an evaluated value; group them by opcode, in ascending
    // gate id within a group: the eval kernels' per-gate dispatch then
    // sees long same-opcode runs instead of a random sequence, which
    // the branch predictor rewards. A counting sort on (level, opcode)
    // that visits ids in ascending order gives exactly the order of a
    // comparison sort by (level, type, id), in linear time.
    auto bucket_of = [&](GateId id) {
        return static_cast<size_t>(level[id] - 1) * kNumCellTypes +
               static_cast<size_t>(gates[id].type);
    };
    std::vector<uint32_t> bucket_start(
        static_cast<size_t>(max_level) * kNumCellTypes + 1, 0);
    for (GateId id : order)
        bucket_start[bucket_of(id) + 1]++;
    for (size_t b = 1; b < bucket_start.size(); b++)
        bucket_start[b] += bucket_start[b - 1];
    for (GateId id = 0; id < n; id++) {
        if (level[id] > 0)  // combinational: in the order
            order[bucket_start[bucket_of(id)]++] = id;
    }
    posOf.assign(n, kNone);
    for (uint32_t pos = 0; pos < order.size(); pos++)
        posOf[order[pos]] = pos;

    // Compiled eval program: opcode byte + padded fanin triple per
    // position. Pins past the cell's fanin count repeat pin 0 (any
    // valid net id works — the truth table is insensitive to them),
    // keeping the evaluation loop free of a per-gate fanin-count
    // branch.
    opcode.resize(order.size());
    fanin.resize(3 * order.size());
    for (uint32_t pos = 0; pos < order.size(); pos++) {
        const Gate &g = gates[order[pos]];
        opcode[pos] = static_cast<uint8_t>(g.type);
        int ni = g.numInputs();
        for (int p = 0; p < 3; p++) {
            fanin[3 * pos + p] =
                p < ni ? g.in[p] : (ni ? g.in[0] : order[pos]);
        }
    }

    // Kleene truth tables, one 27-entry row per cell type (padded to
    // 32 so the row index is a shift). Rows are filled by exhaustive
    // calls to the reference evalCell(), so the table-driven kernel
    // cannot diverge from the switch-based semantics. Sequential and
    // INPUT pseudo-cells never reach the eval loop; their rows are X.
    lut.assign(static_cast<size_t>(kNumCellTypes) << kLutShift,
               static_cast<uint8_t>(Logic::X));
    for (int t = 0; t < kNumCellTypes; t++) {
        CellType type = static_cast<CellType>(t);
        if (type == CellType::INPUT || cellSequential(type))
            continue;
        for (int a = 0; a < 3; a++) {
            for (int b = 0; b < 3; b++) {
                for (int c = 0; c < 3; c++) {
                    Logic in[3] = {static_cast<Logic>(a),
                                   static_cast<Logic>(b),
                                   static_cast<Logic>(c)};
                    lut[(static_cast<size_t>(t) << kLutShift) |
                        static_cast<size_t>(a * 9 + b * 3 + c)] =
                        static_cast<uint8_t>(evalCell(type, in));
                }
            }
        }
    }

    // Segment the program into same-opcode runs (never crossing a
    // level boundary) for the once-per-segment plane dispatch.
    for (uint32_t i = 0; i < order.size();) {
        uint32_t j = i + 1;
        while (j < order.size() && opcode[j] == opcode[i] &&
               level[order[j]] == level[order[i]])
            j++;
        evalRuns.push_back({opcode[i], j - i});
        i = j;
    }

    // CSR fanout lists of consumer positions, ascending per net. A
    // consumer is one level above its deepest fanin, so it always sits
    // at a higher position. foHead[v] first counts v's consumers, then
    // (inclusive prefix sum, filled back to front) becomes the start
    // of v's slice.
    foHead.assign(n + 1, 0);
    for (uint32_t pos = 0; pos < order.size(); pos++) {
        const Gate &g = gates[order[pos]];
        for (int p = 0; p < g.numInputs(); p++)
            foHead[g.in[p]]++;
    }
    for (size_t i = 0; i < n; i++)
        foHead[i + 1] += foHead[i];
    foPos.resize(foHead[n]);
    for (auto pos = static_cast<uint32_t>(order.size()); pos-- > 0;) {
        const Gate &g = gates[order[pos]];
        for (int p = g.numInputs(); p-- > 0;)
            foPos[--foHead[g.in[p]]] = pos;
    }

    seqD.resize(seqIds.size());
    seqEn.resize(seqIds.size());
    for (size_t i = 0; i < seqIds.size(); i++) {
        const Gate &g = gates[seqIds[i]];
        seqD[i] = g.in[0];
        seqEn[i] = g.type == CellType::DFFE ? g.in[1] : kNone;
    }
}

SocPorts::SocPorts(const Netlist &nl)
{
    pMemRdata = nl.bus("mem_rdata", 16);
    pGpioIn = nl.bus("gpio_in", 16);
    pMemAddr = nl.bus("mem_addr", 16);
    pMemWdata = nl.bus("mem_wdata", 16);
    pPcOut = nl.bus("pc_out", 16);
    pGpioOut = nl.bus("gpio_out", 16);
    pIrqExt = nl.port("irq_ext");
    pMemEn = nl.port("mem_en");
    pMemWen0 = nl.port("mem_wen[0]");
    pMemWen1 = nl.port("mem_wen[1]");
    pStFetch = nl.port("st_fetch");
    pCtlXfer = nl.port("ctl_xfer");
    pDecBranch = nl.port("dec_branch");
    pDecIrq0 = nl.port("dec_irq0");
    pDecIrq1 = nl.port("dec_irq1");
    decBranchSrc = nl.gate(pDecBranch).in[0];
    decIrq0Src = nl.gate(pDecIrq0).in[0];
    decIrq1Src = nl.gate(pDecIrq1).in[0];
}

SocContext::SocContext(const Netlist &nl)
    : SocPorts(nl), netlist(nl), prep(std::make_shared<const SimPrep>(nl))
{
    // Locate the PC flops through the pc_out port; the activity
    // analysis patches these SeqState slots when it enumerates the
    // concrete candidates of a partially-known fetch PC.
    pcSeqIndex.assign(16, -1);
    for (int b = 0; b < 16; b++) {
        GateId src = nl.gate(pPcOut[b]).in[0];
        for (size_t i = 0; i < prep->seqIds.size(); i++) {
            if (prep->seqIds[i] == src) {
                pcSeqIndex[b] = static_cast<int>(i);
                break;
            }
        }
    }
}

} // namespace bespoke
