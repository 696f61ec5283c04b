/**
 * @file
 * Simulation prep order: Netlist::levelize() and SimPrep's
 * level-grouped evaluation order are built in linear time (CSR fanout
 * arrays, a counting sort on (level, opcode)). Both must equal the
 * straightforward references kept here — Kahn's algorithm over
 * per-gate fanout lists, and a comparison sort by (level, type, id) —
 * on the bsp430 core, the extended core, a tailored design and seeded
 * random netlists, since gate-evaluation order fixes SAT variable
 * numbering and every traced counter downstream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "diff_harness.hh"
#include "src/analysis/activity_analysis.hh"
#include "src/cpu/bsp430.hh"
#include "src/sim/sim_context.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

bool
isSource(const Gate &g)
{
    return g.type == CellType::INPUT || g.type == CellType::TIE0 ||
           g.type == CellType::TIE1 || cellSequential(g.type);
}

/** Kahn's algorithm over per-gate lists of combinational consumers. */
std::vector<GateId>
referenceLevelize(const Netlist &nl)
{
    size_t n = nl.size();
    std::vector<int> pending(n, 0);
    std::vector<std::vector<GateId>> consumers(n);
    std::vector<GateId> ready;
    for (GateId i = 0; i < n; i++) {
        const Gate &g = nl.gate(i);
        if (isSource(g))
            continue;
        for (int p = 0; p < g.numInputs(); p++) {
            if (!isSource(nl.gate(g.in[p]))) {
                pending[i]++;
                consumers[g.in[p]].push_back(i);
            }
        }
        if (pending[i] == 0)
            ready.push_back(i);
    }
    for (size_t head = 0; head < ready.size(); head++) {
        for (GateId out : consumers[ready[head]]) {
            if (--pending[out] == 0)
                ready.push_back(out);
        }
    }
    return ready;
}

/** The Kahn order, stably regrouped by (level, cell type, gate id). */
std::vector<GateId>
referencePrepOrder(const Netlist &nl)
{
    std::vector<GateId> order = referenceLevelize(nl);
    std::vector<uint32_t> level(nl.size(), 0);
    for (GateId id : order) {
        const Gate &g = nl.gate(id);
        uint32_t lvl = 0;
        for (int p = 0; p < g.numInputs(); p++)
            lvl = std::max(lvl, level[g.in[p]]);
        level[id] = lvl + 1;
    }
    std::sort(order.begin(), order.end(), [&](GateId a, GateId b) {
        if (level[a] != level[b])
            return level[a] < level[b];
        if (nl.gate(a).type != nl.gate(b).type)
            return nl.gate(a).type < nl.gate(b).type;
        return a < b;
    });
    return order;
}

void
expectOrdersMatch(const Netlist &nl)
{
    EXPECT_EQ(nl.levelize(), referenceLevelize(nl));
    SimPrep prep(nl);
    EXPECT_EQ(prep.order, referencePrepOrder(nl));
    for (uint32_t pos = 0; pos < prep.order.size(); pos++)
        ASSERT_EQ(prep.posOf[prep.order[pos]], pos);
}

TEST(SimPrepOrder, CoreMatchesReference)
{
    expectOrdersMatch(buildBsp430());
}

TEST(SimPrepOrder, ExtendedCoreMatchesReference)
{
    expectOrdersMatch(buildBsp430(nullptr, CpuConfig::extended()));
}

TEST(SimPrepOrder, TailoredDesignMatchesReference)
{
    Netlist core = buildBsp430();
    const Workload &app = workloadByName("mult");
    AnalysisResult ar = analyzeActivity(core, app.assembleProgram());
    ASSERT_TRUE(ar.completed);
    Netlist tailored = runTailorPipeline(core, ar.activity.get());
    ASSERT_LT(tailored.numCells(), core.numCells());
    expectOrdersMatch(tailored);
}

TEST(SimPrepOrder, RandomNetlistsMatchReference)
{
    for (uint32_t seed = 1; seed <= 40; seed++) {
        SCOPED_TRACE(seed);
        difftest::RandomDesign d(seed, 50, 400);
        expectOrdersMatch(d.nl);
    }
}

} // namespace
} // namespace bespoke
