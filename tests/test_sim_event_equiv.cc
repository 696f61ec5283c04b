/**
 * @file
 * Event-driven vs. full-eval simulator equivalence.
 *
 * GateSim keeps two evaluation strategies (see gate_sim.hh); these
 * tests pin down that they are bit-identical observably:
 *
 *  - randomized netlist fuzz: random DAGs (with flop feedback bound
 *    through placeholder BUFs) driven by random 0/1/X inputs, with
 *    force()/clearForces() interleavings, mid-run resets and
 *    sequential-state snapshot/restore, comparing every net value
 *    after every eval and latch plus per-gate toggle counts taken
 *    through the change log against FullEval's full diff, at every
 *    observe point the API allows;
 *  - the real bsp430 core running workloads in lockstep, values and
 *    per-gate toggle counts;
 *  - the full activity analysis (X-forking exploration) with each
 *    evaluator, comparing the resulting toggle sets and path counts.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "src/analysis/activity_analysis.hh"
#include "src/builder/net_builder.hh"
#include "src/cpu/bsp430.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/soc.hh"
#include "src/timing/sta.hh"
#include "src/util/rng.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

Logic
randomLogic(Rng &rng, int x_chance_pct)
{
    if (static_cast<int>(rng.below(100)) < x_chance_pct)
        return Logic::X;
    return rng.chance(1, 2) ? Logic::One : Logic::Zero;
}

/**
 * Random sequential netlist: input bits, ties, a comb cloud of every
 * cell shape the library offers, and flops whose D inputs are bound
 * AFTER the cloud exists (placeholder-BUF pattern, as bsp430.cc uses)
 * so state feeds back through logic that reads it.
 */
struct RandomDesign
{
    Netlist nl;
    Bus inputs;

    explicit RandomDesign(uint32_t seed)
    {
        Rng rng(seed);
        NetBuilder b(nl);
        inputs = b.inputBus("in", 6);

        std::vector<GateId> pool(inputs);
        pool.push_back(b.tie0());
        pool.push_back(b.tie1());
        auto pick = [&] {
            return pool[rng.below(static_cast<uint32_t>(pool.size()))];
        };

        std::vector<GateId> placeholders;
        size_t gates = 60 + rng.below(80);
        for (size_t g = 0; g < gates; g++) {
            GateId out;
            switch (rng.below(14)) {
            case 0: out = b.inv(pick()); break;
            case 1: out = b.and2(pick(), pick()); break;
            case 2: out = b.or2(pick(), pick()); break;
            case 3: out = b.xor2(pick(), pick()); break;
            case 4: out = b.nand2(pick(), pick()); break;
            case 5: out = b.nor2(pick(), pick()); break;
            case 6: out = b.xnor2(pick(), pick()); break;
            case 7: out = b.mux2(pick(), pick(), pick()); break;
            case 8: out = b.aoi21(pick(), pick(), pick()); break;
            case 9: out = b.oai21(pick(), pick(), pick()); break;
            case 10: out = b.and3(pick(), pick(), pick()); break;
            case 11: out = b.or3(pick(), pick(), pick()); break;
            case 12: {
                // Flop with feedback: D bound after the cloud exists.
                GateId ph = b.buf(b.tie0());
                placeholders.push_back(ph);
                out = rng.chance(1, 2)
                          ? b.dff(ph, rng.chance(1, 2))
                          : b.dffe(ph, pick(), rng.chance(1, 2));
                break;
            }
            default: out = b.buf(pick()); break;
            }
            pool.push_back(out);
        }
        for (GateId ph : placeholders)
            nl.setFanin(ph, 0, pick());
        for (int i = 0; i < 4; i++)
            nl.addOutput("o" + std::to_string(i), pick());
        nl.validate();
    }
};

/** Compare every net of both sims; stop the test early on divergence. */
void
expectSameValues(const GateSim &ev, const GateSim &full,
                 const char *when, uint64_t cycle)
{
    ASSERT_EQ(ev.values(), full.values())
        << "evaluators diverged " << when << " at cycle " << cycle;
}

class EventEquivFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(EventEquivFuzz, RandomNetlistLockstep)
{
    RandomDesign d(GetParam());
    // Optional so the run can continue on a fresh simulator pair built
    // in the same storage, the way runScenariosScalar feeds one shared
    // counter from back-to-back runs.
    std::optional<GateSim> ev, full;
    auto fresh = [&] {
        ev.emplace(d.nl, GateSim::EvalMode::EventDriven);
        full.emplace(d.nl, GateSim::EvalMode::FullEval);
        ev->reset();
        full->reset();
    };
    fresh();
    ASSERT_EQ(ev->mode(), GateSim::EvalMode::EventDriven);
    ASSERT_EQ(full->mode(), GateSim::EvalMode::FullEval);
    // Each *_ev counter diffs through the event-driven change log, its
    // *_full twin through FullEval's full diff. tc observes once per
    // cycle after eval; tc2 is a second counter on the same simulators
    // observing at other points of the cycle.
    ToggleCounter tc_ev(d.nl), tc_full(d.nl);
    ToggleCounter tc2_ev(d.nl), tc2_full(d.nl);
    auto observe = [&](ToggleCounter &on_ev, ToggleCounter &on_full) {
        on_ev.observe(*ev);
        on_full.observe(*full);
    };

    Rng rng(GetParam() * 7919 + 1);
    // Re-drive a random subset of the inputs (unchanged values must
    // not wake anything; the dirty set stays minimal).
    auto drive = [&] {
        for (GateId in : d.inputs) {
            if (rng.chance(2, 3))
                continue;
            Logic v = randomLogic(rng, 25);
            ev->setInput(in, v);
            full->setInput(in, v);
        }
    };
    SeqState snap_ev, snap_full;
    bool have_snap = false;

    for (uint64_t cycle = 0; cycle < 400; cycle++) {
        if (cycle == 200)
            fresh();
        drive();
        // Interleave forces on arbitrary nets (the analysis forces
        // decision nets mid-cloud, so any net is fair game).
        if (rng.chance(1, 4)) {
            GateId t = rng.below(static_cast<uint32_t>(d.nl.size()));
            Logic v = rng.chance(1, 2) ? Logic::One : Logic::Zero;
            ev->force(t, v);
            full->force(t, v);
        }
        if (rng.chance(1, 8)) {
            ev->clearForces();
            full->clearForces();
        }

        ev->evalComb();
        full->evalComb();
        expectSameValues(*ev, *full, "after evalComb", cycle);
        ASSERT_EQ(ev->seqState(), full->seqState());

        observe(tc_ev, tc_full);
        if (rng.chance(1, 4))
            observe(tc_ev, tc_full);  // twice without a latch
        if (rng.chance(1, 3))
            observe(tc2_ev, tc2_full);
        if (rng.chance(1, 4))
            drive();  // setInput between observe and latch

        ev->latchSequential();
        full->latchSequential();
        expectSameValues(*ev, *full, "after latch", cycle);
        if (rng.chance(1, 3))
            observe(tc2_ev, tc2_full);

        // Snapshot / restore (the analysis forks this way constantly).
        if (rng.chance(1, 16)) {
            snap_ev = ev->seqState();
            snap_full = full->seqState();
            ASSERT_EQ(snap_ev, snap_full);
            have_snap = true;
        }
        if (have_snap && rng.chance(1, 16)) {
            ev->restoreSeqState(snap_ev);
            full->restoreSeqState(snap_full);
            if (rng.chance(1, 2))
                observe(tc2_ev, tc2_full);
            ev->evalComb();
            full->evalComb();
            expectSameValues(*ev, *full, "after restore", cycle);
            observe(tc_ev, tc_full);
        }
        if (rng.chance(1, 64)) {
            ev->reset();
            full->reset();
            if (rng.chance(1, 2))
                observe(tc2_ev, tc2_full);
            ev->evalComb();
            full->evalComb();
            expectSameValues(*ev, *full, "after reset", cycle);
            observe(tc_ev, tc_full);
        }
    }

    for (auto [a, b] : {std::pair{&tc_ev, &tc_full}, {&tc2_ev, &tc2_full}}) {
        ASSERT_EQ(a->cycles(), b->cycles());
        for (GateId i = 0; i < d.nl.size(); i++) {
            ASSERT_EQ(a->count(i), b->count(i))
                << "toggle count differs on gate " << i;
            ASSERT_EQ(a->lastValue(i), b->lastValue(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventEquivFuzz,
                         ::testing::Range(0u, 12u));

TEST(EventEquiv, Bsp430WorkloadLockstep)
{
    Netlist nl = buildBsp430();
    sizeForLoads(nl);

    for (const char *name : {"binSearch", "rle"}) {
        const Workload &w = workloadByName(name);
        AsmProgram prog = w.assembleProgram();
        Soc ev(nl, prog, /*ram_unknown=*/false,
               GateSim::EvalMode::EventDriven);
        Soc full(nl, prog, /*ram_unknown=*/false,
                 GateSim::EvalMode::FullEval);

        Rng in_rng(1234);
        WorkloadInput input = w.genInput(in_rng);
        for (Soc *soc : {&ev, &full}) {
            soc->setGpioIn(SWord::of(input.gpioIn));
            soc->setIrqExt(Logic::Zero);
            for (size_t i = 0; i < input.ramWords.size(); i++) {
                soc->pokeRamWord(
                    static_cast<uint16_t>(kInputBase + 2 * i),
                    SWord::of(input.ramWords[i]));
            }
            for (auto [addr, value] : input.extraRam)
                soc->pokeRamWord(addr, SWord::of(value));
        }

        // Per-gate toggle counts: the change-log diff on the
        // event-driven core against the full diff on the reference.
        ToggleCounter tc_ev(nl), tc_full(nl);
        uint64_t cycles = std::min<uint64_t>(w.maxCycles, 4000);
        for (uint64_t c = 0; c < cycles; c++) {
            ev.evalOnly();
            full.evalOnly();
            ASSERT_EQ(ev.sim().values(), full.sim().values())
                << w.name << " diverged at cycle " << c;
            tc_ev.observe(ev.sim());
            tc_full.observe(full.sim());
            ev.finishCycle();
            full.finishCycle();
        }
        ASSERT_EQ(ev.envState(), full.envState()) << w.name;
        for (GateId i = 0; i < nl.size(); i++) {
            ASSERT_EQ(tc_ev.count(i), tc_full.count(i))
                << w.name << " toggle count differs on gate " << i;
        }
    }
}

TEST(EventEquiv, ActivityAnalysisAgrees)
{
    Netlist nl = buildBsp430();
    sizeForLoads(nl);
    const Workload &w = workloadByName("binSearch");

    // The oracle: the reference lane evaluator with every Soc on full
    // evaluation, against the default bit-plane evaluator whose scalar
    // hand-offs run event-driven.
    AnalysisOptions ev_opts;
    ev_opts.simMode = GateSim::EvalMode::EventDriven;
    AnalysisOptions full_opts = ev_opts;
    full_opts.simMode = GateSim::EvalMode::FullEval;
    full_opts.laneWidth = 1;

    AnalysisResult a = analyzeActivity(nl, w, ev_opts);
    AnalysisResult b = analyzeActivity(nl, w, full_opts);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.pathsExplored, b.pathsExplored);
    EXPECT_EQ(a.cyclesSimulated, b.cyclesSimulated);
    EXPECT_EQ(a.forks, b.forks);
    for (GateId i = 0; i < nl.size(); i++) {
        ASSERT_EQ(a.activity->toggled(i), b.activity->toggled(i))
            << "toggle set differs on gate " << i;
        if (!a.activity->toggled(i)) {
            ASSERT_EQ(a.activity->initialValue(i),
                      b.activity->initialValue(i));
        }
    }
}

} // namespace
} // namespace bespoke
