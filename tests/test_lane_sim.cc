/**
 * @file
 * LaneSim vs. scalar GateSim lockstep equivalence.
 *
 * LaneSim packs 64 independent scenarios into two uint64_t bit planes
 * per net (lane_sim.hh); these tests pin down that every lane is
 * bit-identical to a scalar GateSim run of the same scenario:
 *
 *  - randomized netlist fuzz: random DAGs with flop feedback, all 64
 *    lanes driven with *distinct* random 0/1/X input sequences, with
 *    mid-run resets and per-lane sequential snapshot/restore,
 *    comparing every net of every lane (as raw planes, which also
 *    pins the canonical val-masked-by-known form) plus the accumulated
 *    activity-tracker toggle sets after every eval and latch;
 *  - the real bsp430 core in a LaneSoc, 64 lanes loaded with different
 *    workload inputs, locked against 64 scalar Socs including the
 *    behavioral memory environment (symbolic X RAM included).
 */

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/cpu/bsp430.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/lane_sim.hh"
#include "src/sim/soc.hh"
#include "src/timing/sta.hh"
#include "src/util/rng.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

constexpr int kLanes = LaneSim::kLanes;

Logic
randomLogic(Rng &rng, int x_chance_pct)
{
    if (static_cast<int>(rng.below(100)) < x_chance_pct)
        return Logic::X;
    return rng.chance(1, 2) ? Logic::One : Logic::Zero;
}

uint64_t
randomMask(Rng &rng)
{
    return (static_cast<uint64_t>(rng.next()) << 32) | rng.next();
}

/**
 * Random sequential netlist with every cell shape the library offers
 * and flop feedback bound through placeholder BUFs (the same recipe as
 * tests/test_sim_event_equiv.cc so both oracles chew on like designs).
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
            nl.addOutput(std::string("o").append(std::to_string(i)), pick());
        nl.validate();
    }
};

/**
 * Compare every net of every lane against the matching scalar sim, as
 * raw planes: this both checks the decoded Logic values and pins the
 * canonical-form invariant (an X lane must have val bit 0).
 */
void
expectLanesMatch(const LaneSim &ls, const std::vector<GateSim> &ref,
                 const char *when, uint64_t cycle)
{
    for (GateId id = 0; id < ls.netlist().size(); id++) {
        uint64_t v = 0, k = 0;
        for (int lane = 0; lane < kLanes; lane++) {
            Logic e = ref[lane].value(id);
            if (e == Logic::X)
                continue;
            k |= 1ull << lane;
            if (e == Logic::One)
                v |= 1ull << lane;
        }
        ASSERT_EQ(ls.valPlane(id), v)
            << "val plane diverged on gate " << id << " " << when
            << " at cycle " << cycle;
        ASSERT_EQ(ls.knownPlane(id), k)
            << "known plane diverged on gate " << id << " " << when
            << " at cycle " << cycle;
    }
}

class LaneSimFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(LaneSimFuzz, RandomNetlistLockstep)
{
    RandomDesign d(GetParam());
    LaneSim ls(d.nl);
    std::vector<GateSim> ref;
    ref.reserve(kLanes);
    for (int lane = 0; lane < kLanes; lane++)
        ref.emplace_back(d.nl, GateSim::EvalMode::EventDriven, ls.prep());

    Rng rng(GetParam() * 6151 + 3);
    ls.reset();
    for (GateSim &r : ref)
        r.reset();
    expectLanesMatch(ls, ref, "after reset", 0);

    // Activity trackers ride along: one fed by the 64-lane observe,
    // one fed by all 64 scalar sims; the toggle sets must agree.
    ls.evalComb();
    for (GateSim &r : ref)
        r.evalComb();
    ActivityTracker at_lane(d.nl), at_ref(d.nl);
    at_lane.captureInitial(ref[0]);
    at_ref.captureInitial(ref[0]);

    std::vector<SeqState> snap(kLanes);
    bool have_snap = false;

    for (uint64_t cycle = 0; cycle < 200; cycle++) {
        // Distinct input sequences per lane, driving only a random
        // subset each cycle (unchanged nets must not disturb the
        // event-driven oracles' dirty sets).
        for (GateId in : d.inputs) {
            for (int lane = 0; lane < kLanes; lane++) {
                if (rng.chance(2, 3))
                    continue;
                Logic v = randomLogic(rng, 25);
                ls.setInput(in, lane, v);
                ref[lane].setInput(in, v);
            }
        }
        ls.evalComb();
        for (GateSim &r : ref)
            r.evalComb();
        expectLanesMatch(ls, ref, "after evalComb", cycle);

        at_lane.observe(ls, ~0ull);
        for (const GateSim &r : ref)
            at_ref.observe(r);

        ls.latchSequential();
        for (GateSim &r : ref)
            r.latchSequential();
        expectLanesMatch(ls, ref, "after latch", cycle);

        // Per-lane sequential snapshot / restore (the frontier refills
        // retired lanes this way).
        if (rng.chance(1, 12)) {
            for (int lane = 0; lane < kLanes; lane++)
                snap[lane] = ref[lane].seqState();
            have_snap = true;
        }
        if (have_snap && rng.chance(1, 12)) {
            uint64_t lanes = randomMask(rng);
            for (int lane = 0; lane < kLanes; lane++) {
                if (!(lanes & (1ull << lane)))
                    continue;
                ls.restoreSeqLane(lane, snap[lane]);
                ref[lane].restoreSeqState(snap[lane]);
            }
            ls.evalComb();
            for (GateSim &r : ref)
                r.evalComb();
            expectLanesMatch(ls, ref, "after restore", cycle);
        }
        if (rng.chance(1, 48)) {
            ls.reset();
            for (GateSim &r : ref)
                r.reset();
            expectLanesMatch(ls, ref, "after reset", cycle);
            ls.evalComb();
            for (GateSim &r : ref)
                r.evalComb();
            expectLanesMatch(ls, ref, "after reset eval", cycle);
        }
    }

    for (GateId i = 0; i < d.nl.size(); i++) {
        ASSERT_EQ(at_lane.toggled(i), at_ref.toggled(i))
            << "toggle set differs on gate " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneSimFuzz, ::testing::Range(0u, 8u));

TEST(LaneSim, Bsp430WorkloadLockstep)
{
    Netlist nl = buildBsp430();
    sizeForLoads(nl);
    std::shared_ptr<const SocContext> ctx = SocContext::make(nl);

    const Workload &w = workloadByName("binSearch");
    AsmProgram prog = w.assembleProgram();

    // 64 scalar Socs, each with its own workload input; RAM starts
    // symbolic (all X) so lanes exercise X propagation differently.
    std::vector<Soc> ref;
    ref.reserve(kLanes);
    LaneSoc lane(ctx, prog);

    Rng in_rng(99);
    SWord gpio;  // uniform across lanes, like the analysis drives it
    for (int i = 0; i < kLanes; i++) {
        ref.emplace_back(ctx, prog, /*ram_unknown=*/true);
        Soc &soc = ref.back();
        WorkloadInput input = w.genInput(in_rng);
        if (i == 0)
            gpio = SWord::of(input.gpioIn);
        soc.setGpioIn(gpio);
        soc.setIrqExt(Logic::Zero);
        for (size_t j = 0; j < input.ramWords.size(); j++) {
            soc.pokeRamWord(static_cast<uint16_t>(kInputBase + 2 * j),
                            SWord::of(input.ramWords[j]));
        }
        for (auto [addr, value] : input.extraRam)
            soc.pokeRamWord(addr, SWord::of(value));
        lane.loadLane(i, soc.sim().seqState(), soc.envState(), 0);
    }
    lane.setGpioIn(gpio);
    lane.setIrqExt(Logic::Zero);

    uint64_t cycles = std::min<uint64_t>(w.maxCycles, 1200);
    for (uint64_t c = 0; c < cycles; c++) {
        lane.evalOnly();
        for (Soc &soc : ref)
            soc.evalOnly();

        for (int i = 0; i < kLanes; i++) {
            ASSERT_EQ(lane.pc(i), ref[i].pc())
                << "pc diverged on lane " << i << " at cycle " << c;
        }
        if (c % 32 == 0) {
            for (GateId id = 0; id < nl.size(); id++) {
                for (int i = 0; i < kLanes; i++) {
                    ASSERT_EQ(lane.sim().value(id, i),
                              ref[i].sim().value(id))
                        << "gate " << id << " diverged on lane " << i
                        << " at cycle " << c;
                }
            }
        }

        lane.finishCycle(~0ull);
        for (Soc &soc : ref)
            soc.finishCycle();
    }
    for (int i = 0; i < kLanes; i++) {
        ASSERT_EQ(lane.seqLane(i), ref[i].sim().seqState())
            << "seq state diverged on lane " << i;
        ASSERT_EQ(lane.envLane(i), ref[i].envState())
            << "environment diverged on lane " << i;
    }
}

} // namespace
} // namespace bespoke
