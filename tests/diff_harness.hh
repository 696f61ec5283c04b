/**
 * @file
 * Differential-testing harness: scalar-vs-lane lockstep.
 *
 * Every lane-parallel execution path in the repo (verification batch
 * runner, activity-analysis lane workers, mutant sweeps, power replay)
 * rests on one claim: lane i of a LaneSim is bit-identical to a
 * scalar GateSim run of the same scenario, under every interleaving of
 * input updates, sequential restores and resets. This
 * header packages that claim as a reusable fixture:
 *
 *  - randomNetlist(seed): a random sequential DAG covering every cell
 *    shape the library offers, with flop feedback;
 *  - runLockstepCase(seed, cycles): drives a LaneSim and 64 scalar
 *    GateSims through `cycles` of randomized stimulus and compares
 *    the FULL machine state — every net of every lane, as raw
 *    planes (which also pins the canonical val-subset-of-known form) —
 *    after every eval, latch, restore and reset, plus the accumulated
 *    activity-tracker toggle sets at the end.
 *
 * Use ASSERT_NO_FATAL_FAILURE around the case runners: they abort the
 * case on the first diverging net.
 */

#ifndef BESPOKE_TESTS_DIFF_HARNESS_HH
#define BESPOKE_TESTS_DIFF_HARNESS_HH

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/builder/net_builder.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/lane_sim.hh"
#include "src/util/rng.hh"

namespace bespoke
{
namespace difftest
{

inline Logic
randomLogic(Rng &rng, int x_chance_pct)
{
    if (static_cast<int>(rng.below(100)) < x_chance_pct)
        return Logic::X;
    return rng.chance(1, 2) ? Logic::One : Logic::Zero;
}

/** Uniformly random lane mask. */
inline uint64_t
randomMask(Rng &rng)
{
    return (static_cast<uint64_t>(rng.next()) << 32) | rng.next();
}

inline std::string
maskToHex(uint64_t m)
{
    char buf[19];
    snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(m));
    return std::string(buf);
}

/**
 * Random sequential netlist covering every cell shape, with flop
 * feedback bound through placeholder BUFs (the recipe shared with
 * tests/test_sim_event_equiv.cc / test_lane_sim.cc, sized down so a
 * few hundred cases stay cheap).
 */
struct RandomDesign
{
    Netlist nl;
    Bus inputs;

    explicit RandomDesign(uint32_t seed, uint32_t min_gates = 30,
                          uint32_t gate_spread = 50)
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
        size_t gates = min_gates + rng.below(gate_spread);
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
 * Compare every net of every lane against the matching scalar sims, as
 * raw planes (also pinning canonical form: an X lane has val bit 0).
 */
inline void
expectLanesMatch(const LaneSim &ls, const std::vector<GateSim> &ref,
                 const char *when, uint64_t cycle)
{
    for (GateId id = 0; id < ls.netlist().size(); id++) {
        uint64_t v = 0, k = 0;
        for (int lane = 0; lane < LaneSim::kLanes; lane++) {
            Logic e = ref[lane].value(id);
            if (e == Logic::X)
                continue;
            laneSet(k, lane);
            if (e == Logic::One)
                laneSet(v, lane);
        }
        ASSERT_EQ(ls.valPlane(id), v)
            << "val plane diverged on gate " << id << " "
            << when << " at cycle " << cycle << "\n  lane:   "
            << maskToHex(ls.valPlane(id)) << "\n  scalar: "
            << maskToHex(v);
        ASSERT_EQ(ls.knownPlane(id), k)
            << "known plane diverged on gate " << id
            << " " << when << " at cycle " << cycle << "\n  lane:   "
            << maskToHex(ls.knownPlane(id)) << "\n  scalar: "
            << maskToHex(k);
    }
}

/**
 * One randomized lockstep case: 64 distinct scenarios on one random
 * netlist, full-state compared against 64 scalar oracles every step.
 */
inline void
runLockstepCase(uint32_t seed, uint64_t cycles)
{
    constexpr int W = LaneSim::kLanes;

    RandomDesign d(seed);
    LaneSim ls(d.nl);
    std::vector<GateSim> ref;
    ref.reserve(W);
    for (int lane = 0; lane < W; lane++)
        ref.emplace_back(d.nl, GateSim::EvalMode::EventDriven,
                         ls.prep());

    Rng rng(seed * 2654435761u + W);
    ls.reset();
    for (GateSim &r : ref)
        r.reset();
    ASSERT_NO_FATAL_FAILURE(expectLanesMatch(ls, ref, "after reset", 0));

    ls.evalComb();
    for (GateSim &r : ref)
        r.evalComb();
    ActivityTracker at_lane(d.nl), at_ref(d.nl);
    at_lane.captureInitial(ref[0]);
    at_ref.captureInitial(ref[0]);

    std::vector<SeqState> snap(W);
    bool have_snap = false;

    for (uint64_t cycle = 0; cycle < cycles; cycle++) {
        // Distinct per-lane input sequences, driving only a random
        // subset each cycle.
        for (GateId in : d.inputs) {
            for (int lane = 0; lane < W; lane++) {
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
        ASSERT_NO_FATAL_FAILURE(
            expectLanesMatch(ls, ref, "after evalComb", cycle));

        at_lane.observe(ls, kAllLanes);
        for (const GateSim &r : ref)
            at_ref.observe(r);

        ls.latchSequential();
        for (GateSim &r : ref)
            r.latchSequential();
        ASSERT_NO_FATAL_FAILURE(
            expectLanesMatch(ls, ref, "after latch", cycle));

        // Per-lane sequential snapshot / restore (how the batch
        // runners refill retired lanes).
        if (rng.chance(1, 12)) {
            for (int lane = 0; lane < W; lane++)
                snap[lane] = ref[lane].seqState();
            have_snap = true;
        }
        if (have_snap && rng.chance(1, 12)) {
            uint64_t lanes = randomMask(rng);
            forEachLane(lanes, [&](int lane) {
                ls.restoreSeqLane(lane, snap[lane]);
                ref[lane].restoreSeqState(snap[lane]);
            });
            ls.evalComb();
            for (GateSim &r : ref)
                r.evalComb();
            ASSERT_NO_FATAL_FAILURE(
                expectLanesMatch(ls, ref, "after restore", cycle));
        }
        if (rng.chance(1, 48)) {
            ls.reset();
            for (GateSim &r : ref)
                r.reset();
            ls.evalComb();
            for (GateSim &r : ref)
                r.evalComb();
            ASSERT_NO_FATAL_FAILURE(
                expectLanesMatch(ls, ref, "after reset eval", cycle));
        }
    }

    for (GateId i = 0; i < d.nl.size(); i++) {
        ASSERT_EQ(at_lane.toggled(i), at_ref.toggled(i))
            << "toggle set differs on gate " << i;
    }
}

} // namespace difftest
} // namespace bespoke

#endif // BESPOKE_TESTS_DIFF_HARNESS_HH
