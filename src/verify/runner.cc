#include "src/verify/runner.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "src/sim/lane_sim.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/** Instruction count / cycle at which the single IRQ pulse lands. */
constexpr uint64_t kIrqAtInstruction = 20;
constexpr uint64_t kIrqAtCycle = 200;
constexpr uint64_t kIrqPulseCycles = 4;

} // namespace

std::vector<uint16_t>
haltAddresses(const AsmProgram &prog)
{
    std::vector<uint16_t> addrs;
    const uint16_t halt_word = encodeJump(JumpCond::JMP, -1);
    for (const auto &[addr, line] : prog.addrToLine) {
        if (prog.romWord(addr) == halt_word)
            addrs.push_back(addr);
    }
    return addrs;
}

IssRun
runWorkloadIss(const Workload &w, const WorkloadInput &input,
               uint64_t max_steps)
{
    AsmProgram prog = w.assembleProgram();
    Iss iss(prog);
    iss.setGpioIn(input.gpioIn);
    for (size_t i = 0; i < input.ramWords.size(); i++) {
        iss.pokeWord(static_cast<uint16_t>(kInputBase + 2 * i),
                     input.ramWords[i]);
    }
    for (auto [addr, value] : input.extraRam)
        iss.pokeWord(addr, value);

    IssRun r;
    for (uint64_t n = 0; n < max_steps; n++) {
        if (w.usesIrq && n == kIrqAtInstruction)
            iss.raiseExternalIrq();
        r.result = iss.step();
        if (r.result != StepResult::Ok)
            break;
    }
    r.instructions = iss.instructionsRetired();
    for (int i = 0; i < w.outputWords; i++) {
        r.out.push_back(iss.readWord(
            static_cast<uint16_t>(kOutputBase + 2 * i)));
    }
    r.gpioOut = iss.gpioOut();
    r.executedPCs = iss.executedPCs();
    r.branchDirs = iss.branchDirections();
    r.ram.assign(iss.ram().begin(), iss.ram().end());
    return r;
}

GateRun
runWorkloadGate(const Netlist &netlist, const Workload &w,
                const AsmProgram &prog, const WorkloadInput &input,
                ToggleCounter *toggles, ActivityTracker *activity,
                const std::function<void(const GateSim &)> &per_cycle,
                std::shared_ptr<const SocContext> ctx)
{
    if (!ctx)
        ctx = SocContext::make(netlist);
    Soc soc(std::move(ctx), prog, /*ram_unknown=*/false);
    soc.setGpioIn(SWord::of(input.gpioIn));
    soc.setIrqExt(Logic::Zero);
    for (size_t i = 0; i < input.ramWords.size(); i++) {
        soc.pokeRamWord(static_cast<uint16_t>(kInputBase + 2 * i),
                        SWord::of(input.ramWords[i]));
    }
    for (auto [addr, value] : input.extraRam)
        soc.pokeRamWord(addr, SWord::of(value));

    std::vector<uint16_t> halts = haltAddresses(prog);
    std::sort(halts.begin(), halts.end());
    auto is_halt_pc = [&](SWord pc) {
        return pc.fullyKnown() &&
               std::binary_search(halts.begin(), halts.end(), pc.val);
    };

    GateRun r;
    if (activity && !activity->initialCaptured())
        activity->captureInitial(soc.sim());

    for (uint64_t c = 0; c < w.maxCycles; c++) {
        if (w.usesIrq) {
            bool pulse = c >= kIrqAtCycle &&
                         c < kIrqAtCycle + kIrqPulseCycles;
            soc.setIrqExt(pulse ? Logic::One : Logic::Zero);
        }
        soc.evalOnly();
        if (soc.stFetch() == Logic::One && is_halt_pc(soc.pc())) {
            r.halted = true;
            break;
        }
        if (toggles)
            toggles->observe(soc.sim());
        if (activity)
            activity->observe(soc.sim());
        if (per_cycle)
            per_cycle(soc.sim());
        soc.finishCycle();
        r.cycles = c + 1;
    }

    for (int i = 0; i < w.outputWords; i++) {
        r.out.push_back(soc.ramWord(
            static_cast<uint16_t>(kOutputBase + 2 * i)));
    }
    r.gpioOut = soc.gpioOut();
    r.ram = soc.ram();
    return r;
}

int
resolvePlaneBits(int plane_bits)
{
    return validPlaneBits(plane_bits) ? plane_bits : 64;
}

namespace
{

/** Mirror of Soc::pokeRamWord against a bare environment. */
void
pokeEnvWord(EnvState &env, uint16_t byte_addr, SWord w)
{
    bespoke_assert(isRamAddr(byte_addr));
    env.ram[(byte_addr - kRamBase) >> 1] = w;
}

SWord
envWord(const EnvState &env, uint16_t byte_addr)
{
    bespoke_assert(isRamAddr(byte_addr));
    return env.ram[(byte_addr - kRamBase) >> 1];
}

/**
 * Scalar fallback: the scenarios one by one through runWorkloadGate,
 * per-scenario counters and module-idle tracking fed through the
 * per-cycle hook. This path defines the semantics the lane path must
 * reproduce bit for bit.
 */
std::vector<GateRun>
runScenariosScalar(const Netlist &nl, const Workload &w,
                   const std::vector<GateScenario> &scenarios,
                   const GateBatchObservers &obs,
                   std::shared_ptr<const SocContext> ctx)
{
    std::vector<GateRun> out;
    out.reserve(scenarios.size());
    std::vector<uint8_t> last;
    for (const GateScenario &s : scenarios) {
        bool first = true;
        std::function<void(const GateSim &)> per_cycle;
        if (s.toggles || obs.moduleIdle) {
            per_cycle = [&](const GateSim &sim) {
                if (s.toggles)
                    s.toggles->observe(sim);
                if (!obs.moduleIdle)
                    return;
                const std::vector<uint8_t> &v = sim.values();
                if (first) {
                    last = v;
                    first = false;
                    return;
                }
                bool active[kNumModules] = {};
                for (GateId i = 0; i < nl.size(); i++) {
                    if (v[i] != last[i])
                        active[static_cast<int>(nl.gate(i).module)] =
                            true;
                    last[i] = v[i];
                }
                for (int m = 0; m < kNumModules; m++) {
                    if (!active[m])
                        obs.moduleIdle->idle[m]++;
                }
                obs.moduleIdle->totalCycles++;
            };
        }
        out.push_back(runWorkloadGate(nl, w, *s.prog, *s.input,
                                      obs.toggles, obs.activity,
                                      per_cycle, ctx));
    }
    return out;
}

/** Decode one lane of (val, known) planes into byte-coded Logic. */
template <class Mask>
void
extractLane(const std::vector<Mask> &val, const std::vector<Mask> &known,
            int lane, std::vector<uint8_t> &out)
{
    size_t n = val.size();
    out.resize(n);
    for (size_t i = 0; i < n; i++) {
        if (!laneTest(known[i], lane))
            out[i] = static_cast<uint8_t>(Logic::X);
        else
            out[i] = static_cast<uint8_t>(laneTest(val[i], lane)
                                              ? Logic::One
                                              : Logic::Zero);
    }
}

/** IRQ pulse schedule shared with the scalar path. */
constexpr uint64_t kBatchIrqAtCycle = 200;
constexpr uint64_t kBatchIrqPulseCycles = 4;

/**
 * Straggler handoff threshold: once this few lanes remain active, the
 * full plane sweep (every gate, every word, every cycle) costs more
 * than continuing each survivor on the event-driven scalar simulator,
 * which only revisits gates whose fanins changed — for a mutant
 * spinning in a tight loop until the cycle cap, that is a handful of
 * gates per cycle instead of the whole netlist. The threshold depends
 * on whether observers are attached: toggle/idle observation costs a
 * full n-gate byte diff per scalar cycle, which the plane path
 * amortizes across every lane per word — so with observers a handoff
 * only pays once fewer lanes remain than half the plane's word count
 * (never, at one word). Observer-free runs keep the fixed threshold.
 */
constexpr size_t kScalarHandoffLanes = 8;

size_t
scalarHandoffLimit(bool observing, size_t plane_words)
{
    return observing ? plane_words / 2 : kScalarHandoffLanes;
}

template <int W>
std::vector<GateRun>
runScenariosLanes(const Netlist &nl, const Workload &w,
                  const std::vector<GateScenario> &scenarios,
                  const GateBatchObservers &obs,
                  std::shared_ptr<const SocContext> ctx)
{
    using Mask = LaneMask<W>;
    const size_t n = nl.size();
    const size_t total = scenarios.size();

    // Fresh-Soc seed state (program-independent: the reset eval never
    // touches the ROM) shared by every lane; also the initial-value
    // capture point, identical to the scalar path's.
    Soc seed(ctx, *scenarios[0].prog, /*ram_unknown=*/false);
    const SeqState seed_seq = seed.sim().seqState();
    const EnvState seed_env = seed.envState();
    if (obs.activity && !obs.activity->initialCaptured())
        obs.activity->captureInitial(seed.sim());

    // Halt addresses per distinct program image.
    std::map<const AsmProgram *, std::vector<uint16_t>> halts_by_prog;
    for (const GateScenario &s : scenarios) {
        auto [it, fresh] = halts_by_prog.try_emplace(s.prog);
        if (fresh) {
            it->second = haltAddresses(*s.prog);
            std::sort(it->second.begin(), it->second.end());
        }
    }

    const bool count_toggles =
        obs.toggles ||
        std::any_of(scenarios.begin(), scenarios.end(),
                    [](const GateScenario &s) { return s.toggles; });
    const bool observing =
        count_toggles || obs.activity || obs.moduleIdle;

    std::vector<GateRun> out(total);
    std::vector<uint64_t> shared_counts;
    if (obs.toggles)
        shared_counts.assign(n, 0);

    for (size_t base = 0; base < total; base += W) {
        const size_t lanes_used = std::min<size_t>(W, total - base);
        LaneSocT<W> soc(ctx, *scenarios[base].prog);
        soc.setIrqExt(Logic::Zero);

        Mask active{};
        std::vector<const std::vector<uint16_t> *> halts(lanes_used);
        std::vector<uint64_t> completed(lanes_used, 0);
        std::vector<ToggleCounter::RunTrace> trace(lanes_used);
        // Per-scenario within-run counts, gate-major [gate * S + lane].
        std::vector<uint64_t> lane_counts;
        Mask lane_tog_mask{};
        for (size_t l = 0; l < lanes_used; l++) {
            const GateScenario &s = scenarios[base + l];
            const WorkloadInput &in = *s.input;
            EnvState env = seed_env;
            for (size_t i = 0; i < in.ramWords.size(); i++) {
                pokeEnvWord(env,
                            static_cast<uint16_t>(kInputBase + 2 * i),
                            SWord::of(in.ramWords[i]));
            }
            for (auto [addr, value] : in.extraRam)
                pokeEnvWord(env, addr, SWord::of(value));
            soc.loadLane(static_cast<int>(l), seed_seq, env, 0);
            soc.setGpioInLane(static_cast<int>(l),
                              SWord::of(in.gpioIn));
            soc.setProgLane(static_cast<int>(l), s.prog);
            halts[l] = &halts_by_prog[s.prog];
            laneSet(active, static_cast<int>(l));
            if (s.toggles)
                laneSet(lane_tog_mask, static_cast<int>(l));
        }
        if (laneAny(lane_tog_mask))
            lane_counts.assign(n * lanes_used, 0);

        // Last-observed planes + first-observe tracking for the
        // boundary-exact toggle accounting.
        std::vector<Mask> last_v, last_k;
        Mask seen{};
        if (count_toggles || obs.moduleIdle) {
            last_v.assign(n, Mask{});
            last_k.assign(n, Mask{});
        }

        auto retire = [&](int lane, bool halted, uint64_t cycles) {
            const GateScenario &s = scenarios[base + lane];
            GateRun &r = out[base + lane];
            r.halted = halted;
            r.cycles = cycles;
            for (int i = 0; i < w.outputWords; i++) {
                r.out.push_back(envWord(
                    soc.envLane(lane),
                    static_cast<uint16_t>(kOutputBase + 2 * i)));
            }
            r.gpioOut = soc.gpioOut(lane);
            r.ram = soc.envLane(lane).ram;
            if ((obs.toggles || s.toggles) && laneTest(seen, lane)) {
                extractLane(last_v, last_k, lane,
                            trace[lane].last);
            }
            laneClear(active, lane);
        };

        // Continue one straggler lane to completion on the scalar
        // event-driven simulator, reproducing every observer update
        // the lane path would have made. The lane's machine state
        // (flops + environment) transfers exactly; combinational
        // values are recomputed by the next eval, so the scalar run
        // is bit-identical from cycle c0 on.
        auto scalar_continue = [&](int lane, uint64_t c0) {
            const GateScenario &s = scenarios[base + lane];
            Soc ssoc(ctx, soc.progForLane(lane), /*ram_unknown=*/false);
            ssoc.sim().restoreSeqState(soc.seqLane(lane));
            ssoc.restoreEnvState(soc.envLane(lane));
            ssoc.setGpioIn(SWord::of(s.input->gpioIn));
            ssoc.setIrqExt(Logic::Zero);
            const std::vector<uint16_t> &h = *halts[lane];
            const bool track = obs.toggles || s.toggles;
            bool lane_seen = laneTest(seen, lane);
            std::vector<uint8_t> last;
            if ((count_toggles || obs.moduleIdle) && lane_seen)
                extractLane(last_v, last_k, lane, last);

            bool halted = false;
            uint64_t cycles = completed[lane];
            for (uint64_t c = c0; c < w.maxCycles; c++) {
                if (w.usesIrq) {
                    bool pulse =
                        c >= kBatchIrqAtCycle &&
                        c < kBatchIrqAtCycle + kBatchIrqPulseCycles;
                    ssoc.setIrqExt(pulse ? Logic::One : Logic::Zero);
                }
                ssoc.evalOnly();
                if (ssoc.stFetch() == Logic::One) {
                    SWord pc = ssoc.pc();
                    if (pc.fullyKnown() &&
                        std::binary_search(h.begin(), h.end(),
                                           pc.val)) {
                        halted = true;
                        break;
                    }
                }
                if (observing) {
                    if (count_toggles || obs.moduleIdle) {
                        const std::vector<uint8_t> &v =
                            ssoc.sim().values();
                        if (!lane_seen) {
                            if (track)
                                trace[lane].first = v;
                            last = v;
                            lane_seen = true;
                        } else {
                            bool mod_act[kNumModules] = {};
                            // Eight-gate block skip: an event-driven
                            // cycle changes few gates, so most blocks
                            // compare equal in one 64-bit op.
                            for (size_t g0 = 0; g0 < n; g0 += 8) {
                                const size_t ge = std::min(g0 + 8, n);
                                if (ge - g0 == 8) {
                                    uint64_t xv, xl;
                                    std::memcpy(&xv, v.data() + g0, 8);
                                    std::memcpy(&xl, last.data() + g0,
                                                8);
                                    if (xv == xl)
                                        continue;
                                }
                                for (size_t g = g0; g < ge; g++) {
                                    if (v[g] == last[g])
                                        continue;
                                    last[g] = v[g];
                                    if (obs.toggles)
                                        shared_counts[g]++;
                                    if (s.toggles)
                                        lane_counts[g * lanes_used +
                                                    lane]++;
                                    if (obs.moduleIdle) {
                                        mod_act[static_cast<int>(
                                            nl.gate(g).module)] = true;
                                    }
                                }
                            }
                            if (obs.moduleIdle) {
                                for (int m = 0; m < kNumModules; m++) {
                                    if (!mod_act[m])
                                        obs.moduleIdle->idle[m]++;
                                }
                                obs.moduleIdle->totalCycles++;
                            }
                        }
                        trace[lane].cycles++;
                    }
                    if (obs.activity)
                        obs.activity->observe(ssoc.sim());
                }
                ssoc.finishCycle();
                cycles = c + 1;
            }

            GateRun &r = out[base + lane];
            r.halted = halted;
            r.cycles = cycles;
            for (int i = 0; i < w.outputWords; i++) {
                r.out.push_back(ssoc.ramWord(
                    static_cast<uint16_t>(kOutputBase + 2 * i)));
            }
            r.gpioOut = ssoc.gpioOut();
            r.ram = ssoc.ram();
            if (track && lane_seen)
                trace[lane].last = last;
            laneClear(active, lane);
        };

        const size_t handoff_limit =
            scalarHandoffLimit(observing, static_cast<size_t>(W) / 64);
        for (uint64_t c = 0; c < w.maxCycles; c++) {
            const size_t live = laneCount(active);
            if (live == 0)
                break;
            if (live <= handoff_limit && live < lanes_used) {
                std::vector<int> rem;
                forEachLane(active,
                            [&](int lane) { rem.push_back(lane); });
                for (int lane : rem)
                    scalar_continue(lane, c);
                break;
            }
            if (w.usesIrq) {
                bool pulse = c >= kBatchIrqAtCycle &&
                             c < kBatchIrqAtCycle + kBatchIrqPulseCycles;
                soc.setIrqExt(pulse ? Logic::One : Logic::Zero);
            }
            soc.evalOnly();

            Mask fetch = soc.stFetchOneMask() & active;
            forEachLane(fetch, [&](int lane) {
                SWord pc = soc.pc(lane);
                const std::vector<uint16_t> &h = *halts[lane];
                if (pc.fullyKnown() &&
                    std::binary_search(h.begin(), h.end(), pc.val)) {
                    retire(lane, /*halted=*/true, completed[lane]);
                }
            });
            if (!laneAny(active))
                break;

            if (observing) {
                const Mask obs_mask = active;
                const Mask cnt_mask = obs_mask & seen;
                if (count_toggles || obs.moduleIdle) {
                    const std::vector<Mask> &vp = soc.sim().valPlanes();
                    const std::vector<Mask> &kp =
                        soc.sim().knownPlanes();
                    Mask mod_active[kNumModules] = {};
                    const Mask lane_cnt = cnt_mask & lane_tog_mask;
                    for (size_t g = 0; g < n; g++) {
                        Mask diff =
                            ((vp[g] ^ last_v[g]) | (kp[g] ^ last_k[g])) &
                            cnt_mask;
                        last_v[g] = vp[g];
                        last_k[g] = kp[g];
                        if (!laneAny(diff))
                            continue;
                        if (obs.toggles)
                            shared_counts[g] += laneCount(diff);
                        if (obs.moduleIdle) {
                            mod_active[static_cast<int>(
                                nl.gate(g).module)] |= diff;
                        }
                        if (laneAny(diff & lane_cnt)) {
                            forEachLane(diff & lane_cnt, [&](int lane) {
                                lane_counts[g * lanes_used + lane]++;
                            });
                        }
                    }
                    if (obs.moduleIdle) {
                        for (int m = 0; m < kNumModules; m++) {
                            obs.moduleIdle->idle[m] += laneCount(
                                cnt_mask & ~mod_active[m]);
                        }
                        obs.moduleIdle->totalCycles +=
                            laneCount(cnt_mask);
                    }
                    // First observe of a lane primes its last-planes
                    // (copied above) without counting.
                    forEachLane(obs_mask & ~seen, [&](int lane) {
                        if (obs.toggles ||
                            scenarios[base + lane].toggles) {
                            extractLane(vp, kp, lane,
                                        trace[lane].first);
                        }
                    });
                    forEachLane(obs_mask, [&](int lane) {
                        trace[lane].cycles++;
                    });
                    seen |= obs_mask;
                }
                if (obs.activity)
                    obs.activity->observe(soc.sim(), obs_mask);
            }

            soc.finishCycle(active);
            forEachLane(active, [&](int lane) {
                completed[lane] = c + 1;
            });
        }
        forEachLane(active, [&](int lane) {
            retire(lane, /*halted=*/false, completed[lane]);
        });

        // Replay each run's boundary contribution in sequential order;
        // the order-free within-run sums follow.
        std::vector<uint64_t> col;
        for (size_t l = 0; l < lanes_used; l++) {
            const GateScenario &s = scenarios[base + l];
            if (obs.toggles)
                obs.toggles->ingestRun(trace[l]);
            if (s.toggles) {
                s.toggles->ingestRun(trace[l]);
                col.assign(n, 0);
                for (size_t g = 0; g < n; g++)
                    col[g] = lane_counts[g * lanes_used + l];
                s.toggles->addCounts(col);
            }
        }
    }
    if (obs.toggles)
        obs.toggles->addCounts(shared_counts);
    return out;
}

} // namespace

std::vector<GateRun>
runScenarioGateBatch(const Netlist &netlist, const Workload &w,
                     const std::vector<GateScenario> &scenarios,
                     int plane_bits, const GateBatchObservers &obs,
                     std::shared_ptr<const SocContext> ctx)
{
    if (scenarios.empty())
        return {};
    if (!ctx)
        ctx = SocContext::make(netlist);
    if (scenarios.size() < kMinLaneBatch)
        return runScenariosScalar(netlist, w, scenarios, obs, ctx);
    // Never sweep wider planes than the batch can fill: a 13-scenario
    // batch on 256-bit planes would pay 4 words per gate for one
    // word's worth of lanes. Results are width-independent, so this
    // is purely an execution-cost decision.
    int width_bits = resolvePlaneBits(plane_bits);
    while (width_bits > 64 &&
           scenarios.size() <= static_cast<size_t>(width_bits) / 2)
        width_bits /= 2;
    return withPlaneBits(
        width_bits, [&](auto width) {
            return runScenariosLanes<decltype(width)::value>(
                netlist, w, scenarios, obs, std::move(ctx));
        });
}

std::vector<GateRun>
runWorkloadGateBatch(const Netlist &netlist, const Workload &w,
                     const AsmProgram &prog,
                     const std::vector<WorkloadInput> &inputs,
                     int plane_bits, const GateBatchObservers &obs,
                     std::shared_ptr<const SocContext> ctx)
{
    std::vector<GateScenario> scenarios(inputs.size());
    for (size_t i = 0; i < inputs.size(); i++) {
        scenarios[i].prog = &prog;
        scenarios[i].input = &inputs[i];
    }
    return runScenarioGateBatch(netlist, w, scenarios, plane_bits, obs,
                                std::move(ctx));
}

RunDiff
compareRuns(const IssRun &iss, const GateRun &gate, const Workload &w)
{
    RunDiff d;
    std::ostringstream os;
    if (iss.result != StepResult::Halted) {
        d.ok = false;
        os << "ISS did not halt; ";
    }
    if (!gate.halted) {
        d.ok = false;
        os << "gate-level run did not halt; ";
    }
    for (int i = 0; i < w.outputWords; i++) {
        SWord g = gate.out[i];
        if (!g.fullyKnown() || g.val != iss.out[i]) {
            d.ok = false;
            os << "out[" << i << "]: iss=0x" << std::hex << iss.out[i]
               << " gate=" << g.toString() << std::dec << "; ";
        }
    }
    if (!gate.gpioOut.fullyKnown() ||
        gate.gpioOut.val != iss.gpioOut) {
        d.ok = false;
        os << "gpio_out mismatch; ";
    }
    // Full RAM equivalence. Skipped for IRQ workloads: the interrupt
    // lands at different dynamic points on the ISS (instruction-based
    // schedule) vs. gate level (cycle-based schedule), so the stack
    // residue differs even though the architectural outputs match.
    if (w.usesIrq) {
        d.detail = os.str();
        return d;
    }
    for (size_t i = 0; i < gate.ram.size(); i++) {
        SWord g = gate.ram[i];
        uint16_t expect = static_cast<uint16_t>(
            iss.ram[2 * i] | (iss.ram[2 * i + 1] << 8));
        if (!g.fullyKnown() || g.val != expect) {
            d.ok = false;
            os << "ram[0x" << std::hex << (kRamBase + 2 * i)
               << "]: iss=0x" << expect << " gate=" << g.toString()
               << std::dec << "; ";
            break;  // one RAM diff is enough detail
        }
    }
    d.detail = os.str();
    return d;
}

} // namespace bespoke
