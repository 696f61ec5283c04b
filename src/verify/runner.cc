#include "src/verify/runner.hh"

#include <algorithm>
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
resolvePlaneBits(int)
{
    return LaneSoc::kLanes;
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
 * each into its own counter. This path defines the semantics the lane
 * path must reproduce bit for bit.
 */
std::vector<GateRun>
runScenariosScalar(const Netlist &nl, const Workload &w,
                   const std::vector<GateScenario> &scenarios,
                   std::shared_ptr<const SocContext> ctx)
{
    std::vector<GateRun> out;
    out.reserve(scenarios.size());
    for (const GateScenario &s : scenarios) {
        out.push_back(runWorkloadGate(nl, w, *s.prog, *s.input,
                                      s.toggles, nullptr, nullptr, ctx));
    }
    return out;
}

/** Decode one lane of (val, known) planes into byte-coded Logic. */
void
extractLane(const std::vector<uint64_t> &val,
            const std::vector<uint64_t> &known, int lane,
            std::vector<uint8_t> &out)
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

std::vector<GateRun>
runScenariosLanes(const Netlist &nl, const Workload &w,
                  const std::vector<GateScenario> &scenarios,
                  std::shared_ptr<const SocContext> ctx)
{
    constexpr size_t W = LaneSoc::kLanes;
    const size_t n = nl.size();
    const size_t total = scenarios.size();

    // Fresh-Soc seed state (program-independent: the reset eval never
    // touches the ROM) shared by every lane.
    Soc seed(ctx, *scenarios[0].prog, /*ram_unknown=*/false);
    const SeqState seed_seq = seed.sim().seqState();
    const EnvState seed_env = seed.envState();

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
        std::any_of(scenarios.begin(), scenarios.end(),
                    [](const GateScenario &s) { return s.toggles; });

    std::vector<GateRun> out(total);

    for (size_t base = 0; base < total; base += W) {
        const size_t lanes_used = std::min(W, total - base);
        LaneSoc soc(ctx, *scenarios[base].prog);
        soc.setIrqExt(Logic::Zero);

        uint64_t active = 0;
        std::vector<const std::vector<uint16_t> *> halts(lanes_used);
        std::vector<uint64_t> completed(lanes_used, 0);
        std::vector<ToggleCounter::RunTrace> trace(lanes_used);
        // Per-scenario within-run counts, gate-major [gate * S + lane].
        std::vector<uint64_t> lane_counts;
        uint64_t lane_tog_mask = 0;
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
        std::vector<uint64_t> last_v, last_k;
        uint64_t seen = 0;
        if (count_toggles) {
            last_v.assign(n, 0);
            last_k.assign(n, 0);
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
            if (s.toggles && laneTest(seen, lane)) {
                extractLane(last_v, last_k, lane,
                            trace[lane].last);
            }
            laneClear(active, lane);
        };

        for (uint64_t c = 0; c < w.maxCycles; c++) {
            if (w.usesIrq) {
                bool pulse = c >= kIrqAtCycle &&
                             c < kIrqAtCycle + kIrqPulseCycles;
                soc.setIrqExt(pulse ? Logic::One : Logic::Zero);
            }
            soc.evalOnly();

            uint64_t fetch = soc.stFetchOneMask() & active;
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

            if (count_toggles) {
                const uint64_t cnt_mask = active & seen;
                const std::vector<uint64_t> &vp = soc.sim().valPlanes();
                const std::vector<uint64_t> &kp = soc.sim().knownPlanes();
                const uint64_t lane_cnt = cnt_mask & lane_tog_mask;
                for (size_t g = 0; g < n; g++) {
                    uint64_t diff =
                        ((vp[g] ^ last_v[g]) | (kp[g] ^ last_k[g])) &
                        cnt_mask;
                    last_v[g] = vp[g];
                    last_k[g] = kp[g];
                    if (!laneAny(diff))
                        continue;
                    if (laneAny(diff & lane_cnt)) {
                        forEachLane(diff & lane_cnt, [&](int lane) {
                            lane_counts[g * lanes_used + lane]++;
                        });
                    }
                }
                // First observe of a lane primes its last-planes
                // (copied above) without counting.
                forEachLane(active & ~seen, [&](int lane) {
                    if (scenarios[base + lane].toggles)
                        extractLane(vp, kp, lane, trace[lane].first);
                });
                forEachLane(active,
                            [&](int lane) { trace[lane].cycles++; });
                seen |= active;
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
            if (s.toggles) {
                s.toggles->ingestRun(trace[l]);
                col.assign(n, 0);
                for (size_t g = 0; g < n; g++)
                    col[g] = lane_counts[g * lanes_used + l];
                s.toggles->addCounts(col);
            }
        }
    }
    return out;
}

} // namespace

std::vector<GateRun>
runScenarioGateBatch(const Netlist &netlist, const Workload &w,
                     const std::vector<GateScenario> &scenarios,
                     std::shared_ptr<const SocContext> ctx)
{
    if (scenarios.empty())
        return {};
    if (!ctx)
        ctx = SocContext::make(netlist);
    if (scenarios.size() < kMinLaneBatch)
        return runScenariosScalar(netlist, w, scenarios, ctx);
    return runScenariosLanes(netlist, w, scenarios, std::move(ctx));
}

std::vector<GateRun>
runWorkloadGateBatch(const Netlist &netlist, const Workload &w,
                     const AsmProgram &prog,
                     const std::vector<WorkloadInput> &inputs,
                     ToggleCounter *toggles,
                     std::shared_ptr<const SocContext> ctx)
{
    std::vector<GateScenario> scenarios(inputs.size());
    for (size_t i = 0; i < inputs.size(); i++)
        scenarios[i] = {&prog, &inputs[i], toggles};
    return runScenarioGateBatch(netlist, w, scenarios, std::move(ctx));
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
