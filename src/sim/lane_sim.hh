/**
 * @file
 * Lane-parallel bit-plane gate simulator.
 *
 * LaneSim evaluates up to 64 *independent scenarios* of one netlist
 * per gate visit. Each net stores two lane planes — val and known —
 * with lane i in bit i of a uint64_t; a lane's three-valued signal is
 * decoded as X when its known bit is 0, else its val bit (val is kept
 * masked by known, the same canonical form SWord uses). All cell
 * functions are composed from bitwise plane operations implementing
 * exact Kleene semantics (src/sim/plane.hh), so every lane is
 * bit-identical to a scalar GateSim run of the same scenario (pinned
 * by tests/test_lane_sim.cc and the tests/diff_harness.hh lockstep
 * fixture).
 *
 * Unlike GateSim there is no event-driven mode: one full topological
 * sweep evaluates all 64 lanes at once, so the per-lane cost of a
 * sweep is 1/64 of a scalar full pass — far below the event-driven
 * scalar cost whenever a handful of lanes are occupied. Callers batch
 * scenarios (activity-analysis frontier states, workload replays,
 * mutants) onto lanes and mask out finished lanes.
 *
 * Forcing supports per-lane masks: force(id, lanes, value) overrides
 * the gate's output only in the given lanes, and clearForces(lanes)
 * releases only those lanes — the lane-parallel analogue of the
 * scalar force()/clearForces() used for execution-tree forks.
 */

#ifndef BESPOKE_SIM_LANE_SIM_HH
#define BESPOKE_SIM_LANE_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/isa/assembler.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/plane.hh"
#include "src/sim/soc.hh"

namespace bespoke
{

class LaneSim
{
  public:
    static constexpr int kLanes = 64;

    explicit LaneSim(const Netlist &netlist,
                     std::shared_ptr<const SimPrep> prep = nullptr);

    const Netlist &netlist() const { return nl_; }
    const std::shared_ptr<const SimPrep> &prep() const { return prep_; }

    /** Reset every lane: ties driven, flops at reset value, rest X. */
    void reset();

    /** @name Value access */
    /// @{
    void setInput(GateId id, int lane, Logic v);
    /** Drive one input to the same value in every lane. */
    void setInputAll(GateId id, Logic v);
    /** Drive one input's raw planes (val must be masked by known). */
    void setInputPlanes(GateId id, uint64_t val, uint64_t known);
    Logic value(GateId id, int lane) const
    {
        if (!laneTest(known_[id], lane))
            return Logic::X;
        return laneTest(val_[id], lane) ? Logic::One : Logic::Zero;
    }
    /** Collect a bus into one lane's symbolic word (LSB-first ids). */
    SWord busWord(const std::vector<GateId> &bus_ids, int lane) const;
    uint64_t valPlane(GateId id) const { return val_[id]; }
    uint64_t knownPlane(GateId id) const { return known_[id]; }
    /** Raw plane arrays (one mask per net), for bulk observers. */
    const std::vector<uint64_t> &valPlanes() const { return val_; }
    const std::vector<uint64_t> &knownPlanes() const { return known_; }
    /** Lanes where the net is known One. */
    uint64_t oneMask(GateId id) const { return val_[id]; }
    /** Lanes where the net is X. */
    uint64_t xMask(GateId id) const { return ~known_[id]; }
    /// @}

    /** @name Cycle phases (all lanes at once) */
    /// @{
    void evalComb();
    void latchSequential();
    /// @}

    /** @name Per-lane forcing */
    /// @{
    /** Override a net in the given lanes; value bit i is the forced
     *  value of lane i (bits outside `lanes` are ignored). */
    void force(GateId id, uint64_t lanes, uint64_t value);
    /** Release forces in the given lanes only. */
    void clearForces(uint64_t lanes);
    void clearAllForces() { clearForces(kAllLanes); }
    /// @}

    /** @name Per-lane sequential state */
    /// @{
    /** Load a scalar SeqState snapshot into one lane. */
    void restoreSeqLane(int lane, const SeqState &s);
    SeqState seqStateLane(int lane) const;
    const std::vector<GateId> &seqIds() const { return prep_->seqIds; }
    /// @}

    /** Extract one lane's full value vector (byte-coded Logic per
     *  gate), the currency of ToggleCounter run traces. */
    void laneValues(int lane, std::vector<uint8_t> &out) const;

    /** Lifetime gate visits (each visit evaluates all 64 lanes). */
    uint64_t gateVisitsTotal() const { return gateVisitsTotal_; }

  private:
    const Netlist &nl_;
    std::shared_ptr<const SimPrep> prep_;
    std::vector<uint64_t> val_;    ///< lane val plane per net
    std::vector<uint64_t> known_;  ///< lane known plane per net
    std::vector<uint64_t> forceMask_;  ///< lanes forced per net
    std::vector<uint64_t> forceVal_;   ///< forced values per net
    std::vector<GateId> forcedIds_;
    bool anyForce_ = false;
    uint64_t gateVisitsTotal_ = 0;
    /** latchSequential pre-edge scratch (avoids a per-cycle alloc). */
    std::vector<Planes> latchNext_;
};

/**
 * Lane-parallel SoC: LaneSim plus one behavioral environment (RAM,
 * memory read port, last fetch PC) per lane. The scenario loaded into
 * a lane is a full MachineState, exactly the currency of the
 * activity-analysis frontier. GPIO and the IRQ line default to
 * uniform values (the activity analysis drives them identically), but
 * support per-lane overrides for scenario batching (verify runs with
 * distinct inputs per lane); the program ROM is shared unless a lane
 * is given its own image (mutant-per-lane sweeps).
 *
 * Memory behavior per lane is delegated to the same sampleMemory()
 * helper the scalar Soc uses, so symbolic-address conservatism is
 * identical by construction.
 */
class LaneSoc
{
  public:
    static constexpr int kLanes = 64;

    LaneSoc(std::shared_ptr<const SocContext> ctx,
            const AsmProgram &prog);

    LaneSim &sim() { return sim_; }
    const LaneSim &sim() const { return sim_; }

    void setGpioIn(SWord w);
    void setIrqExt(Logic v);
    /** Per-lane overrides (scenario batching). */
    void setGpioInLane(int lane, SWord w);
    void setIrqExtLane(int lane, Logic v);
    /** Give one lane its own program ROM (mutant overlays). The image
     *  must outlive the LaneSoc; null restores the shared program. */
    void setProgLane(int lane, const AsmProgram *prog)
    {
        progLane_[lane] = prog ? prog : &prog_;
    }
    const AsmProgram &progForLane(int lane) const
    {
        return *progLane_[lane];
    }

    /** @name Lane lifecycle */
    /// @{
    /** Load one scenario (the fields of a MachineState) into a lane. */
    void loadLane(int lane, const SeqState &seq, const EnvState &env,
                  uint16_t last_fetch_pc);
    const EnvState &envLane(int lane) const { return env_[lane]; }
    SeqState seqLane(int lane) const
    {
        return sim_.seqStateLane(lane);
    }
    uint16_t lastFetchPc(int lane) const { return lastFetchPc_[lane]; }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        lastFetchPc_[lane] = pc;
    }
    /// @}

    /** @name Cycle phases */
    /// @{
    /** Drive all lanes' inputs and evaluate (no latch). */
    void evalOnly();
    /** Sample memory requests for the given lanes, then latch. */
    void finishCycle(uint64_t lanes);
    /// @}

    /** @name Lane-vector observability */
    /// @{
    uint64_t stFetchOneMask() const
    {
        return sim_.oneMask(ctx_->pStFetch);
    }
    uint64_t decisionXMask() const
    {
        return sim_.xMask(ctx_->pDecIrq0) | sim_.xMask(ctx_->pDecIrq1) |
               sim_.xMask(ctx_->pDecBranch);
    }
    uint64_t ctlXferOneMask() const
    {
        return sim_.oneMask(ctx_->pCtlXfer);
    }
    uint64_t ctlXferXMask() const { return sim_.xMask(ctx_->pCtlXfer); }
    SWord pc(int lane) const
    {
        return sim_.busWord(ctx_->pPcOut, lane);
    }
    SWord gpioOut(int lane) const
    {
        return sim_.busWord(ctx_->pGpioOut, lane);
    }
    /// @}

  private:
    std::shared_ptr<const SocContext> ctx_;
    const AsmProgram &prog_;
    LaneSim sim_;
    std::vector<EnvState> env_;
    std::vector<uint16_t> lastFetchPc_;
    std::vector<const AsmProgram *> progLane_;
    /** GPIO / IRQ input planes, maintained by the setters so evalOnly
     *  pays no per-cycle transpose for them (rdata, which changes
     *  every cycle, is transposed on the fly). */
    std::vector<uint64_t> gpioV_, gpioK_;
    uint64_t irqV_ = 0, irqK_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_SIM_LANE_SIM_HH
