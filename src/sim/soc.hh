/**
 * @file
 * SoC environment: the bsp430 netlist plus behavioral program ROM and
 * data RAM, stepped cycle by cycle.
 *
 * The memories are synchronous with one cycle of read latency, exactly
 * what the core's FSM expects. RAM contents are three-valued words: the
 * symbolic activity analysis starts RAM fully unknown (paper Algorithm
 * 1 line 2, "initialize all memory cells ... to X"), while concrete
 * verification runs start it zeroed to match the ISS.
 *
 * Conservative handling of symbolic addresses:
 *  - read with any X address bit  -> returns all-X data;
 *  - write with any X address bit -> every RAM word is widened by
 *    merging with the written data (the write may have landed anywhere).
 */

#ifndef BESPOKE_SIM_SOC_HH
#define BESPOKE_SIM_SOC_HH

#include <vector>

#include "src/isa/assembler.hh"
#include "src/sim/gate_sim.hh"

namespace bespoke
{

/** Behavioral memory + pin state; snapshot/restore for tree forking. */
struct EnvState
{
    std::vector<SWord> ram;   ///< one SWord per RAM word
    SWord rdata;              ///< currently driven memory read data

    bool operator==(const EnvState &) const = default;

    /** Widen toward the most conservative common state. */
    static EnvState merge(const EnvState &a, const EnvState &b);
    /** True if this state is covered by the conservative state c. */
    bool substateOf(const EnvState &c) const;
};

/**
 * One memory-port transaction against a behavioral environment: the
 * shared core of Soc::sampleMemoryRequest(), also applied per lane by
 * LaneSoc so scalar and lane-parallel memory semantics (including the
 * conservative symbolic-address handling) cannot diverge.
 */
void sampleMemory(EnvState &env, const AsmProgram &prog, Logic en,
                  Logic wen0, Logic wen1, SWord addr, SWord wdata);

class Soc
{
  public:
    /**
     * @param netlist   the core (original or bespoke); looked-up ports
     *                  must exist (see bsp430.hh)
     * @param prog      program ROM image
     * @param ram_unknown start RAM at X (symbolic) instead of 0
     * @param sim_mode  gate evaluator strategy
     */
    Soc(const Netlist &netlist, const AsmProgram &prog, bool ram_unknown,
        GateSim::EvalMode sim_mode = GateSim::EvalMode::EventDriven);

    /**
     * Construct from a pre-built shared context (port ids + simulator
     * prep resolved once per netlist). This is the cheap constructor
     * the activity analysis uses to stamp out its path and lane Socs;
     * behavior is identical to the netlist constructor.
     */
    Soc(std::shared_ptr<const SocContext> ctx, const AsmProgram &prog,
        bool ram_unknown,
        GateSim::EvalMode sim_mode = GateSim::EvalMode::EventDriven);

    /** The shared per-netlist context this Soc runs on. */
    const std::shared_ptr<const SocContext> &context() const
    {
        return ctx_;
    }

    GateSim &sim() { return sim_; }
    const GateSim &sim() const { return sim_; }

    /** Reset the core and environment (cycle 0 inputs driven). */
    void reset();

    /**
     * Advance one clock cycle: drive inputs, evaluate, let the
     * environment sample the memory request, latch flops. Observers
     * that need post-eval values call evalOnly() and finishCycle().
     */
    void cycle();

    /** Evaluate combinational logic with current inputs (no latch). */
    void evalOnly();

    /** Finish the current cycle after evalOnly(): sample and latch. */
    void finishCycle();

    /** @name Environment controls */
    /// @{
    void setGpioIn(SWord w) { gpioIn_ = w; }
    void setIrqExt(Logic v) { irqExt_ = v; }
    /// @}

    /** @name Observability */
    /// @{
    SWord gpioOut() const;
    SWord pc() const;
    Logic stFetch() const;
    Logic ctlXfer() const;
    Logic decBranch() const;
    Logic decIrq0() const;
    Logic decIrq1() const;
    /** Net driving a decision output port (target for force()). */
    GateId decBranchNet() const { return ctx_->decBranchSrc; }
    GateId decIrq0Net() const { return ctx_->decIrq0Src; }
    GateId decIrq1Net() const { return ctx_->decIrq1Src; }
    SWord ramWord(uint16_t byte_addr) const;
    void pokeRamWord(uint16_t byte_addr, SWord w);
    const std::vector<SWord> &ram() const { return env_.ram; }
    /// @}

    /** @name State snapshot (machine = flops + environment) */
    /// @{
    EnvState envState() const { return env_; }
    void restoreEnvState(const EnvState &s) { env_ = s; }
    /// @}

  private:
    void driveInputs();
    void sampleMemoryRequest();

    /** Shared immutable port ids + simulator prep for the netlist. */
    std::shared_ptr<const SocContext> ctx_;
    const Netlist &nl_;
    const AsmProgram &prog_;
    GateSim sim_;
    bool ramUnknown_;

    EnvState env_;
    SWord gpioIn_ = SWord::allX();
    Logic irqExt_ = Logic::X;
};

} // namespace bespoke

#endif // BESPOKE_SIM_SOC_HH
