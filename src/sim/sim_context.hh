/**
 * @file
 * Immutable per-netlist simulation context, shareable across threads.
 *
 * Building a GateSim used to recompute the levelized evaluation order
 * and the event-propagation structures (topological levels, fanout
 * CSR) from scratch, and every Soc re-resolved its port ids. That was
 * fine when one simulator lived for a whole analysis, but the
 * path-exploration engine constructs many Socs (its path Soc, up to 64
 * reference-evaluator lanes, the LaneSoc); the read-only prep is
 * hoisted here so they all share one copy.
 *
 * Everything in this file is computed once from a const Netlist and
 * never mutated afterwards, so concurrent readers need no locking. The
 * context holds a reference to the netlist: the netlist must outlive
 * every context/simulator built on it (same rule GateSim always had).
 */

#ifndef BESPOKE_SIM_SIM_CONTEXT_HH
#define BESPOKE_SIM_SIM_CONTEXT_HH

#include <memory>
#include <vector>

#include "src/netlist/netlist.hh"

namespace bespoke
{

/**
 * Evaluation-order and event-propagation data for one netlist (the
 * part of GateSim's setup that does not depend on simulator state).
 *
 * The core of the prep is a *compiled eval program* over evaluation-
 * order positions: position p holds the p-th combinational gate of a
 * level-grouped topological order (sources are level 0, a gate sits
 * one level past its deepest combinational fanin; gates of one level
 * are contiguous and sorted by opcode). Per position there is one
 * opcode byte (the CellType) and three fanin net ids (unused pins
 * padded with pin 0 so the inner loop is branch-free); the cell
 * functions themselves are folded into a 27-entry lookup table per
 * opcode (3 Kleene values ^ 3 pins, padded to 32 entries so the row
 * index is a shift). The tables are built by exhaustively calling
 * evalCell(), so table-driven evaluation is bit-identical to the
 * switch-based reference by construction.
 *
 * Event propagation speaks positions too: each net lists the
 * positions of its combinational consumers, and every consumer sits
 * at a strictly higher position than any of its combinational
 * fanins, so an ascending sweep over a dirty-position set visits each
 * gate at most once, after all of its inputs.
 */
struct SimPrep
{
    explicit SimPrep(const Netlist &netlist);

    /** "No position" / "no pin" marker in posOf and seqEn. */
    static constexpr uint32_t kNone = ~0u;

    /** Gate id at each evaluation-order position. */
    std::vector<GateId> order;
    std::vector<GateId> seqIds;   ///< DFF/DFFE ids, SeqState order
    /** Position of each gate id in `order`; kNone for source cells. */
    std::vector<uint32_t> posOf;

    /** @name Compiled eval program (indexed by position) */
    /// @{
    /** CellType per position, the opcode of the eval program. */
    std::vector<uint8_t> opcode;
    /** 3 fanin net ids per position, flat at fanin[3*pos]; pins
     *  beyond the cell's fanin count repeat pin 0 (the LUT ignores
     *  them). */
    std::vector<uint32_t> fanin;
    /** Kleene truth tables: lut[(op << kLutShift) | (a*9 + b*3 + c)]
     *  with a/b/c the byte-coded Logic values of pins 0..2. */
    std::vector<uint8_t> lut;
    static constexpr int kLutShift = 5;  ///< 27 entries padded to 32
    /**
     * Same-opcode segments of the program: run r covers positions
     * [pos, pos+len) where pos is the running sum of earlier lengths,
     * and every gate in it has opcode `op`. Lets plane evaluation
     * dispatch once per segment and run a tight per-opcode loop
     * instead of switching per gate. Runs never span a level boundary.
     */
    struct EvalRun
    {
        uint8_t op;
        uint32_t len;
    };
    std::vector<EvalRun> evalRuns;
    /// @}

    /** @name Event propagation */
    /// @{
    std::vector<uint32_t> foHead; ///< CSR index into foPos (size n+1)
    /** Positions of the combinational consumers of each net; source
     *  cells re-read their fanins only at latch time. */
    std::vector<uint32_t> foPos;
    /// @}

    /** @name Flop pins (SeqState order) */
    /// @{
    std::vector<uint32_t> seqD;   ///< D net per flop
    std::vector<uint32_t> seqEn;  ///< EN net per DFFE; kNone for DFF
    /// @}
};

/**
 * The resolved bsp430 port/bus ids (names as in bsp430.hh) a Soc and
 * the SAT unroller drive and sample. Requires the standard core ports;
 * valid on original and transformed netlists alike.
 */
struct SocPorts
{
    explicit SocPorts(const Netlist &netlist);

    std::vector<GateId> pMemRdata, pGpioIn, pMemAddr, pMemWdata;
    std::vector<GateId> pPcOut, pGpioOut;
    GateId pIrqExt, pMemEn, pMemWen0, pMemWen1;
    GateId pStFetch, pCtlXfer, pDecBranch, pDecIrq0, pDecIrq1;
    GateId decBranchSrc, decIrq0Src, decIrq1Src;
};

/**
 * SimPrep plus the SoC's port ids, and the PC-flop index map the
 * activity analysis uses to enumerate symbolic fetch addresses.
 */
struct SocContext : SocPorts
{
    explicit SocContext(const Netlist &netlist);

    /** Build a shareable context (the common spelling at call sites). */
    static std::shared_ptr<const SocContext> make(const Netlist &netlist)
    {
        return std::make_shared<const SocContext>(netlist);
    }

    const Netlist &netlist;
    std::shared_ptr<const SimPrep> prep;

    /**
     * For each pc_out bit, the index of its driving flop in SeqState
     * order, or -1 if the bit is not driven by a flop (in which case
     * the analysis cannot enumerate an X value for it).
     */
    std::vector<int> pcSeqIndex;
};

} // namespace bespoke

#endif // BESPOKE_SIM_SIM_CONTEXT_HH
