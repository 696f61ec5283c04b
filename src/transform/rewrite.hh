/**
 * @file
 * Netlist rewriting: the machinery behind cutting & stitching and
 * re-synthesis (paper Sec. 3.2).
 *
 * Netlist construction is append-only, so every transform builds a new
 * netlist via a Rewriter: passes mark gates as aliased (output equals
 * another gate's output), constant (output tied to 0/1) or replaced by
 * another cell, dead sweeping marks gates nothing live reads as killed,
 * and compact() emits the surviving gates with pins remapped. Port
 * pseudo-gates keep their names, so environments and analyses that
 * look up ports by name work on transformed designs unchanged.
 */

#ifndef BESPOKE_TRANSFORM_REWRITE_HH
#define BESPOKE_TRANSFORM_REWRITE_HH

#include <vector>

#include "src/netlist/netlist.hh"

namespace bespoke
{

/** Result of a rewrite: the new netlist plus an old-id -> new-id map. */
struct RewriteResult
{
    Netlist netlist;
    /** kNoGate for dropped gates; constants map to shared tie cells. */
    std::vector<GateId> map;

    /** Remap an old gate id (kNoGate if it was dropped). */
    GateId remap(GateId old_id) const { return map[old_id]; }
};

/**
 * Accumulates rewrite marks against a source netlist, then emits the
 * rewritten copy. Marks compose: an aliased gate may alias a constant
 * gate; resolution follows chains.
 */
class Rewriter
{
  public:
    explicit Rewriter(const Netlist &src);

    const Netlist &source() const { return src_; }

    /** Mark: this gate's output is the constant value; gate dropped. */
    void makeConstant(GateId id, bool value);
    /**
     * Mark: this gate's output equals target's output; gate dropped.
     * Self-aliases and alias cycles (following earlier alias marks from
     * `target` back to `id`) are rejected deterministically at mark
     * time, so a bad pass fails at the offending makeAlias() call
     * instead of at some later resolve() that happens to walk the loop.
     */
    void makeAlias(GateId id, GateId target);
    /** Replace the gate's cell (same output net), e.g. XOR2 -> INV. */
    void replaceCell(GateId id, CellType type, GateId in0,
                     GateId in1 = kNoGate, GateId in2 = kNoGate);
    /**
     * Mark a gate nothing live reads as dropped (dead sweeping). It
     * still resolves to itself (or, for a tie, to its constant), so
     * compact() rejects a live pin that reads it and does not carry a
     * datapath instance whose operand it is.
     */
    void kill(GateId id);

    /** True once replaceCell() was applied (one rewrite per round). */
    bool hasReplacement(GateId id) const { return hasReplace_[id]; }
    bool isDropped(GateId id) const;

    /**
     * Resolve a gate id through alias/constant chains. Returns either a
     * source gate id (isConst == false) or a constant (isConst == true,
     * value set); TIE cells resolve to their constants.
     */
    struct Resolved
    {
        bool isConst;
        bool value;
        GateId gate;
    };
    Resolved resolve(GateId id) const;

    /** Emit the rewritten netlist. */
    RewriteResult compact() const;

  private:
    enum class Mark : uint8_t
    {
        Keep,
        Const0,
        Const1,
        Alias,
        Killed,
    };

    const Netlist &src_;
    std::vector<Mark> marks_;
    std::vector<GateId> aliasTarget_;
    std::vector<Gate> replaced_;      ///< cell replacements (by id)
    std::vector<uint8_t> hasReplace_;
};

/**
 * Remove BUF cells by rewiring their fanouts to their inputs. Used to
 * clean up generator scaffolding and post-optimization chains.
 */
RewriteResult stripBuffers(const Netlist &src);

/**
 * Remove gates with no path to any OUTPUT port or live flop; iterates
 * until closed (a flop whose Q feeds nothing is dead, which can kill
 * its fanin cone).
 */
RewriteResult sweepDead(const Netlist &src);

} // namespace bespoke

#endif // BESPOKE_TRANSFORM_REWRITE_HH
