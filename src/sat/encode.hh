/**
 * @file
 * Tseitin CNF encoding of the netlist's 2-valued projection, plus the
 * bounded sequential unroller with the SoC memory model folded in.
 *
 * The combinational encoder lowers every cell type the simulator knows
 * to clauses over literals, folding encode-time constants on the way
 * (an AND with a constant-0 input never allocates a variable). Because
 * constants are just literals of the reserved variable 0 (src/sat/cnf),
 * ROM contents and flop reset values enter the formula as folded
 * constants / unit-strength facts rather than decision work.
 *
 * The unroller replays Soc's cycle contract exactly (drive inputs,
 * eval, sample memory, latch): per frame it allocates free variables
 * for gpio_in / irq_ext, threads mem_rdata from a 2-valued memory
 * model, and computes next-state literals for every flop. The memory
 * model mirrors sampleMemory() (src/sim/soc.cc): byte-lane writes,
 * synchronous reads with rdata hold, ROM reads folded exactly at
 * encode-time-constant addresses and lowered to a ROM-content mux when
 * the address goes symbolic, RAM tracked word-by-word with
 * read-consistent fresh variables for unknown initial contents, and a
 * conservative havoc (every word forgotten) when a write address goes
 * symbolic. Everything the model cannot pin down becomes a fresh free
 * variable, so the encoding over-approximates the real behavior
 * envelope: an UNSAT answer is a proof about the real system, a SAT
 * witness may need concrete replay to confirm.
 */

#ifndef BESPOKE_SAT_ENCODE_HH
#define BESPOKE_SAT_ENCODE_HH

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "src/isa/assembler.hh"
#include "src/netlist/netlist.hh"
#include "src/sat/cnf.hh"
#include "src/sim/sim_context.hh"

namespace bespoke::sat
{

/**
 * Combinational Tseitin helpers over a sink, with encode-time constant
 * folding (inputs equal to kTrue/kFalse, repeated or complementary
 * inputs). All emitted variable numbers depend only on the call
 * sequence, never on addresses or hashes: encoding is deterministic.
 *
 * andL/orL take their inputs as a span (a vector, an array or the
 * two/three-input overloads) and fold them in a scratch copy that
 * lives on the stack up to kStackFanin inputs, so encoding a gate
 * allocates nothing; only wide fan-ins (ROM mux terms, miter and
 * candidate disjunctions) use the heap.
 */
class Tseitin
{
  public:
    explicit Tseitin(CnfSink &sink) : sink_(sink) {}

    CnfSink &sink() { return sink_; }

    /** A fresh unconstrained variable, as a positive literal. */
    Lit fresh() { return mkLit(sink_.newVar()); }

    Lit andL(std::span<const Lit> ins) { return conj(ins, false); }
    Lit orL(std::span<const Lit> ins) { return ~conj(ins, true); }
    Lit andL(Lit a, Lit b)
    {
        const Lit ins[] = {a, b};
        return andL(ins);
    }
    Lit orL(Lit a, Lit b)
    {
        const Lit ins[] = {a, b};
        return orL(ins);
    }
    Lit andL(Lit a, Lit b, Lit c)
    {
        const Lit ins[] = {a, b, c};
        return andL(ins);
    }
    Lit orL(Lit a, Lit b, Lit c)
    {
        const Lit ins[] = {a, b, c};
        return orL(ins);
    }
    Lit xorL(Lit a, Lit b);
    /** out = sel ? a1 : a0 (MUX2 pin convention). */
    Lit muxL(Lit sel, Lit a0, Lit a1);

  private:
    /** Widest fan-in folded in an on-stack scratch copy. */
    static constexpr size_t kStackFanin = 16;

    /** AND of the inputs, each complemented first when `negate`. */
    Lit conj(std::span<const Lit> ins, bool negate);

    CnfSink &sink_;
};

/**
 * Encode one combinational frame of a netlist. `vals` must hold the
 * literals of every source gate (INPUT, DFF, DFFE; TIE cells are
 * filled here) and is completed for every combinational gate and
 * OUTPUT pseudo-gate, in the given levelize() order.
 */
void encodeCombFrame(const Netlist &nl, const std::vector<GateId> &order,
                     Tseitin &ts, std::vector<Lit> *vals);

/** Where a free (unconstrained) variable in the unrolling came from. */
struct FreeVarInfo
{
    enum class Kind : uint8_t
    {
        GpioIn,     ///< gpio_in bit `index`, at `frame`
        IrqExt,     ///< irq_ext, at `frame`
        OtherInput, ///< unclassified INPUT port (gate id `index`)
        InitRdata,  ///< frame-0 mem_rdata hold register bit `index`
        RamInit,    ///< initial RAM word `index` (word idx), bit `bit`
        MemFresh,   ///< unconstrained memory read bit (periph/havoc)
    };
    Kind kind;
    int frame;
    uint32_t index;
    uint32_t bit;
    Var var;
};

/**
 * Largest unrolling depth any prover or CNF export accepts. Unrolling
 * memory grows with the horizon; an analysis that explored millions of
 * cycles is out of the prover's reach.
 */
constexpr int kMaxSatFrames = 100000;

/**
 * Bounded unrolling of one SoC netlist from reset (plus, optionally, a
 * second "follower" netlist sharing the same inputs and memory bus —
 * the miter configuration). The leader's memory port drives the memory
 * model; both designs see the same mem_rdata.
 */
class SocUnroller
{
  public:
    SocUnroller(const Netlist &nl, const AsmProgram &prog, CnfSink &sink);

    /** Attach the miter follower. Must precede the first addFrame(). */
    void attachFollower(const Netlist &other);

    /** Encode one more frame; frames() grows by one. */
    void addFrame();
    int frames() const { return frames_; }

    /** The sink all clauses go to (for property encoding on top). */
    CnfSink &sink() { return ts_.sink(); }

    /** Literal of a leader gate's output in frame f. */
    Lit gateAt(GateId id, int f) const { return leader_.vals[f][id]; }
    /** Literal of a follower gate's output in frame f. */
    Lit followerGateAt(GateId id, int f) const
    {
        return follower_->vals[f][id];
    }

    /** Every free variable allocated so far, in allocation order. */
    const std::vector<FreeVarInfo> &freeVars() const { return free_; }

  private:
    struct Design
    {
        explicit Design(const Netlist &netlist);

        const Netlist &nl;
        SocPorts ports;
        std::vector<GateId> order;     ///< levelize()
        std::vector<GateId> seqIds;
        /** INPUT ids outside mem_rdata/gpio_in/irq_ext, ascending. */
        std::vector<GateId> otherInputs;
        std::vector<std::vector<Lit>> vals;  ///< per frame, per gate
        std::vector<Lit> nextState;    ///< per seqIds entry
    };

    /** Per-word tracked RAM state. */
    struct MemWord
    {
        enum class St : uint8_t
        {
            Init,      ///< untouched initial contents (free, consistent)
            Tracked,   ///< bits[] hold the current word
            Untracked, ///< unknown (post-havoc): fresh on every read
        };
        St st = St::Init;
        std::array<Lit, 16> bits{};
    };

    Lit freeVar(FreeVarInfo::Kind kind, int frame, uint32_t index,
                uint32_t bit);
    void driveAndEval(Design *d, int frame,
                      const std::array<Lit, 16> &gpio, Lit irq);
    void trackWord(uint32_t word_idx);
    std::array<Lit, 16> readData(const std::array<Lit, 16> &addr);
    std::array<Lit, 16> symbolicRomRead(const std::array<Lit, 16> &addr);
    void stepMemory(const Design &d, int frame);

    const AsmProgram &prog_;
    Tseitin ts_;
    Design leader_;
    std::unique_ptr<Design> follower_;

    int frames_ = 0;
    std::vector<FreeVarInfo> free_;

    // Memory model state (leader-driven).
    std::vector<MemWord> ram_;
    std::array<Lit, 16> rdata_{};
    bool havocked_ = false;
};

/**
 * Incremental deepening schedule: 8, 16, 32, ..., depth. Shallow
 * chunks refute cheap counterexamples on small formulas before the
 * full-depth encoding exists; the solver (learned clauses, activities,
 * phases) is shared across all chunks, so the final full-depth UNSAT
 * starts from everything the shallow queries taught it. Both bounded
 * provers (never-toggle and the equivalence miter) extend their
 * SocUnroller in these chunks.
 */
std::vector<int> deepeningSchedule(int depth);

} // namespace bespoke::sat

#endif // BESPOKE_SAT_ENCODE_HH
