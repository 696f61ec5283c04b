#include "src/bespoke/equiv_check.hh"

#include <bit>
#include <sstream>

#include "src/analysis/path_explorer.hh"

namespace bespoke
{

namespace
{

/** Both designs' contexts and the output ports compared each cycle. */
struct PairContext
{
    std::shared_ptr<const SocContext> a;  ///< the original core
    std::shared_ptr<const SocContext> b;  ///< the bespoke core

    /** An output port present in both designs. */
    struct Port
    {
        GateId a;
        GateId b;
        std::string name;
    };
    std::vector<Port> ports;
};

/**
 * Record the first mismatch: an output both designs drive to known,
 * different values. Returns false (the exploration stops).
 */
bool
outputMismatch(EquivResult &res, const std::string &port, uint64_t cycle,
               uint16_t pc, Logic va, Logic vb)
{
    std::ostringstream os;
    os << "output '" << port << "' differs at cycle " << cycle
       << " (pc 0x" << std::hex << pc << "): original=" << logicChar(va)
       << " bespoke=" << logicChar(vb);
    res.firstMismatch = os.str();
    res.equivalent = false;
    return false;
}

/** Compare two data memories at a path's halt; false on a mismatch. */
bool
compareRam(EquivResult &res, const std::vector<SWord> &ra,
           const std::vector<SWord> &rb)
{
    for (size_t i = 0; i < ra.size(); i++) {
        uint16_t both = ra[i].known & rb[i].known;
        if ((ra[i].val ^ rb[i].val) & both) {
            std::ostringstream os;
            os << "data memory differs at 0x" << std::hex
               << (kRamBase + 2 * i) << ": original " << ra[i].toString()
               << " vs bespoke " << rb[i].toString();
            res.firstMismatch = os.str();
            res.equivalent = false;
            return false;
        }
    }
    return true;
}

/**
 * The pair's plane evaluator: each design advances on its own SocPlanes,
 * and a port's mismatching lanes are kA & kB & (vA ^ vB).
 */
class PairPlanes
{
  public:
    PairPlanes(const PairContext &ctx, const AsmProgram &prog,
               const AnalysisOptions &opts)
        : ctx_(ctx), a_(ctx.a, prog, opts), b_(ctx.b, prog, opts)
    {
    }

    void load(int lane, const PairState &s)
    {
        a_.load(lane, s.a);
        b_.load(lane, s.b);
    }
    PairState capture(int lane) const
    {
        return {a_.capture(lane), b_.capture(lane)};
    }
    uint16_t lastFetchPc(int lane) const { return a_.lastFetchPc(lane); }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        a_.setLastFetchPc(lane, pc);
        b_.setLastFetchPc(lane, pc);
    }
    SWord pc(int lane) const { return a_.pc(lane); }

    bool eval(uint64_t active, EquivResult &res, uint64_t cycle)
    {
        a_.lanes().evalOnly();
        b_.lanes().evalOnly();
        res.outputsCompared += ctx_.ports.size() * laneCount(active);
        const LaneSim &sa = a_.lanes().sim(), &sb = b_.lanes().sim();
        auto differs = [&](const PairContext::Port &p) {
            return sa.knownPlane(p.a) & sb.knownPlane(p.b) &
                   (sa.valPlane(p.a) ^ sb.valPlane(p.b)) & active;
        };
        uint64_t bad = 0;
        for (const PairContext::Port &p : ctx_.ports)
            bad |= differs(p);
        if (!bad)
            return true;
        // The lowest lane, then its first port: the reference
        // evaluator's order.
        int lane = std::countr_zero(bad);
        for (const PairContext::Port &p : ctx_.ports) {
            if (laneTest(differs(p), lane)) {
                return outputMismatch(res, p.name, cycle, lastFetchPc(lane),
                                      sa.value(p.a, lane),
                                      sb.value(p.b, lane));
            }
        }
        return true;
    }
    uint64_t fetchOneMask() const { return a_.fetchOneMask(); }
    uint64_t decisionXMask() const
    {
        return a_.decisionXMask() | b_.decisionXMask();
    }
    uint64_t ctlXferOneMask() const { return a_.ctlXferOneMask(); }
    uint64_t ctlXferXMask() const { return a_.ctlXferXMask(); }
    bool halted(int lane, EquivResult &res)
    {
        return compareRam(res, a_.lanes().envLane(lane).ram,
                          b_.lanes().envLane(lane).ram);
    }
    void finishCycle(uint64_t active)
    {
        a_.finishCycle(active);
        b_.finishCycle(active);
    }
    uint64_t gatesEvaluated() const
    {
        return a_.gatesEvaluated() + b_.gatesEvaluated();
    }

  private:
    const PairContext &ctx_;
    SocPlanes a_;
    SocPlanes b_;
};

/**
 * The equivalence check's machine (see PathExplorer): two SocCores, the
 * original and the bespoke core, in lockstep. The original leads
 * control (fetch, PC, control transfer); a decision is X if it is X in
 * either core and is forced in both. Every observed cycle compares the
 * known output bits, every halting path the data memories.
 */
class CorePair
{
  public:
    using State = PairState;
    using Context = PairContext;
    using Sink = EquivResult;
    using Planes = PairPlanes;

    CorePair(const PairContext &ctx, const AsmProgram &prog,
             const AnalysisOptions &opts)
        : ctx_(ctx), a_(ctx.a, prog, opts), b_(ctx.b, prog, opts)
    {
    }

    void reset(EquivResult &)
    {
        a_.soc().reset();
        b_.soc().reset();
    }
    PairState capture() const { return {a_.capture(), b_.capture()}; }
    void restore(const PairState &s)
    {
        a_.restore(s.a);
        b_.restore(s.b);
    }
    uint16_t lastFetchPc() const { return a_.lastFetchPc(); }
    void setLastFetchPc(uint16_t pc)
    {
        a_.setLastFetchPc(pc);
        b_.setLastFetchPc(pc);
    }

    void eval()
    {
        a_.eval();
        b_.eval();
    }
    bool observe(EquivResult &res, uint64_t cycle)
    {
        res.outputsCompared += ctx_.ports.size();
        if (!res.equivalent)
            return false;  // a lower lane already differed this cycle
        for (const PairContext::Port &p : ctx_.ports) {
            Logic va = a_.soc().sim().value(p.a);
            Logic vb = b_.soc().sim().value(p.b);
            if (isKnown(va) && isKnown(vb) && va != vb)
                return outputMismatch(res, p.name, cycle, lastFetchPc(),
                                      va, vb);
        }
        return true;
    }
    bool halted(EquivResult &res)
    {
        return compareRam(res, a_.soc().ram(), b_.soc().ram());
    }
    void finishCycle()
    {
        a_.finishCycle();
        b_.finishCycle();
    }

    bool fetching() const { return a_.fetching(); }
    SWord pc() const { return a_.pc(); }
    Logic ctlXfer() const { return a_.ctlXfer(); }
    std::optional<DecKind> firstXDecision() const
    {
        for (DecKind kind : kForkKinds) {
            if (a_.decision(kind) == Logic::X ||
                b_.decision(kind) == Logic::X)
                return kind;
        }
        return std::nullopt;
    }
    void force(DecKind kind, Logic v)
    {
        a_.force(kind, v);
        b_.force(kind, v);
    }
    void clearForces()
    {
        a_.clearForces();
        b_.clearForces();
    }

    /** A symbolic PC ends the path, everything up to it compared. */
    std::vector<PairState> pcCandidates(SWord, const PairState &) const
    {
        return {};
    }

    uint64_t gatesEvaluated() const
    {
        return a_.gatesEvaluated() + b_.gatesEvaluated();
    }

  private:
    const PairContext &ctx_;
    SocCore a_;
    SocCore b_;
};

} // namespace

EquivResult
checkSymbolicEquivalence(const Netlist &original,
                         const Netlist &bespoke_nl,
                         const AsmProgram &prog,
                         const AnalysisOptions &opts)
{
    PairContext ctx{SocContext::make(original),
                    SocContext::make(bespoke_nl), {}};
    for (const auto &[name, id] : original.ports()) {
        if (original.gate(id).type == CellType::OUTPUT &&
            bespoke_nl.hasPort(name))
            ctx.ports.push_back({id, bespoke_nl.port(name), name});
    }

    EquivResult res;
    PathExplorer<CorePair> explorer(std::move(ctx), prog, opts, res);
    explorer.run();
    res.completed = !explorer.frontier().capped();
    res.pathsExplored = explorer.frontier().pathsExplored();
    res.cyclesChecked = explorer.frontier().cycles();
    return res;
}

} // namespace bespoke
