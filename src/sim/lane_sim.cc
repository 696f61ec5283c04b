#include "src/sim/lane_sim.hh"

#include <cstdlib>

#include "src/isa/isa.hh"
#include "src/util/logging.hh"

namespace bespoke
{

LaneSim::LaneSim(const Netlist &netlist,
                 std::shared_ptr<const SimPrep> prep)
    : nl_(netlist), prep_(std::move(prep)),
      val_(netlist.size()), known_(netlist.size())
{
    if (!prep_)
        prep_ = std::make_shared<const SimPrep>(netlist);
    bespoke_assert(prep_->posOf.size() == netlist.size(),
                   "SimPrep was built for a different netlist");
}

void
LaneSim::reset()
{
    for (GateId i = 0; i < nl_.size(); i++) {
        switch (nl_.gate(i).type) {
          case CellType::TIE0:
            val_[i] = 0;
            known_[i] = kAllLanes;
            break;
          case CellType::TIE1:
            val_[i] = kAllLanes;
            known_[i] = kAllLanes;
            break;
          default:
            val_[i] = 0;
            known_[i] = 0;
        }
    }
    for (GateId id : prep_->seqIds) {
        bool rv = nl_.gate(id).resetValue;
        val_[id] = rv ? kAllLanes : 0;
        known_[id] = kAllLanes;
    }
}

void
LaneSim::setInput(GateId id, int lane, Logic v)
{
    bespoke_assert(nl_.gate(id).type == CellType::INPUT,
                   "setInput on non-input gate ", id);
    if (v == Logic::X) {
        laneClear(val_[id], lane);
        laneClear(known_[id], lane);
    } else {
        laneSet(known_[id], lane);
        if (v == Logic::One)
            laneSet(val_[id], lane);
        else
            laneClear(val_[id], lane);
    }
}

void
LaneSim::setInputPlanes(GateId id, uint64_t val, uint64_t known)
{
    bespoke_assert(nl_.gate(id).type == CellType::INPUT,
                   "setInput on non-input gate ", id);
    bespoke_assert(!laneAny(val & ~known),
                   "val plane not masked by known");
    val_[id] = val;
    known_[id] = known;
}

SWord
LaneSim::busWord(const std::vector<GateId> &bus_ids, int lane) const
{
    bespoke_assert(bus_ids.size() <= 16);
    SWord w;
    for (size_t i = 0; i < bus_ids.size(); i++)
        w.setBit(static_cast<int>(i), value(bus_ids[i], lane));
    return w;
}

void
LaneSim::evalComb()
{
    const uint32_t *fanin = prep_->fanin.data();
    const GateId *order = prep_->order.data();
    uint64_t *val = val_.data();
    uint64_t *known = known_.data();
    auto get = [&](uint32_t g) -> Planes { return {val[g], known[g]}; };

    // One dispatch per same-opcode segment; the per-gate loops stay
    // branch-free. Values and evaluation order are identical to a
    // per-gate switch over the program positions.
#define BESPOKE_EVAL_RUN(expr)                                        \
    for (size_t i = pos; i < end; i++) {                              \
        const GateId id = order[i];                                   \
        const uint32_t *f = &fanin[3 * i];                            \
        (void)f;                                                      \
        const Planes out = (expr);                                    \
        val[id] = out.v;                                              \
        known[id] = out.k;                                            \
    }                                                                 \
    break;

    size_t pos = 0;
    for (const SimPrep::EvalRun &run : prep_->evalRuns) {
        const size_t end = pos + run.len;
        switch (static_cast<CellType>(run.op)) {
          case CellType::OUTPUT:
          case CellType::BUF:
            BESPOKE_EVAL_RUN(get(f[0]))
          case CellType::INV:
            BESPOKE_EVAL_RUN(pNot(get(f[0])))
          case CellType::AND2:
            BESPOKE_EVAL_RUN(pAnd(get(f[0]), get(f[1])))
          case CellType::AND3:
            BESPOKE_EVAL_RUN(
                pAnd(pAnd(get(f[0]), get(f[1])), get(f[2])))
          case CellType::OR2:
            BESPOKE_EVAL_RUN(pOr(get(f[0]), get(f[1])))
          case CellType::OR3:
            BESPOKE_EVAL_RUN(
                pOr(pOr(get(f[0]), get(f[1])), get(f[2])))
          case CellType::NAND2:
            BESPOKE_EVAL_RUN(pNot(pAnd(get(f[0]), get(f[1]))))
          case CellType::NAND3:
            BESPOKE_EVAL_RUN(
                pNot(pAnd(pAnd(get(f[0]), get(f[1])), get(f[2]))))
          case CellType::NOR2:
            BESPOKE_EVAL_RUN(pNot(pOr(get(f[0]), get(f[1]))))
          case CellType::NOR3:
            BESPOKE_EVAL_RUN(
                pNot(pOr(pOr(get(f[0]), get(f[1])), get(f[2]))))
          case CellType::XOR2:
            BESPOKE_EVAL_RUN(pXor(get(f[0]), get(f[1])))
          case CellType::XNOR2:
            BESPOKE_EVAL_RUN(pXnor(get(f[0]), get(f[1])))
          case CellType::MUX2:
            BESPOKE_EVAL_RUN(
                pMux(get(f[0]), get(f[1]), get(f[2])))
          case CellType::AOI21:
            BESPOKE_EVAL_RUN(
                pNot(pOr(pAnd(get(f[0]), get(f[1])), get(f[2]))))
          case CellType::OAI21:
            BESPOKE_EVAL_RUN(
                pNot(pAnd(pOr(get(f[0]), get(f[1])), get(f[2]))))
          case CellType::TIE0:
            BESPOKE_EVAL_RUN((Planes{0, kAllLanes}))
          case CellType::TIE1:
            BESPOKE_EVAL_RUN((Planes{kAllLanes, kAllLanes}))
          default:
            bespoke_fatal("non-combinational cell in eval order");
        }
        pos = end;
    }
#undef BESPOKE_EVAL_RUN
    gateVisitsTotal_ += prep_->order.size();
}

void
LaneSim::latchSequential()
{
    // Two passes, like GateSim: all D inputs are read before any Q
    // changes so direct Q->D wires see the pre-edge value.
    size_t n = prep_->seqIds.size();
    latchNext_.resize(n);
    std::vector<Planes> &next = latchNext_;
    const SimPrep &p = *prep_;
    for (size_t i = 0; i < n; i++) {
        const GateId d_id = p.seqD[i];
        Planes d = {val_[d_id], known_[d_id]};
        if (p.seqEn[i] == SimPrep::kNone) {
            next[i] = d;
        } else {
            const GateId id = p.seqIds[i];
            const GateId en_id = p.seqEn[i];
            Planes q = {val_[id], known_[id]};
            Planes en = {val_[en_id], known_[en_id]};
            next[i] = pMux(q, d, en);
        }
    }
    for (size_t i = 0; i < n; i++) {
        GateId id = prep_->seqIds[i];
        val_[id] = next[i].v;
        known_[id] = next[i].k;
    }
}

void
LaneSim::restoreSeqLane(int lane, const SeqState &s)
{
    bespoke_assert(s.size() == prep_->seqIds.size());
    for (size_t i = 0; i < s.size(); i++) {
        GateId id = prep_->seqIds[i];
        Logic v = static_cast<Logic>(s[i]);
        if (v == Logic::X) {
            laneClear(val_[id], lane);
            laneClear(known_[id], lane);
        } else {
            laneSet(known_[id], lane);
            if (v == Logic::One)
                laneSet(val_[id], lane);
            else
                laneClear(val_[id], lane);
        }
    }
}

SeqState
LaneSim::seqStateLane(int lane) const
{
    SeqState s(prep_->seqIds.size());
    for (size_t i = 0; i < s.size(); i++)
        s[i] = static_cast<uint8_t>(value(prep_->seqIds[i], lane));
    return s;
}

void
ActivityTracker::observe(const LaneSim &sim, uint64_t lanes)
{
    bespoke_assert(initialCaptured_);
    if (!laneAny(lanes))
        return;
    uint8_t *tog = toggled_.data();
    if (!lanePendingValid_) {
        lanePending_.clear();
        for (size_t i = 0; i < toggled_.size(); i++) {
            if (!tog[i])
                lanePending_.push_back(static_cast<uint32_t>(i));
        }
        lanePendingValid_ = true;
    }
    const uint8_t *init = initial_.data();
    size_t keep = 0;
    for (uint32_t i : lanePending_) {
        if (tog[i])
            continue;  // set through the scalar path meanwhile
        // Broadcast the scalar initial Logic to planes; a lane has
        // toggled iff its (val, known) pair differs from it. (Gates
        // whose initial value was X are pre-marked by captureInitial
        // and never enter the pending list.)
        uint64_t iv =
            init[i] == static_cast<uint8_t>(Logic::One) ? kAllLanes : 0;
        uint64_t ik =
            init[i] == static_cast<uint8_t>(Logic::X) ? 0 : kAllLanes;
        uint64_t diff = (sim.valPlane(i) ^ iv) | (sim.knownPlane(i) ^ ik);
        if (laneAny(diff & lanes))
            tog[i] = 1;
        else
            lanePending_[keep++] = i;
    }
    lanePending_.resize(keep);
}

LaneSoc::LaneSoc(std::shared_ptr<const SocContext> ctx,
                 const AsmProgram &prog)
    : ctx_(std::move(ctx)), prog_(prog),
      sim_(ctx_->netlist, ctx_->prep), env_(kLanes),
      lastFetchPc_(kLanes, 0),
      progLane_(kLanes, &prog_),
      gpioV_(ctx_->pGpioIn.size()), gpioK_(ctx_->pGpioIn.size())
{
    sim_.reset();
    for (EnvState &e : env_) {
        e.ram.assign(kRamSize / 2, SWord::allX());
        e.rdata = SWord::allX();
    }
    setGpioIn(SWord::allX());
    setIrqExt(Logic::X);
}

void
LaneSoc::setGpioIn(SWord w)
{
    for (size_t b = 0; b < gpioV_.size(); b++) {
        Logic v = w.bit(static_cast<int>(b));
        gpioV_[b] = v == Logic::One ? kAllLanes : 0;
        gpioK_[b] = v == Logic::X ? 0 : kAllLanes;
    }
}

void
LaneSoc::setGpioInLane(int lane, SWord w)
{
    for (size_t b = 0; b < gpioV_.size(); b++) {
        Logic v = w.bit(static_cast<int>(b));
        if (v == Logic::X) {
            laneClear(gpioV_[b], lane);
            laneClear(gpioK_[b], lane);
        } else {
            laneSet(gpioK_[b], lane);
            if (v == Logic::One)
                laneSet(gpioV_[b], lane);
            else
                laneClear(gpioV_[b], lane);
        }
    }
}

void
LaneSoc::setIrqExt(Logic v)
{
    irqV_ = v == Logic::One ? kAllLanes : 0;
    irqK_ = v == Logic::X ? 0 : kAllLanes;
}

void
LaneSoc::loadLane(int lane, const SeqState &seq, const EnvState &env,
                  uint16_t last_fetch_pc)
{
    sim_.restoreSeqLane(lane, seq);
    env_[lane] = env;
    lastFetchPc_[lane] = last_fetch_pc;
}

void
LaneSoc::evalOnly()
{
    // GPIO / IRQ planes are maintained by the setters; per-lane memory
    // read data is transposed into planes every cycle, accumulating
    // the bus planes in registers.
    for (size_t b = 0; b < gpioV_.size(); b++)
        sim_.setInputPlanes(ctx_->pGpioIn[b], gpioV_[b], gpioK_[b]);
    sim_.setInputPlanes(ctx_->pIrqExt, irqV_, irqK_);
    const size_t dbits = ctx_->pMemRdata.size();
    bespoke_assert(dbits <= 16);
    uint64_t rv[16] = {}, rk[16] = {};
    for (int l = 0; l < kLanes; l++) {
        const SWord rd = env_[l].rdata;
        for (size_t b = 0; b < dbits; b++) {
            rv[b] |= static_cast<uint64_t>((rd.val >> b) & 1) << l;
            rk[b] |= static_cast<uint64_t>((rd.known >> b) & 1) << l;
        }
    }
    for (size_t b = 0; b < dbits; b++)
        sim_.setInputPlanes(ctx_->pMemRdata[b], rv[b], rk[b]);
    sim_.evalComb();
}

void
LaneSoc::finishCycle(uint64_t lanes)
{
    // Plane-level skip masks: lanes whose memory port is provably idle
    // (en = wen0 = wen1 = 0) need no per-lane sampling at all, and
    // lanes that are definitely not writing skip the wdata bus
    // transpose — reads (every fetch is one) only need the address.
    const std::vector<uint64_t> &vp = sim_.valPlanes();
    const std::vector<uint64_t> &kp = sim_.knownPlanes();
    auto zeroMask = [&](GateId id) { return kp[id] & ~vp[id]; };
    const uint64_t wzero =
        zeroMask(ctx_->pMemWen0) & zeroMask(ctx_->pMemWen1);
    const uint64_t idle = zeroMask(ctx_->pMemEn) & wzero;
    const uint64_t active = lanes & ~idle;
    const size_t abits = ctx_->pMemAddr.size();
    const size_t dbits = ctx_->pMemWdata.size();
    bespoke_assert(abits <= 16 && dbits <= 16);
    if (active) {
        // Hoist every bus plane once; the per-lane bus transpose then
        // reads registers instead of re-indexing the plane arrays.
        uint64_t av[16], ak[16], dv[16] = {}, dk[16] = {};
        for (size_t b = 0; b < abits; b++) {
            av[b] = vp[ctx_->pMemAddr[b]];
            ak[b] = kp[ctx_->pMemAddr[b]];
        }
        if (active & ~wzero) {
            for (size_t b = 0; b < dbits; b++) {
                dv[b] = vp[ctx_->pMemWdata[b]];
                dk[b] = kp[ctx_->pMemWdata[b]];
            }
        }
        const uint64_t env = vp[ctx_->pMemEn];
        const uint64_t enk = kp[ctx_->pMemEn];
        const uint64_t w0v = vp[ctx_->pMemWen0];
        const uint64_t w0k = kp[ctx_->pMemWen0];
        const uint64_t w1v = vp[ctx_->pMemWen1];
        const uint64_t w1k = kp[ctx_->pMemWen1];
        auto logicAt = [](uint64_t v, uint64_t k, int l) {
            if (!((k >> l) & 1))
                return Logic::X;
            return ((v >> l) & 1) ? Logic::One : Logic::Zero;
        };
        forEachLane(active, [&](int l) {
            SWord addr, wdata;
            for (size_t b = 0; b < abits; b++) {
                addr.val |=
                    static_cast<uint16_t>(((av[b] >> l) & 1) << b);
                addr.known |=
                    static_cast<uint16_t>(((ak[b] >> l) & 1) << b);
            }
            if (!((wzero >> l) & 1)) {
                for (size_t b = 0; b < dbits; b++) {
                    wdata.val |=
                        static_cast<uint16_t>(((dv[b] >> l) & 1) << b);
                    wdata.known |=
                        static_cast<uint16_t>(((dk[b] >> l) & 1) << b);
                }
            }
            sampleMemory(env_[l], *progLane_[l], logicAt(env, enk, l),
                         logicAt(w0v, w0k, l), logicAt(w1v, w1k, l),
                         addr, wdata);
        });
    }
    sim_.latchSequential();
}

} // namespace bespoke
