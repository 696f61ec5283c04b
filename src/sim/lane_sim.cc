#include "src/sim/lane_sim.hh"

#include <cstdlib>
#include <cstring>
#include "src/isa/isa.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/**
 * Widest uint64 SIMD block one native vector register holds under the
 * enabled ISA. The eval kernel slices multi-word planes into blocks of
 * this many words; each block's temporaries are exactly one register,
 * so the kernel neither spills (whole-Plane temporaries at 256/512
 * bits overflow the register file) nor leaves lanes on the table when
 * BESPOKE_ENABLE_AVX2 / _AVX512 widen the vector unit.
 */
#if defined(__AVX512F__)
constexpr int kNativeVecWords = 8;
#elif defined(__AVX2__)
constexpr int kNativeVecWords = 4;
#else
constexpr int kNativeVecWords = 2;
#endif

/**
 * A block of NW lane words as a GCC vector: the bitwise Kleene plane
 * ops (pAnd & co.) instantiate directly over it, and codegen is one
 * SIMD op per connective independent of the optimizer's autovectorizer
 * mood. NW = 1 degrades to plain uint64_t (the 64-lane plane).
 */
template <int NW>
struct VecWords
{
    typedef uint64_t type __attribute__((vector_size(8 * NW)));
};
template <>
struct VecWords<1>
{
    using type = uint64_t;
};

} // namespace

template <int W>
LaneSimT<W>::LaneSimT(const Netlist &netlist,
                      std::shared_ptr<const SimPrep> prep)
    : nl_(netlist), prep_(std::move(prep)),
      val_(netlist.size()), known_(netlist.size()),
      forceMask_(netlist.size()), forceVal_(netlist.size())
{
    if (!prep_)
        prep_ = std::make_shared<const SimPrep>(netlist);
    bespoke_assert(prep_->posOf.size() == netlist.size(),
                   "SimPrep was built for a different netlist");
}

template <int W>
void
LaneSimT<W>::reset()
{
    const Mask ones = laneOnes<Mask>();
    for (GateId i = 0; i < nl_.size(); i++) {
        switch (nl_.gate(i).type) {
          case CellType::TIE0:
            val_[i] = Mask{};
            known_[i] = ones;
            break;
          case CellType::TIE1:
            val_[i] = ones;
            known_[i] = ones;
            break;
          default:
            val_[i] = Mask{};
            known_[i] = Mask{};
        }
    }
    for (GateId id : prep_->seqIds) {
        bool rv = nl_.gate(id).resetValue;
        val_[id] = rv ? ones : Mask{};
        known_[id] = ones;
    }
    clearAllForces();
}

template <int W>
void
LaneSimT<W>::setInput(GateId id, int lane, Logic v)
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

template <int W>
void
LaneSimT<W>::setInputAll(GateId id, Logic v)
{
    bespoke_assert(nl_.gate(id).type == CellType::INPUT,
                   "setInput on non-input gate ", id);
    if (v == Logic::X) {
        val_[id] = Mask{};
        known_[id] = Mask{};
    } else {
        known_[id] = laneOnes<Mask>();
        val_[id] = v == Logic::One ? laneOnes<Mask>() : Mask{};
    }
}

template <int W>
void
LaneSimT<W>::setInputPlanes(GateId id, const Mask &val, const Mask &known)
{
    bespoke_assert(nl_.gate(id).type == CellType::INPUT,
                   "setInput on non-input gate ", id);
    bespoke_assert(!laneAny(val & ~known),
                   "val plane not masked by known");
    val_[id] = val;
    known_[id] = known;
}

template <int W>
SWord
LaneSimT<W>::busWord(const std::vector<GateId> &bus_ids, int lane) const
{
    bespoke_assert(bus_ids.size() <= 16);
    SWord w;
    for (size_t i = 0; i < bus_ids.size(); i++)
        w.setBit(static_cast<int>(i), value(bus_ids[i], lane));
    return w;
}

template <int W>
void
LaneSimT<W>::evalComb()
{
    // The lane math runs on native-vector-sized blocks of words
    // (PlanesT over a GCC vector type): block temporaries are single
    // registers at every width, where whole-Plane expression
    // temporaries of the 256/512-bit widths would spill to the stack
    // and erase the amortization wide planes exist for.
    constexpr int kWords = W / 64;
    constexpr int kBlock =
        kWords < kNativeVecWords ? kWords : kNativeVecWords;
    constexpr int kBlocks = kWords / kBlock;
    using V = typename VecWords<kBlock>::type;
    using P = PlanesT<V>;
    const uint32_t *fanin = prep_->fanin.data();
    const GateId *order = prep_->order.data();
    Mask *val = val_.data();
    Mask *known = known_.data();

    auto loadv = [](const Mask &m, int blk) -> V {
        V v;
        std::memcpy(&v, reinterpret_cast<const uint64_t *>(&m) +
                            static_cast<size_t>(blk) * kBlock,
                    sizeof(V));
        return v;
    };
    auto storev = [](Mask &m, int blk, V v) {
        std::memcpy(reinterpret_cast<uint64_t *>(&m) +
                        static_cast<size_t>(blk) * kBlock,
                    &v, sizeof(V));
    };

    // One dispatch per same-opcode segment; the per-gate loops stay
    // branch-free (the force-overlay test folds to a constant false
    // while no forces are active). Values and evaluation order are
    // identical to a per-gate switch over the program positions.
#define BESPOKE_EVAL_RUN(expr)                                        \
    for (size_t i = pos; i < end; i++) {                              \
        const GateId id = order[i];                                   \
        const uint32_t *f = &fanin[3 * i];                            \
        (void)f;                                                      \
        const bool forced = anyForce_ && laneAny(forceMask_[id]);     \
        for (int j = 0; j < kBlocks; j++) {                           \
            auto get = [&](uint32_t g) -> P {                         \
                return {loadv(val[g], j), loadv(known[g], j)};        \
            };                                                        \
            (void)get;                                                \
            P out = (expr);                                           \
            if (forced) {                                             \
                const V fm = loadv(forceMask_[id], j);                \
                out.v = (out.v & ~fm) |                               \
                        (loadv(forceVal_[id], j) & fm);               \
                out.k |= fm;                                          \
            }                                                         \
            storev(val[id], j, out.v);                                \
            storev(known[id], j, out.k);                              \
        }                                                             \
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
            BESPOKE_EVAL_RUN((P{V{}, ~V{}}))
          case CellType::TIE1:
            BESPOKE_EVAL_RUN((P{~V{}, ~V{}}))
          default:
            bespoke_fatal("non-combinational cell in eval order");
        }
        pos = end;
    }
#undef BESPOKE_EVAL_RUN
    gateVisitsTotal_ += prep_->order.size();
}

template <int W>
void
LaneSimT<W>::latchSequential()
{
    using P = PlanesT<Mask>;
    // Two passes, like GateSim: all D inputs are read before any Q
    // changes so direct Q->D wires see the pre-edge value.
    size_t n = prep_->seqIds.size();
    latchNext_.resize(n);
    std::vector<P> &next = latchNext_;
    const SimPrep &p = *prep_;
    for (size_t i = 0; i < n; i++) {
        const GateId d_id = p.seqD[i];
        P d = {val_[d_id], known_[d_id]};
        if (p.seqEn[i] == SimPrep::kNone) {
            next[i] = d;
        } else {
            const GateId id = p.seqIds[i];
            const GateId en_id = p.seqEn[i];
            P q = {val_[id], known_[id]};
            P en = {val_[en_id], known_[en_id]};
            next[i] = pMux(q, d, en);
        }
    }
    for (size_t i = 0; i < n; i++) {
        GateId id = prep_->seqIds[i];
        val_[id] = next[i].v;
        known_[id] = next[i].k;
    }
}

template <int W>
void
LaneSimT<W>::force(GateId id, const Mask &lanes, const Mask &value)
{
    if (!laneAny(lanes))
        return;
    if (!laneAny(forceMask_[id]) && !laneAny(forceVal_[id]))
        forcedIds_.push_back(id);
    forceMask_[id] |= lanes;
    forceVal_[id] = (forceVal_[id] & ~lanes) | (value & lanes);
    anyForce_ = true;
}

template <int W>
void
LaneSimT<W>::clearForces(const Mask &lanes)
{
    size_t keep = 0;
    for (size_t i = 0; i < forcedIds_.size(); i++) {
        GateId id = forcedIds_[i];
        forceMask_[id] &= ~lanes;
        forceVal_[id] &= forceMask_[id];
        if (laneAny(forceMask_[id]))
            forcedIds_[keep++] = id;
        else
            forceVal_[id] = Mask{};
    }
    forcedIds_.resize(keep);
    anyForce_ = !forcedIds_.empty();
}

template <int W>
void
LaneSimT<W>::restoreSeqLane(int lane, const SeqState &s)
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

template <int W>
SeqState
LaneSimT<W>::seqStateLane(int lane) const
{
    SeqState s(prep_->seqIds.size());
    for (size_t i = 0; i < s.size(); i++)
        s[i] = static_cast<uint8_t>(value(prep_->seqIds[i], lane));
    return s;
}

template <int W>
void
LaneSimT<W>::laneValues(int lane, std::vector<uint8_t> &out) const
{
    out.resize(nl_.size());
    for (GateId id = 0; id < nl_.size(); id++)
        out[id] = static_cast<uint8_t>(value(id, lane));
}

template <int W>
void
ActivityTracker::observe(const LaneSimT<W> &sim, LaneMask<W> lanes)
{
    using Mask = LaneMask<W>;
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
        Mask iv = init[i] == static_cast<uint8_t>(Logic::One)
                      ? laneOnes<Mask>()
                      : Mask{};
        Mask ik = init[i] == static_cast<uint8_t>(Logic::X)
                      ? Mask{}
                      : laneOnes<Mask>();
        Mask diff = (sim.valPlane(i) ^ iv) |
                    (sim.knownPlane(i) ^ ik);
        if (laneAny(diff & lanes))
            tog[i] = 1;
        else
            lanePending_[keep++] = i;
    }
    lanePending_.resize(keep);
}

template <int W>
LaneSocT<W>::LaneSocT(std::shared_ptr<const SocContext> ctx,
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

template <int W>
void
LaneSocT<W>::setGpioIn(SWord w)
{
    for (size_t b = 0; b < gpioV_.size(); b++) {
        Logic v = w.bit(static_cast<int>(b));
        gpioV_[b] = v == Logic::One ? laneOnes<Mask>() : Mask{};
        gpioK_[b] = v == Logic::X ? Mask{} : laneOnes<Mask>();
    }
}

template <int W>
void
LaneSocT<W>::setGpioInLane(int lane, SWord w)
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

template <int W>
void
LaneSocT<W>::setIrqExt(Logic v)
{
    irqV_ = v == Logic::One ? laneOnes<Mask>() : Mask{};
    irqK_ = v == Logic::X ? Mask{} : laneOnes<Mask>();
}

template <int W>
void
LaneSocT<W>::setIrqExtLane(int lane, Logic v)
{
    if (v == Logic::X) {
        laneClear(irqV_, lane);
        laneClear(irqK_, lane);
    } else {
        laneSet(irqK_, lane);
        if (v == Logic::One)
            laneSet(irqV_, lane);
        else
            laneClear(irqV_, lane);
    }
}

template <int W>
void
LaneSocT<W>::loadLane(int lane, const SeqState &seq, const EnvState &env,
                      uint16_t last_fetch_pc)
{
    sim_.restoreSeqLane(lane, seq);
    env_[lane] = env;
    lastFetchPc_[lane] = last_fetch_pc;
}

template <int W>
void
LaneSocT<W>::evalOnly()
{
    // GPIO / IRQ planes are maintained by the setters; per-lane memory
    // read data is transposed into planes every cycle. The transpose
    // runs word-major, accumulating each 64-lane group in registers —
    // a read-modify-write of a W-bit plane per lane bit would dominate
    // the cycle at the wide plane widths.
    for (size_t b = 0; b < gpioV_.size(); b++)
        sim_.setInputPlanes(ctx_->pGpioIn[b], gpioV_[b], gpioK_[b]);
    sim_.setInputPlanes(ctx_->pIrqExt, irqV_, irqK_);
    const size_t dbits = ctx_->pMemRdata.size();
    bespoke_assert(dbits <= 16);
    constexpr int kWords = W / 64;
    std::array<Mask, 16> rv{}, rk{};
    for (int j = 0; j < kWords; j++) {
        uint64_t vw[16] = {}, kw[16] = {};
        for (int l = 0; l < 64; l++) {
            const SWord rd = env_[64 * j + l].rdata;
            for (size_t b = 0; b < dbits; b++) {
                vw[b] |= static_cast<uint64_t>((rd.val >> b) & 1) << l;
                kw[b] |= static_cast<uint64_t>((rd.known >> b) & 1)
                         << l;
            }
        }
        for (size_t b = 0; b < dbits; b++) {
            planeWord(rv[b], j) = vw[b];
            planeWord(rk[b], j) = kw[b];
        }
    }
    for (size_t b = 0; b < dbits; b++)
        sim_.setInputPlanes(ctx_->pMemRdata[b], rv[b], rk[b]);
    sim_.evalComb();
}

template <int W>
void
LaneSocT<W>::finishCycle(const Mask &lanes)
{
    // Plane-level skip masks: lanes whose memory port is provably idle
    // (en = wen0 = wen1 = 0) need no per-lane sampling at all, and
    // lanes that are definitely not writing skip the wdata bus
    // transpose — reads (every fetch is one) only need the address.
    const std::vector<Mask> &vp = sim_.valPlanes();
    const std::vector<Mask> &kp = sim_.knownPlanes();
    auto zeroMask = [&](GateId id) { return kp[id] & ~vp[id]; };
    const Mask wzero =
        zeroMask(ctx_->pMemWen0) & zeroMask(ctx_->pMemWen1);
    const Mask idle = zeroMask(ctx_->pMemEn) & wzero;
    const Mask active = lanes & ~idle;
    const size_t abits = ctx_->pMemAddr.size();
    const size_t dbits = ctx_->pMemWdata.size();
    bespoke_assert(abits <= 16 && dbits <= 16);
    constexpr int kWords = W / 64;
    for (int j = 0; j < kWords; j++) {
        const uint64_t aw = planeWord(active, j);
        if (!aw)
            continue;
        // Hoist word j of every bus plane once per 64-lane group; the
        // per-lane bus transpose then reads registers instead of
        // re-indexing W-bit planes bit by bit.
        uint64_t av[16], ak[16], dv[16] = {}, dk[16] = {};
        for (size_t b = 0; b < abits; b++) {
            av[b] = planeWord(vp[ctx_->pMemAddr[b]], j);
            ak[b] = planeWord(kp[ctx_->pMemAddr[b]], j);
        }
        const uint64_t wz = planeWord(wzero, j);
        if (aw & ~wz) {
            for (size_t b = 0; b < dbits; b++) {
                dv[b] = planeWord(vp[ctx_->pMemWdata[b]], j);
                dk[b] = planeWord(kp[ctx_->pMemWdata[b]], j);
            }
        }
        const uint64_t env = planeWord(vp[ctx_->pMemEn], j);
        const uint64_t enk = planeWord(kp[ctx_->pMemEn], j);
        const uint64_t w0v = planeWord(vp[ctx_->pMemWen0], j);
        const uint64_t w0k = planeWord(kp[ctx_->pMemWen0], j);
        const uint64_t w1v = planeWord(vp[ctx_->pMemWen1], j);
        const uint64_t w1k = planeWord(kp[ctx_->pMemWen1], j);
        auto logicAt = [](uint64_t v, uint64_t k, int l) {
            if (!((k >> l) & 1))
                return Logic::X;
            return ((v >> l) & 1) ? Logic::One : Logic::Zero;
        };
        uint64_t rem = aw;
        while (rem) {
            const int l = std::countr_zero(rem);
            rem &= rem - 1;
            const int lane = 64 * j + l;
            SWord addr, wdata;
            for (size_t b = 0; b < abits; b++) {
                addr.val |=
                    static_cast<uint16_t>(((av[b] >> l) & 1) << b);
                addr.known |=
                    static_cast<uint16_t>(((ak[b] >> l) & 1) << b);
            }
            if (!((wz >> l) & 1)) {
                for (size_t b = 0; b < dbits; b++) {
                    wdata.val |=
                        static_cast<uint16_t>(((dv[b] >> l) & 1) << b);
                    wdata.known |=
                        static_cast<uint16_t>(((dk[b] >> l) & 1) << b);
                }
            }
            sampleMemory(env_[lane], *progLane_[lane],
                         logicAt(env, enk, l), logicAt(w0v, w0k, l),
                         logicAt(w1v, w1k, l), addr, wdata);
        }
    }
    sim_.latchSequential();
}

template class LaneSimT<64>;
template class LaneSimT<128>;
template class LaneSimT<256>;
template class LaneSimT<512>;
template class LaneSocT<64>;
template class LaneSocT<128>;
template class LaneSocT<256>;
template class LaneSocT<512>;
template void ActivityTracker::observe<64>(const LaneSimT<64> &,
                                           LaneMask<64>);
template void ActivityTracker::observe<128>(const LaneSimT<128> &,
                                            LaneMask<128>);
template void ActivityTracker::observe<256>(const LaneSimT<256> &,
                                            LaneMask<256>);
template void ActivityTracker::observe<512>(const LaneSimT<512> &,
                                            LaneMask<512>);

} // namespace bespoke
