#include "src/sat/encode.hh"

#include <algorithm>

#include "src/isa/isa.hh"
#include "src/util/logging.hh"

namespace bespoke::sat
{

Lit
Tseitin::conj(std::span<const Lit> ins, bool negate)
{
    // Scratch copy with one spare slot for the output literal of the
    // long clause below.
    Lit stack[kStackFanin + 1];
    std::vector<Lit> heap;
    Lit *xs = stack;
    if (ins.size() > kStackFanin) {
        heap.resize(ins.size() + 1);
        xs = heap.data();
    }
    size_t n = ins.size();
    for (size_t i = 0; i < n; i++)
        xs[i] = negate ? ~ins[i] : ins[i];

    // Sort, then drop constants-true and repeats in place; a false
    // input or a complementary pair folds the whole AND.
    std::sort(xs, xs + n);
    size_t m = 0;
    for (size_t i = 0; i < n; i++) {
        Lit l = xs[i];
        if (l == kTrue)
            continue;
        if (l == kFalse)
            return kFalse;
        if (m > 0 && xs[m - 1] == l)
            continue;
        if (m > 0 && xs[m - 1] == ~l)
            return kFalse;  // x AND NOT x
        xs[m++] = l;
    }
    if (m == 0)
        return kTrue;
    if (m == 1)
        return xs[0];
    Lit g = fresh();
    for (size_t i = 0; i < m; i++)
        sink_.binary(~g, xs[i]);
    // Long clause (g, ~x0, ~x1, ...), built in place.
    for (size_t i = m; i > 0; i--)
        xs[i] = ~xs[i - 1];
    xs[0] = g;
    sink_.addClause(xs, m + 1);
    return g;
}

Lit
Tseitin::xorL(Lit a, Lit b)
{
    if (a == kTrue)
        return ~b;
    if (a == kFalse)
        return b;
    if (b == kTrue)
        return ~a;
    if (b == kFalse)
        return a;
    if (a == b)
        return kFalse;
    if (a == ~b)
        return kTrue;
    Lit g = fresh();
    sink_.ternary(~g, a, b);
    sink_.ternary(~g, ~a, ~b);
    sink_.ternary(g, ~a, b);
    sink_.ternary(g, a, ~b);
    return g;
}

Lit
Tseitin::muxL(Lit sel, Lit a0, Lit a1)
{
    if (sel == kTrue)
        return a1;
    if (sel == kFalse)
        return a0;
    if (a0 == a1)
        return a0;
    if (a0 == ~a1)
        return xorL(sel, a0);  // sel=0 -> a0, sel=1 -> ~a0
    if (a1 == kTrue)
        return orL(sel, a0);
    if (a1 == kFalse)
        return andL(~sel, a0);
    if (a0 == kTrue)
        return orL(~sel, a1);
    if (a0 == kFalse)
        return andL(sel, a1);
    Lit g = fresh();
    sink_.ternary(~sel, ~a1, g);
    sink_.ternary(~sel, a1, ~g);
    sink_.ternary(sel, ~a0, g);
    sink_.ternary(sel, a0, ~g);
    return g;
}

void
encodeCombFrame(const Netlist &nl, const std::vector<GateId> &order,
                Tseitin &ts, std::vector<Lit> *vals)
{
    bespoke_assert(vals->size() == nl.size());
    std::vector<Lit> &v = *vals;
    for (GateId id = 0; id < nl.size(); id++) {
        CellType t = nl.gate(id).type;
        if (t == CellType::TIE0)
            v[id] = kFalse;
        else if (t == CellType::TIE1)
            v[id] = kTrue;
    }
    for (GateId id : order) {
        const Gate &g = nl.gate(id);
        Lit a = g.in[0] != kNoGate ? v[g.in[0]] : kFalse;
        Lit b = g.in[1] != kNoGate ? v[g.in[1]] : kFalse;
        Lit c = g.in[2] != kNoGate ? v[g.in[2]] : kFalse;
        switch (g.type) {
          case CellType::OUTPUT:
          case CellType::BUF:
            v[id] = a;
            break;
          case CellType::INV:
            v[id] = ~a;
            break;
          case CellType::AND2:
            v[id] = ts.andL(a, b);
            break;
          case CellType::AND3:
            v[id] = ts.andL(a, b, c);
            break;
          case CellType::OR2:
            v[id] = ts.orL(a, b);
            break;
          case CellType::OR3:
            v[id] = ts.orL(a, b, c);
            break;
          case CellType::NAND2:
            v[id] = ~ts.andL(a, b);
            break;
          case CellType::NAND3:
            v[id] = ~ts.andL(a, b, c);
            break;
          case CellType::NOR2:
            v[id] = ~ts.orL(a, b);
            break;
          case CellType::NOR3:
            v[id] = ~ts.orL(a, b, c);
            break;
          case CellType::XOR2:
            v[id] = ts.xorL(a, b);
            break;
          case CellType::XNOR2:
            v[id] = ~ts.xorL(a, b);
            break;
          case CellType::MUX2:
            v[id] = ts.muxL(c, a, b);
            break;
          case CellType::AOI21:
            v[id] = ~ts.orL(ts.andL(a, b), c);
            break;
          case CellType::OAI21:
            v[id] = ~ts.andL(ts.orL(a, b), c);
            break;
          default:
            bespoke_panic("encodeCombFrame: unexpected cell in order: ",
                          static_cast<int>(g.type));
        }
    }
}

SocUnroller::SocUnroller(const Netlist &nl, const AsmProgram &prog,
                         CnfSink &sink)
    : prog_(prog), ts_(sink), leader_(nl)
{
    ram_.assign(kRamSize / 2, MemWord{});
}

void
SocUnroller::attachFollower(const Netlist &other)
{
    bespoke_assert(frames_ == 0,
                   "attachFollower must precede the first addFrame");
    follower_ = std::make_unique<Design>(other);
}

SocUnroller::Design::Design(const Netlist &netlist)
    : nl(netlist), ports(netlist), order(netlist.levelize()),
      seqIds(netlist.sequentialIds())
{
    // Every INPUT the memory model and the shared stimulus do not
    // drive gets a fresh free variable per frame, in ascending id order.
    std::vector<uint8_t> driven(nl.size(), 0);
    for (int b = 0; b < 16; b++) {
        driven[ports.pMemRdata[b]] = 1;
        driven[ports.pGpioIn[b]] = 1;
    }
    driven[ports.pIrqExt] = 1;
    for (GateId id : nl.inputIds()) {
        if (!driven[id])
            otherInputs.push_back(id);
    }
}

Lit
SocUnroller::freeVar(FreeVarInfo::Kind kind, int frame, uint32_t index,
                     uint32_t bit)
{
    Var v = ts_.sink().newVar();
    free_.push_back({kind, frame, index, bit, v});
    return mkLit(v);
}

void
SocUnroller::driveAndEval(Design *d, int frame,
                          const std::array<Lit, 16> &gpio, Lit irq)
{
    const SocPorts &c = d->ports;
    d->vals.emplace_back(d->nl.size(), kFalse);
    std::vector<Lit> &v = d->vals.back();
    for (size_t i = 0; i < d->seqIds.size(); i++)
        v[d->seqIds[i]] = d->nextState[i];
    for (int b = 0; b < 16; b++) {
        v[c.pMemRdata[b]] = rdata_[b];
        v[c.pGpioIn[b]] = gpio[b];
    }
    v[c.pIrqExt] = irq;
    for (GateId id : d->otherInputs)
        v[id] = freeVar(FreeVarInfo::Kind::OtherInput, frame, id, 0);
    encodeCombFrame(d->nl, d->order, ts_, &v);
}

void
SocUnroller::trackWord(uint32_t word_idx)
{
    MemWord &w = ram_[word_idx];
    if (w.st == MemWord::St::Tracked)
        return;
    // A word in Init or Untracked state holds some definite but unknown
    // value; materializing it as fresh variables keeps repeated reads
    // consistent (and replayable as initial contents when pre-havoc).
    FreeVarInfo::Kind kind = w.st == MemWord::St::Init
                                 ? FreeVarInfo::Kind::RamInit
                                 : FreeVarInfo::Kind::MemFresh;
    for (uint32_t b = 0; b < 16; b++)
        w.bits[b] = freeVar(kind, frames_, word_idx, b);
    w.st = MemWord::St::Tracked;
}

std::array<Lit, 16>
SocUnroller::symbolicRomRead(const std::array<Lit, 16> &addr)
{
    // Word index = addr bits 11..1 (bit 0 ignored: word-aligned reads,
    // top nibble pinned to 0xF by the caller's isRom guard). The ROM
    // image defaults to 0xff fill, so only words differing from 0xffff
    // need a comparator; result bit b is the NOR of the address
    // comparators of words whose bit b is zero.
    std::vector<std::vector<Lit>> zeros(16);
    for (uint32_t k = 0; k < kRomSize / 2; k++) {
        uint16_t w = prog_.romWord(static_cast<uint16_t>(kRomBase + 2 * k));
        if (w == 0xffff)
            continue;
        std::array<Lit, 11> conj;
        for (int bi = 0; bi < 11; bi++) {
            Lit abit = addr[1 + bi];
            conj[bi] = ((k >> bi) & 1) ? abit : ~abit;
        }
        Lit eq = ts_.andL(conj);
        for (int b = 0; b < 16; b++) {
            if (!((w >> b) & 1))
                zeros[b].push_back(eq);
        }
    }
    std::array<Lit, 16> out;
    for (int b = 0; b < 16; b++)
        out[b] = ~ts_.orL(zeros[b]);
    return out;
}

std::array<Lit, 16>
SocUnroller::readData(const std::array<Lit, 16> &addr)
{
    bool addr_const = true;
    uint16_t a = 0;
    for (int b = 0; b < 16; b++) {
        if (!isConstLit(addr[b])) {
            addr_const = false;
            break;
        }
        if (addr[b] == kTrue)
            a = static_cast<uint16_t>(a | (1u << b));
    }
    std::array<Lit, 16> data;
    if (addr_const) {
        a = static_cast<uint16_t>(a & ~1u);
        if (isRomAddr(a)) {
            uint16_t w = prog_.romWord(a);
            for (int b = 0; b < 16; b++)
                data[b] = ((w >> b) & 1) ? kTrue : kFalse;
        } else if (isRamAddr(a)) {
            uint32_t wi = (a - kRamBase) >> 1;
            trackWord(wi);
            data = ram_[wi].bits;
        } else {
            // Peripheral space is routed inside the netlist; the
            // simulator presents X — model as unconstrained.
            for (int b = 0; b < 16; b++)
                data[b] = freeVar(FreeVarInfo::Kind::MemFresh, frames_,
                                  a, b);
        }
    } else {
        const Lit top[] = {addr[15], addr[14], addr[13], addr[12]};
        Lit isrom = ts_.andL(top);
        std::array<Lit, 16> rom = symbolicRomRead(addr);
        for (int b = 0; b < 16; b++) {
            Lit f = freeVar(FreeVarInfo::Kind::MemFresh, frames_,
                            0xffffffffu, b);
            data[b] = ts_.muxL(isrom, f, rom[b]);
        }
    }
    return data;
}

void
SocUnroller::stepMemory(const Design &d, int frame)
{
    const SocPorts &c = d.ports;
    const std::vector<Lit> &v = d.vals[frame];
    Lit en = v[c.pMemEn];
    Lit wen0 = v[c.pMemWen0];
    Lit wen1 = v[c.pMemWen1];
    std::array<Lit, 16> addr, wdata;
    for (int b = 0; b < 16; b++) {
        addr[b] = v[c.pMemAddr[b]];
        wdata[b] = v[c.pMemWdata[b]];
    }
    Lit wl0 = ts_.andL(en, wen0);
    Lit wl1 = ts_.andL(en, wen1);

    bool addr_const = true;
    uint16_t a = 0;
    for (int b = 0; b < 16; b++) {
        if (!isConstLit(addr[b])) {
            addr_const = false;
            break;
        }
        if (addr[b] == kTrue)
            a = static_cast<uint16_t>(a | (1u << b));
    }

    // --- Writes (byte lanes), mirroring sampleMemory(). ---
    if (wl0 != kFalse || wl1 != kFalse) {
        if (!addr_const) {
            // Unknown destination: every word may have been written.
            for (MemWord &w : ram_)
                w.st = MemWord::St::Untracked;
            havocked_ = true;
        } else if (isRamAddr(a)) {
            uint32_t wi = (a - kRamBase) >> 1;
            if (wl0 == kTrue && wl1 == kTrue) {
                ram_[wi].bits = wdata;
                ram_[wi].st = MemWord::St::Tracked;
            } else {
                trackWord(wi);
                MemWord &w = ram_[wi];
                for (int lane = 0; lane < 2; lane++) {
                    Lit wl = lane ? wl1 : wl0;
                    if (wl == kFalse)
                        continue;
                    for (int b = lane * 8; b < lane * 8 + 8; b++) {
                        w.bits[b] = wl == kTrue
                                        ? wdata[b]
                                        : ts_.muxL(wl, w.bits[b],
                                                   wdata[b]);
                    }
                }
            }
        }
        // Peripheral registers live inside the netlist; ROM/unmapped
        // writes are ignored — exactly the simulator's behavior.
    }

    // --- Reads (synchronous, data presented next cycle). ---
    Lit r = ts_.andL(en, ~wen0, ~wen1);
    if (r == kFalse)
        return;  // rdata holds
    std::array<Lit, 16> data = readData(addr);
    for (int b = 0; b < 16; b++)
        rdata_[b] = ts_.muxL(r, rdata_[b], data[b]);
}

void
SocUnroller::addFrame()
{
    int f = frames_;
    if (f == 0) {
        for (uint32_t b = 0; b < 16; b++)
            rdata_[b] = freeVar(FreeVarInfo::Kind::InitRdata, 0, 0, b);
        Design *designs[2] = {&leader_, follower_.get()};
        for (Design *d : designs) {
            if (!d)
                continue;
            d->nextState.resize(d->seqIds.size());
            for (size_t i = 0; i < d->seqIds.size(); i++) {
                d->nextState[i] =
                    d->nl.gate(d->seqIds[i]).resetValue ? kTrue : kFalse;
            }
        }
    }
    std::array<Lit, 16> gpio;
    for (uint32_t b = 0; b < 16; b++)
        gpio[b] = freeVar(FreeVarInfo::Kind::GpioIn, f, 0, b);
    Lit irq = freeVar(FreeVarInfo::Kind::IrqExt, f, 0, 0);

    driveAndEval(&leader_, f, gpio, irq);
    if (follower_)
        driveAndEval(follower_.get(), f, gpio, irq);

    stepMemory(leader_, f);

    Design *designs[2] = {&leader_, follower_.get()};
    for (Design *d : designs) {
        if (!d)
            continue;
        const std::vector<Lit> &v = d->vals[f];
        for (size_t i = 0; i < d->seqIds.size(); i++) {
            GateId id = d->seqIds[i];
            const Gate &g = d->nl.gate(id);
            Lit dv = v[g.in[0]];
            Lit q = v[id];
            d->nextState[i] = g.type == CellType::DFF
                                  ? dv
                                  : ts_.muxL(v[g.in[1]], q, dv);
        }
    }
    frames_++;
}

} // namespace bespoke::sat
