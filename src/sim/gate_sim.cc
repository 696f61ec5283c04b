#include "src/sim/gate_sim.hh"

#include <algorithm>
#include <cstring>

#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/**
 * 0x01 in every byte position of `x` holding a nonzero byte. Lets the
 * per-cycle observers compare gate-value arrays eight gates at a time
 * instead of byte-by-byte (the compiler does not vectorize the branchy
 * originals, and these loops run once per simulated cycle).
 */
inline uint64_t
nonzeroBytes(uint64_t x)
{
    uint64_t hi =
        ((x & 0x7f7f7f7f7f7f7f7fULL) + 0x7f7f7f7f7f7f7f7fULL) | x;
    return (hi >> 7) & 0x0101010101010101ULL;
}

} // namespace

GateSim::GateSim(const Netlist &netlist, EvalMode mode,
                 std::shared_ptr<const SimPrep> prep)
    : nl_(netlist), mode_(mode), prep_(std::move(prep)),
      val_(netlist.size(), static_cast<uint8_t>(Logic::X)),
      forced_(netlist.size(), 0)
{
    if (!prep_)
        prep_ = std::make_shared<const SimPrep>(netlist);
    bespoke_assert(prep_->isComb.size() == netlist.size(),
                   "SimPrep was built for a different netlist");

    if (mode_ == EvalMode::FullEval)
        return;
    buckets_.resize(prep_->numLevels);
    queued_.assign(netlist.size(), 0);
}

void
GateSim::markDirty(GateId id)
{
    if (!prep_->isComb[id] || queued_[id])
        return;
    queued_[id] = 1;
    buckets_[prep_->level[id]].push_back(id);
}

void
GateSim::markFanoutsDirty(GateId id)
{
    const SimPrep &p = *prep_;
    for (uint32_t i = p.foHead[id]; i < p.foHead[id + 1]; i++)
        markDirty(p.foData[i]);
}

void
GateSim::reset()
{
    for (GateId i = 0; i < nl_.size(); i++) {
        switch (nl_.gate(i).type) {
          case CellType::TIE0:
            val_[i] = static_cast<uint8_t>(Logic::Zero);
            break;
          case CellType::TIE1:
            val_[i] = static_cast<uint8_t>(Logic::One);
            break;
          default:
            val_[i] = static_cast<uint8_t>(Logic::X);
        }
    }
    for (GateId id : prep_->seqIds) {
        val_[id] = static_cast<uint8_t>(
            logicOf(nl_.gate(id).resetValue));
    }
    clearForces();
    if (mode_ == EvalMode::EventDriven) {
        // Every combinational value is stale; the next evalComb() runs
        // one full topological pass and drains any queued leftovers.
        fullPassPending_ = true;
    }
}

void
GateSim::setInput(GateId id, Logic v)
{
    bespoke_assert(nl_.gate(id).type == CellType::INPUT,
                   "setInput on non-input gate ", id);
    uint8_t nv = static_cast<uint8_t>(v);
    if (val_[id] == nv)
        return;
    val_[id] = nv;
    if (mode_ == EvalMode::EventDriven)
        markFanoutsDirty(id);
}

void
GateSim::setInputWord(const std::vector<GateId> &bus_ids, SWord w)
{
    bespoke_assert(bus_ids.size() <= 16);
    for (size_t i = 0; i < bus_ids.size(); i++)
        setInput(bus_ids[i], w.bit(static_cast<int>(i)));
}

SWord
GateSim::busWord(const std::vector<GateId> &bus_ids) const
{
    bespoke_assert(bus_ids.size() <= 16);
    SWord w;
    for (size_t i = 0; i < bus_ids.size(); i++)
        w.setBit(static_cast<int>(i), value(bus_ids[i]));
    return w;
}

void
GateSim::evalCombFull()
{
    // Compiled eval program: one table lookup per gate, no Netlist
    // access, no per-cell branching. The force check is hoisted out of
    // the common (no active forces) sweep.
    const uint8_t *lut = prep_->lut.data();
    const uint32_t *fanin = prep_->fanin.data();
    const uint8_t *op = prep_->opcode.data();
    uint8_t *val = val_.data();
    if (!anyForce_) {
        for (GateId id : prep_->order) {
            const uint32_t *f = &fanin[3 * id];
            unsigned idx = val[f[0]] * 9u + val[f[1]] * 3u + val[f[2]];
            val[id] = lut[(static_cast<unsigned>(op[id])
                           << SimPrep::kLutShift) |
                          idx];
        }
    } else {
        const uint8_t *forced = forced_.data();
        for (GateId id : prep_->order) {
            const uint32_t *f = &fanin[3 * id];
            unsigned idx = val[f[0]] * 9u + val[f[1]] * 3u + val[f[2]];
            uint8_t out = lut[(static_cast<unsigned>(op[id])
                               << SimPrep::kLutShift) |
                              idx];
            if (forced[id])
                out = forced[id] - 1;
            val[id] = out;
        }
    }
    gatesEvaluated_ = prep_->order.size();
    gatesEvaluatedTotal_ += prep_->order.size();
}

void
GateSim::evalCombEvent()
{
    if (fullPassPending_) {
        evalCombFull();
        for (std::vector<GateId> &bucket : buckets_) {
            for (GateId id : bucket)
                queued_[id] = 0;
            bucket.clear();
        }
        fullPassPending_ = false;
        return;
    }

    const uint8_t *lut = prep_->lut.data();
    const uint32_t *fanin = prep_->fanin.data();
    const uint8_t *op = prep_->opcode.data();
    uint8_t *val = val_.data();
    uint64_t evaluated = 0;
    for (std::vector<GateId> &bucket : buckets_) {
        // markFanoutsDirty() only appends to strictly higher levels
        // (consumers sit at least one level above their producer), so
        // this bucket is complete when the sweep reaches it.
        for (GateId id : bucket) {
            queued_[id] = 0;
            uint8_t nv;
            if (anyForce_ && forced_[id]) {
                nv = forced_[id] - 1;
            } else {
                const uint32_t *f = &fanin[3 * id];
                unsigned idx =
                    val[f[0]] * 9u + val[f[1]] * 3u + val[f[2]];
                nv = lut[(static_cast<unsigned>(op[id])
                          << SimPrep::kLutShift) |
                         idx];
            }
            evaluated++;
            if (val[id] != nv) {
                val[id] = nv;
                markFanoutsDirty(id);
            }
        }
        bucket.clear();
    }
    gatesEvaluated_ = evaluated;
    gatesEvaluatedTotal_ += evaluated;
}

void
GateSim::evalComb()
{
    if (mode_ == EvalMode::FullEval)
        evalCombFull();
    else
        evalCombEvent();
}

void
GateSim::latchSequential()
{
    const std::vector<Gate> &gates = nl_.gates();
    // Two passes so all D inputs are read before any Q changes; D nets
    // can be other flops' Q only through combinational gates, but a
    // direct Q->D wire is legal and must see the pre-edge value.
    std::vector<uint8_t> next(prep_->seqIds.size());
    for (size_t i = 0; i < prep_->seqIds.size(); i++) {
        GateId id = prep_->seqIds[i];
        const Gate &g = gates[id];
        Logic d = static_cast<Logic>(val_[g.in[0]]);
        Logic q = static_cast<Logic>(val_[id]);
        Logic out;
        if (g.type == CellType::DFF) {
            out = d;
        } else {
            Logic en = static_cast<Logic>(val_[g.in[1]]);
            out = logicMux(en, q, d);
        }
        next[i] = static_cast<uint8_t>(out);
    }
    bool event = mode_ == EvalMode::EventDriven;
    for (size_t i = 0; i < prep_->seqIds.size(); i++) {
        GateId id = prep_->seqIds[i];
        if (val_[id] == next[i])
            continue;
        val_[id] = next[i];
        if (event)
            markFanoutsDirty(id);
    }
}

void
GateSim::force(GateId id, Logic v)
{
    bespoke_assert(v != Logic::X, "cannot force X");
    uint8_t coded = static_cast<uint8_t>(v) + 1;
    if (forced_[id] == coded)
        return;
    if (forced_[id] == 0)
        forcedIds_.push_back(id);
    forced_[id] = coded;
    anyForce_ = true;
    if (mode_ == EvalMode::EventDriven)
        markDirty(id);
}

void
GateSim::clearForces()
{
    bool event = mode_ == EvalMode::EventDriven;
    for (GateId id : forcedIds_) {
        forced_[id] = 0;
        // The gate's output reverts to its combinational function on
        // the next evalComb(); re-evaluate it even though no fanin
        // changed.
        if (event)
            markDirty(id);
    }
    forcedIds_.clear();
    anyForce_ = false;
}

SeqState
GateSim::seqState() const
{
    SeqState s(prep_->seqIds.size());
    for (size_t i = 0; i < prep_->seqIds.size(); i++)
        s[i] = val_[prep_->seqIds[i]];
    return s;
}

void
GateSim::restoreSeqState(const SeqState &s)
{
    bespoke_assert(s.size() == prep_->seqIds.size());
    bool event = mode_ == EvalMode::EventDriven;
    for (size_t i = 0; i < prep_->seqIds.size(); i++) {
        GateId id = prep_->seqIds[i];
        if (val_[id] == s[i])
            continue;
        val_[id] = s[i];
        if (event)
            markFanoutsDirty(id);
    }
}

ActivityTracker::ActivityTracker(const Netlist &netlist)
    : nl_(&netlist), initial_(netlist.size(),
                             static_cast<uint8_t>(Logic::X)),
      toggled_(netlist.size(), 0)
{
}

void
ActivityTracker::captureInitial(const GateSim &sim)
{
    bespoke_assert(!initialCaptured_, "initial state captured twice");
    initial_ = sim.values();
    // A gate whose reset-time value is already X has no proven constant
    // value and must be treated as toggleable.
    for (size_t i = 0; i < initial_.size(); i++) {
        if (initial_[i] == static_cast<uint8_t>(Logic::X))
            toggled_[i] = 1;
    }
    initialCaptured_ = true;
}

void
ActivityTracker::observe(const GateSim &sim)
{
    bespoke_assert(initialCaptured_);
    const std::vector<uint8_t> &v = sim.values();
    const uint8_t *vp = v.data();
    const uint8_t *ip = initial_.data();
    uint8_t *tp = toggled_.data();
    const size_t n = v.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t xv, xi;
        std::memcpy(&xv, vp + i, 8);
        std::memcpy(&xi, ip + i, 8);
        const uint64_t d = nonzeroBytes(xv ^ xi);
        if (!d)
            continue;
        uint64_t xt;
        std::memcpy(&xt, tp + i, 8);
        xt |= d;
        std::memcpy(tp + i, &xt, 8);
    }
    for (; i < n; i++)
        tp[i] |= (vp[i] != ip[i]);
}

size_t
ActivityTracker::untoggledCellCount() const
{
    size_t n = 0;
    for (GateId i = 0; i < nl_->size(); i++) {
        if (!cellPseudo(nl_->gate(i).type) && !toggled_[i])
            n++;
    }
    return n;
}

void
ActivityTracker::mergeFrom(const ActivityTracker &other)
{
    bespoke_assert(other.nl_ == nl_ &&
                   other.toggled_.size() == toggled_.size(),
                   "merging trackers from different netlists");
    for (size_t i = 0; i < toggled_.size(); i++)
        toggled_[i] |= other.toggled_[i];
}

void
ActivityTracker::restore(std::vector<uint8_t> initial,
                         std::vector<uint8_t> toggled)
{
    bespoke_assert(initial.size() == nl_->size() &&
                   toggled.size() == nl_->size(),
                   "restoring tracker state of the wrong size");
    initial_ = std::move(initial);
    toggled_ = std::move(toggled);
    initialCaptured_ = true;
    // Restored toggle bits may be 0 where the list assumed 1.
    lanePendingValid_ = false;
}

ToggleCounter::ToggleCounter(const Netlist &netlist)
    : last_(netlist.size(), 0), counts_(netlist.size(), 0)
{
}

void
ToggleCounter::observe(const GateSim &sim)
{
    const std::vector<uint8_t> &v = sim.values();
    if (first_) {
        last_ = v;
        first_ = false;
        cycles_++;
        return;
    }
    const uint8_t *vp = v.data();
    uint8_t *lp = last_.data();
    const size_t n = v.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t xv, xl;
        std::memcpy(&xv, vp + i, 8);
        std::memcpy(&xl, lp + i, 8);
        if (xv == xl)
            continue;
        for (size_t b = i; b < i + 8; b++)
            counts_[b] += (vp[b] != lp[b]);
        std::memcpy(lp + i, &xv, 8);
    }
    for (; i < n; i++) {
        counts_[i] += (vp[i] != lp[i]);
        lp[i] = vp[i];
    }
    cycles_++;
}

void
ToggleCounter::ingestRun(const RunTrace &tr)
{
    if (tr.cycles == 0)
        return;  // never observed: a shared counter would not move
    bespoke_assert(tr.first.size() == counts_.size() &&
                       tr.last.size() == counts_.size(),
                   "run trace size mismatch");
    if (!first_) {
        // The transition a shared counter counts when this run's first
        // observe lands right after the previous run's last one.
        for (size_t i = 0; i < counts_.size(); i++)
            counts_[i] += (tr.first[i] != last_[i]);
    }
    last_ = tr.last;
    first_ = false;
    cycles_ += tr.cycles;
}

void
ToggleCounter::addCounts(const std::vector<uint64_t> &add)
{
    bespoke_assert(add.size() == counts_.size(), "count size mismatch");
    for (size_t i = 0; i < add.size(); i++)
        counts_[i] += add[i];
}

} // namespace bespoke
