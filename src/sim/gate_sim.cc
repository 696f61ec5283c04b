#include "src/sim/gate_sim.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/**
 * 0x01 in every byte position of `x` holding a nonzero byte. Lets the
 * activity tracker compare gate-value arrays eight gates at a time
 * instead of byte-by-byte (the compiler does not vectorize the branchy
 * original, and this loop runs once per simulated cycle).
 */
inline uint64_t
nonzeroBytes(uint64_t x)
{
    uint64_t hi =
        ((x & 0x7f7f7f7f7f7f7f7fULL) + 0x7f7f7f7f7f7f7f7fULL) | x;
    return (hi >> 7) & 0x0101010101010101ULL;
}

/** Source of GateSim change-log ids; 0 is never handed out. */
std::atomic<uint64_t> nextLogId{1};

} // namespace

GateSim::GateSim(const Netlist &netlist, EvalMode mode,
                 std::shared_ptr<const SimPrep> prep)
    : nl_(netlist), mode_(mode), prep_(std::move(prep)),
      val_(netlist.size(), static_cast<uint8_t>(Logic::X)),
      forced_(netlist.size(), 0),
      logId_(nextLogId.fetch_add(1, std::memory_order_relaxed))
{
    if (!prep_)
        prep_ = std::make_shared<const SimPrep>(netlist);
    bespoke_assert(prep_->posOf.size() == netlist.size(),
                   "SimPrep was built for a different netlist");
    latchNext_.resize(prep_->seqIds.size());

    if (mode_ == EvalMode::FullEval)
        return;
    dirty_.assign((prep_->order.size() + 63) / 64, 0);
}

GateSim::ObservePoint
GateSim::markObserved() const
{
    if (mode_ == EvalMode::EventDriven && inLog_.empty()) {
        log_.resize(val_.size());
        inLog_.assign(val_.size(), 0);
    }
    logRestart_ = true;
    return {logId_, logEpoch_ + 1};
}

GateSim::ChangeSink
GateSim::changeSink()
{
    if (logRestart_)
        restartLog();
    const SimPrep &p = *prep_;
    return {p.foHead.data(), p.foPos.data(), dirty_.data(),
            inLog_.empty() ? nullptr : inLog_.data(), log_.data(),
            logLen_};
}

void
GateSim::noteChange(GateId id)
{
    ChangeSink sink = changeSink();
    sink(id);
    logLen_ = sink.logLen;
}

void
GateSim::restartLog()
{
    for (uint32_t i = 0; i < logLen_; i++)
        inLog_[log_[i]] = 0;
    logLen_ = 0;
    logEpoch_++;
    logRestart_ = false;
}

void
GateSim::invalidateLog()
{
    restartLog();
    // Skip past the epoch a pending markObserved() promised, so no
    // observe point taken before now matches the new log.
    logEpoch_++;
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
        // one full topological pass and drops any queued leftovers.
        fullPassPending_ = true;
        invalidateLog();
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
        noteChange(id);
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
    // access, no per-cell branching. The force overlay is null while
    // no force is active.
    const SimPrep &p = *prep_;
    const uint8_t *lut = p.lut.data();
    const uint32_t *fanin = p.fanin.data();
    const uint8_t *op = p.opcode.data();
    const GateId *order = p.order.data();
    const size_t len = p.order.size();
    uint8_t *val = val_.data();
    const uint8_t *forced = anyForce_ ? forced_.data() : nullptr;
    for (size_t pos = 0; pos < len; pos++) {
        const uint32_t *f = &fanin[3 * pos];
        unsigned idx = val[f[0]] * 9u + val[f[1]] * 3u + val[f[2]];
        uint8_t out =
            lut[(static_cast<unsigned>(op[pos]) << SimPrep::kLutShift) |
                idx];
        if (forced && forced[order[pos]])
            out = forced[order[pos]] - 1;
        val[order[pos]] = out;
    }
    gatesEvaluated_ = len;
    gatesEvaluatedTotal_ += len;
}

void
GateSim::evalCombEvent()
{
    if (fullPassPending_) {
        evalCombFull();
        std::fill(dirty_.begin(), dirty_.end(), 0);
        fullPassPending_ = false;
        invalidateLog();
        return;
    }

    const SimPrep &p = *prep_;
    const uint8_t *lut = p.lut.data();
    const uint32_t *fanin = p.fanin.data();
    const uint8_t *op = p.opcode.data();
    const GateId *order = p.order.data();
    const uint8_t *forced = anyForce_ ? forced_.data() : nullptr;
    uint8_t *val = val_.data();
    // No observe point can be taken mid-sweep, so one sink serves the
    // whole eval.
    ChangeSink sink = changeSink();
    uint64_t *dirty = sink.dirty;
    const size_t words = dirty_.size();
    uint64_t evaluated = 0;
    for (size_t w = 0; w < words; w++) {
        // Re-read the word after every gate: a changed gate's
        // consumers sit at higher positions, possibly in this word.
        uint64_t bits;
        while ((bits = dirty[w]) != 0) {
            dirty[w] = bits & (bits - 1);
            const uint32_t pos =
                static_cast<uint32_t>(64 * w) +
                static_cast<uint32_t>(std::countr_zero(bits));
            const GateId id = order[pos];
            uint8_t nv;
            if (forced && forced[id]) {
                nv = forced[id] - 1;
            } else {
                const uint32_t *f = &fanin[3 * pos];
                unsigned idx =
                    val[f[0]] * 9u + val[f[1]] * 3u + val[f[2]];
                nv = lut[(static_cast<unsigned>(op[pos])
                          << SimPrep::kLutShift) |
                         idx];
            }
            evaluated++;
            if (val[id] != nv) {
                val[id] = nv;
                sink(id);
            }
        }
    }
    logLen_ = sink.logLen;
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
    const SimPrep &p = *prep_;
    const size_t nseq = p.seqIds.size();
    const GateId *seq = p.seqIds.data();
    const uint32_t *seq_d = p.seqD.data();
    const uint32_t *seq_en = p.seqEn.data();
    uint8_t *val = val_.data();
    uint8_t *next = latchNext_.data();
    // Two passes so all D inputs are read before any Q changes; D nets
    // can be other flops' Q only through combinational gates, but a
    // direct Q->D wire is legal and must see the pre-edge value.
    constexpr uint8_t kZero = static_cast<uint8_t>(Logic::Zero);
    constexpr uint8_t kOne = static_cast<uint8_t>(Logic::One);
    constexpr uint8_t kX = static_cast<uint8_t>(Logic::X);
    for (size_t i = 0; i < nseq; i++) {
        const uint8_t d = val[seq_d[i]];
        if (seq_en[i] == SimPrep::kNone) {
            next[i] = d;
            continue;
        }
        // logicMux(en, q, d): an unknown enable keeps only a value
        // that D and Q agree on.
        const uint8_t en = val[seq_en[i]];
        const uint8_t q = val[seq[i]];
        next[i] = en == kOne ? d : en == kZero ? q : d == q ? d : kX;
    }
    if (mode_ == EvalMode::FullEval) {
        for (size_t i = 0; i < nseq; i++)
            val[seq[i]] = next[i];
        return;
    }
    ChangeSink sink = changeSink();
    for (size_t i = 0; i < nseq; i++) {
        if (val[seq[i]] == next[i])
            continue;
        val[seq[i]] = next[i];
        sink(seq[i]);
    }
    logLen_ = sink.logLen;
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
    const uint32_t pos = prep_->posOf[id];
    if (mode_ == EvalMode::EventDriven && pos != SimPrep::kNone)
        markDirty(pos);
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
        const uint32_t pos = prep_->posOf[id];
        if (event && pos != SimPrep::kNone)
            markDirty(pos);
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
            noteChange(id);
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
ValueMirror::assign(std::vector<uint8_t> v)
{
    values_ = std::move(v);
    primed_ = true;
    point_ = {};
}

ToggleCounter::ToggleCounter(const Netlist &netlist)
    : last_(netlist.size()), counts_(netlist.size(), 0)
{
}

void
ToggleCounter::ingestRun(const RunTrace &tr)
{
    if (tr.cycles == 0)
        return;  // never observed: a shared counter would not move
    bespoke_assert(tr.first.size() == counts_.size() &&
                       tr.last.size() == counts_.size(),
                   "run trace size mismatch");
    if (last_.primed()) {
        // The transition a shared counter counts when this run's first
        // observe lands right after the previous run's last one.
        const std::vector<uint8_t> &last = last_.values();
        for (size_t i = 0; i < counts_.size(); i++)
            counts_[i] += (tr.first[i] != last[i]);
    }
    last_.assign(tr.last);
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
