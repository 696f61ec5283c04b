#include "src/analysis/path_explorer.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "src/sim/lane_sim.hh"
#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

namespace
{

/** Decision kinds, part of the conservative-table key. */
enum class DecKind : uint8_t
{
    Branch = 0,
    Irq0,
    Irq1,
    CtlXfer,
};

uint32_t
tableKey(uint16_t pc, DecKind kind)
{
    return (static_cast<uint32_t>(pc) << 2) |
           static_cast<uint32_t>(kind);
}

/**
 * Plane evaluator (the default): a batch's lanes advance together in
 * one LaneSoc sweep, each gate visit evaluating all 64 at once.
 */
class PlaneLanes
{
  public:
    PlaneLanes(const std::shared_ptr<const SocContext> &soc,
               const AsmProgram &prog, const AnalysisOptions &opts)
        : ls_(soc, prog)
    {
        ls_.setGpioIn(SWord::allX());
        ls_.setIrqExt(opts.irqLineUnknown ? Logic::X : Logic::Zero);
    }

    void load(int lane, const MachineState &s)
    {
        ls_.loadLane(lane, s.seq, s.env, s.lastFetchPc);
    }
    MachineState capture(int lane) const
    {
        MachineState s;
        s.seq = ls_.seqLane(lane);
        s.env = ls_.envLane(lane);
        s.lastFetchPc = ls_.lastFetchPc(lane);
        return s;
    }
    uint16_t lastFetchPc(int lane) const { return ls_.lastFetchPc(lane); }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        ls_.setLastFetchPc(lane, pc);
    }
    SWord pc(int lane) const { return ls_.pc(lane); }

    /** Evaluate the cycle and observe the `active` lanes' toggles. */
    void eval(uint64_t active, ActivityTracker &tracker)
    {
        ls_.evalOnly();
        tracker.observe(ls_.sim(), active);
    }
    uint64_t fetchOneMask() const { return ls_.stFetchOneMask(); }
    uint64_t decisionXMask() const { return ls_.decisionXMask(); }
    uint64_t ctlXferOneMask() const { return ls_.ctlXferOneMask(); }
    uint64_t ctlXferXMask() const { return ls_.ctlXferXMask(); }
    void finishCycle(uint64_t active) { ls_.finishCycle(active); }
    uint64_t gatesEvaluated() const { return ls_.sim().gateVisitsTotal(); }

  private:
    LaneSoc ls_;
};

/**
 * Reference evaluator (laneWidth 1): one scalar Soc per lane, advanced
 * in lane order on the options' GateSim mode, so FullEval stays the
 * oracle for the whole schedule. Socs are built on first use.
 */
class ScalarLanes
{
  public:
    ScalarLanes(const std::shared_ptr<const SocContext> &soc,
                const AsmProgram &prog, const AnalysisOptions &opts)
        : soc_(soc), prog_(prog), opts_(opts)
    {
    }

    void load(int lane, const MachineState &s)
    {
        std::unique_ptr<Soc> &soc = socs_[lane];
        if (!soc) {
            soc = std::make_unique<Soc>(soc_, prog_, /*ram_unknown=*/true,
                                        opts_.simMode);
            soc->setGpioIn(SWord::allX());
            soc->setIrqExt(opts_.irqLineUnknown ? Logic::X : Logic::Zero);
        }
        soc->sim().restoreSeqState(s.seq);
        soc->restoreEnvState(s.env);
        lastFetchPc_[lane] = s.lastFetchPc;
    }
    MachineState capture(int lane) const
    {
        MachineState s;
        s.seq = socs_[lane]->sim().seqState();
        s.env = socs_[lane]->envState();
        s.lastFetchPc = lastFetchPc_[lane];
        return s;
    }
    uint16_t lastFetchPc(int lane) const { return lastFetchPc_[lane]; }
    void setLastFetchPc(int lane, uint16_t pc) { lastFetchPc_[lane] = pc; }
    SWord pc(int lane) const { return socs_[lane]->pc(); }

    void eval(uint64_t active, ActivityTracker &tracker)
    {
        fetchOne_ = decisionX_ = xferOne_ = xferX_ = 0;
        forEachLane(active, [&](int lane) {
            Soc &soc = *socs_[lane];
            soc.evalOnly();
            tracker.observe(soc.sim());
            if (soc.stFetch() == Logic::One)
                laneSet(fetchOne_, lane);
            if (soc.decIrq0() == Logic::X || soc.decIrq1() == Logic::X ||
                soc.decBranch() == Logic::X)
                laneSet(decisionX_, lane);
            if (soc.ctlXfer() == Logic::One)
                laneSet(xferOne_, lane);
            else if (soc.ctlXfer() == Logic::X)
                laneSet(xferX_, lane);
        });
    }
    uint64_t fetchOneMask() const { return fetchOne_; }
    uint64_t decisionXMask() const { return decisionX_; }
    uint64_t ctlXferOneMask() const { return xferOne_; }
    uint64_t ctlXferXMask() const { return xferX_; }
    void finishCycle(uint64_t active)
    {
        forEachLane(active, [&](int lane) { socs_[lane]->finishCycle(); });
    }
    uint64_t gatesEvaluated() const
    {
        uint64_t n = 0;
        for (const std::unique_ptr<Soc> &soc : socs_)
            n += soc ? soc->sim().gatesEvaluatedTotal() : 0;
        return n;
    }

  private:
    const std::shared_ptr<const SocContext> &soc_;
    const AsmProgram &prog_;
    const AnalysisOptions &opts_;
    std::array<std::unique_ptr<Soc>, PathExplorer::kBatchLanes> socs_;
    std::array<uint16_t, PathExplorer::kBatchLanes> lastFetchPc_{};
    uint64_t fetchOne_{}, decisionX_{}, xferOne_{}, xferX_{};
};

} // namespace

PathExplorer::PathExplorer(const Netlist &netlist, const AsmProgram &prog,
                           const AnalysisOptions &opts)
    : socCtx_(SocContext::make(netlist)), prog_(prog), opts_(opts),
      lanes_(resolveAnalysisLanes(opts)), haltAddrs_(haltAddresses(prog)),
      frontier_(opts),
      soc_(socCtx_, prog, /*ram_unknown=*/true, opts.simMode),
      tracker_(socCtx_->netlist)
{
    std::sort(haltAddrs_.begin(), haltAddrs_.end());
}

void
PathExplorer::run()
{
    soc_.setGpioIn(SWord::allX());
    soc_.setIrqExt(opts_.irqLineUnknown ? Logic::X : Logic::Zero);
    soc_.reset();
    tracker_.captureInitial(soc_.sim());
    MachineState init = capture();
    init.lastFetchPc = 0;
    frontier_.push(WorkItem{std::move(init), 0});

    if (lanes_ == 1)
        runBatches<ScalarLanes>();
    else
        runBatches<PlaneLanes>();
}

bool
PathExplorer::isHaltPc(uint16_t pc) const
{
    return std::binary_search(haltAddrs_.begin(), haltAddrs_.end(), pc);
}

uint64_t
PathExplorer::gatesEvaluated() const
{
    return soc_.sim().gatesEvaluatedTotal() + laneGateVisits_;
}

MachineState
PathExplorer::capture() const
{
    MachineState s;
    s.seq = soc_.sim().seqState();
    s.env = soc_.envState();
    s.lastFetchPc = lastFetchPc_;
    return s;
}

void
PathExplorer::restore(const MachineState &s)
{
    soc_.sim().restoreSeqState(s.seq);
    soc_.restoreEnvState(s.env);
    lastFetchPc_ = s.lastFetchPc;
}

std::optional<PathExplorer::XDec>
PathExplorer::firstXDecision() const
{
    if (soc_.decIrq0() == Logic::X) {
        return XDec{soc_.decIrq0Net(),
                    static_cast<uint8_t>(DecKind::Irq0)};
    }
    if (soc_.decIrq1() == Logic::X) {
        return XDec{soc_.decIrq1Net(),
                    static_cast<uint8_t>(DecKind::Irq1)};
    }
    if (soc_.decBranch() == Logic::X) {
        return XDec{soc_.decBranchNet(),
                    static_cast<uint8_t>(DecKind::Branch)};
    }
    return std::nullopt;
}

/**
 * Resolve X decisions for the current (already evaluated) cycle.
 * Returns false if the whole path was pruned at a merge point;
 * returns true with `forked` set if continuations were pushed.
 */
bool
PathExplorer::resolveDecisions(bool &forked)
{
    forked = false;
    auto d = firstXDecision();
    if (!d)
        return true;

    // Merge-check at the fork point.
    MachineState cur = capture();
    bool widened;
    if (frontier_.mergePoint(
            tableKey(lastFetchPc_, static_cast<DecKind>(d->kind)), cur,
            widened)) {
        return false;
    }
    if (widened) {
        restore(cur);
        soc_.evalOnly();
        tracker_.observe(soc_.sim());
    }

    // Fork: explore both decision values (recursively resolving
    // any further X decisions under each forcing).
    forks_++;
    forked = true;
    forkRec(cur, {});
    return true;
}

/**
 * Recursive forcing over the X decisions of this one cycle.
 * Invariant: with `forces` applied, evaluation leaves at least one
 * decision net at X.
 */
void
PathExplorer::forkRec(const MachineState &pre,
                      const std::vector<std::pair<GateId, Logic>> &forces)
{
    for (Logic v : {Logic::Zero, Logic::One}) {
        restore(pre);
        soc_.sim().clearForces();
        for (auto [g, val] : forces)
            soc_.sim().force(g, val);
        soc_.evalOnly();
        auto d = firstXDecision();
        bespoke_assert(d, "fork invariant violated");
        soc_.sim().force(d->net, v);
        soc_.evalOnly();
        tracker_.observe(soc_.sim());
        if (firstXDecision()) {
            std::vector<std::pair<GateId, Logic>> f = forces;
            f.push_back({d->net, v});
            soc_.sim().clearForces();
            forkRec(pre, f);
            continue;
        }
        // Decision complete: finish the cycle and enqueue the
        // post-latch continuation state.
        soc_.finishCycle();
        frontier_.chargeCycles(1);
        soc_.sim().clearForces();
        frontier_.push(WorkItem{capture(), curDepth_ + 1});
    }
}

/**
 * Fetch-time PC with X bits: fork one continuation per concrete
 * candidate (known bits fixed, X bits enumerated), keeping only
 * candidates that are instruction heads of the binary. Patching
 * only the PC while the correlated state stays X is a sound
 * over-approximation.
 */
void
PathExplorer::enumerateSymbolicPc(SWord pc, const MachineState &base,
                                  uint32_t depth)
{
    const std::vector<int> &pc_seq_index = socCtx_->pcSeqIndex;
    int x_bits = 0;
    for (int b = 0; b < 16; b++) {
        if (pc.bit(b) == Logic::X) {
            x_bits++;
            bespoke_assert(pc_seq_index[b] >= 0,
                           "X PC bit ", b,
                           " is not a flop output; cannot "
                           "enumerate");
        }
    }
    auto push_candidate = [&](uint16_t cand) {
        // Candidate must be a real instruction head.
        if ((cand & 1) || !prog_.addrToLine.count(cand))
            return;
        MachineState s = base;
        for (int b = 0; b < 16; b++) {
            s.seq[pc_seq_index[b]] = static_cast<uint8_t>(
                (cand >> b) & 1 ? Logic::One : Logic::Zero);
        }
        s.lastFetchPc = cand;
        frontier_.push(WorkItem{std::move(s), depth + 1});
    };

    if (x_bits <= 8) {
        for (uint32_t combo = 0; combo < (1u << x_bits); combo++) {
            uint16_t cand = pc.val;
            int xi = 0;
            for (int b = 0; b < 16; b++) {
                if (pc.bit(b) != Logic::X)
                    continue;
                if (combo & (1u << xi))
                    cand |= static_cast<uint16_t>(1u << b);
                xi++;
            }
            push_candidate(cand);
        }
    } else {
        // Wide X PC (e.g. a fully merged return address): every
        // instruction head consistent with the known bits is a
        // possible successor.
        for (const auto &[addr, line] : prog_.addrToLine) {
            if (((addr ^ pc.val) & pc.known) == 0)
                push_candidate(addr);
        }
    }
}

void
PathExplorer::runPath(const MachineState &start)
{
    restore(start);
    while (true) {
        if (frontier_.cycleBudgetSpent()) {
            // Abandoning the path is only sound as a capped result,
            // even when the stack holds nothing more.
            frontier_.declareCap();
            return;
        }
        soc_.evalOnly();
        tracker_.observe(soc_.sim());

        // Track instruction boundaries and halting.
        if (soc_.stFetch() == Logic::One) {
            SWord pc = soc_.pc();
            if (!pc.fullyKnown()) {
                // Algorithm 1, line 29: enumerate the possible
                // concrete PCs (e.g. a merged return address on
                // the stack) and fork the tree per candidate.
                enumerateSymbolicPc(pc, capture(), curDepth_);
                return;
            }
            lastFetchPc_ = pc.val;
            if (isHaltPc(pc.val)) {
                // Observe the steady halt loop, then end the path.
                for (int i = 0; i < 6; i++) {
                    soc_.finishCycle();
                    frontier_.chargeCycles(1);
                    soc_.evalOnly();
                    tracker_.observe(soc_.sim());
                }
                return;
            }
        }

        bool forked = false;
        if (!resolveDecisions(forked))
            return;  // pruned
        if (forked)
            return;  // continuations pushed

        // Known control transfer: conservative-table discipline.
        if (soc_.ctlXfer() == Logic::One) {
            MachineState cur = capture();
            bool widened;
            if (frontier_.mergePoint(
                    tableKey(lastFetchPc_, DecKind::CtlXfer), cur,
                    widened)) {
                return;
            }
            if (widened) {
                // Re-evaluate from the widened state; widening can
                // surface new X decisions this very cycle.
                restore(cur);
                soc_.evalOnly();
                tracker_.observe(soc_.sim());
                bool forked2 = false;
                if (!resolveDecisions(forked2))
                    return;
                if (forked2)
                    return;
            }
        } else if (soc_.ctlXfer() == Logic::X) {
            bespoke_fatal("ctl_xfer is X outside a decision fork");
        }

        soc_.finishCycle();
        frontier_.chargeCycles(1);
    }
}

template <class Lanes>
void
PathExplorer::runBatches()
{
    std::unique_ptr<Lanes> lanes;  // construction is not free: reuse
    for (;;) {
        std::vector<WorkItem> batch;
        if (frontier_.pop(kBatchLanes, batch) == 0)
            break;
        if (batch.size() == 1) {
            // A lone state gains nothing from batching; the explorer's
            // own Soc runs it faster.
            curDepth_ = batch[0].depth;
            runPath(batch[0].state);
            continue;
        }
        if (!lanes)
            lanes = std::make_unique<Lanes>(socCtx_, prog_, opts_);
        laneSweep(*lanes, std::move(batch));
    }
    if (lanes)
        laneGateVisits_ += lanes->gatesEvaluated();
}

/**
 * Simulate a batch of independent frontier states, one per lane, until
 * every lane has retired. Straight-line cycles (the vast majority) run
 * lane-parallel; the moment a lane reaches anything that needs the
 * fork/merge discipline — a symbolic PC, an X decision, a taken control
 * transfer that prunes or widens — its state is captured and the event
 * is handled by the exact scalar machinery, so the exploration
 * discipline exists once rather than per evaluator. Freed lanes are
 * refilled from the frontier at the end of every cycle.
 */
template <class Lanes>
void
PathExplorer::laneSweep(Lanes &ls, std::vector<WorkItem> batch)
{
    std::array<uint32_t, kBatchLanes> depth{};
    std::array<int, kBatchLanes> haltCnt{};
    uint64_t active = 0;   ///< lanes being simulated and observed
    uint64_t control = 0;  ///< active lanes not in a halt countdown

    auto load = [&](int lane, WorkItem &it) {
        ls.load(lane, it.state);
        depth[lane] = it.depth;
        haltCnt[lane] = -1;
        laneSet(active, lane);
        laneSet(control, lane);
    };
    for (size_t i = 0; i < batch.size(); i++)
        load(static_cast<int>(i), batch[i]);

    // Retiring a lane = the sweep stops simulating it; whatever
    // continuation it has was already pushed to the frontier or run to
    // completion on the scalar engine.
    auto retire = [&](int lane) {
        laneClear(active, lane);
        laneClear(control, lane);
    };

    while (laneAny(active)) {
        if (frontier_.cycleBudgetSpent()) {
            // Abandon every in-flight lane. The batch may have drained
            // the whole stack, so no later pop would notice the blown
            // budget — declare it here.
            frontier_.declareCap();
            return;
        }

        ls.eval(active, tracker_);
        laneSweeps_++;

        // Lanes whose 6-cycle halt observation window just completed
        // (runPath observes the final eval and returns without
        // finishing that cycle; so do we).
        const uint64_t halting = active & ~control;
        forEachLane(halting, [&](int lane) {
            if (haltCnt[lane] == 0)
                retire(lane);
        });

        // Instruction fetch: symbolic PCs fork one continuation per
        // candidate; halt addresses start the observation countdown.
        const uint64_t fetch = ls.fetchOneMask() & control;
        forEachLane(fetch, [&](int lane) {
            SWord pc = ls.pc(lane);
            if (!pc.fullyKnown()) {
                enumerateSymbolicPc(pc, ls.capture(lane), depth[lane]);
                retire(lane);
                return;
            }
            ls.setLastFetchPc(lane, pc.val);
            if (isHaltPc(pc.val)) {
                haltCnt[lane] = 6;
                laneClear(control, lane);
            }
        });

        // X control decisions: hand the lane over to the scalar
        // engine, which owns the fork/merge-table discipline.
        // runPath() restores and re-evaluates the captured state, so
        // it sees exactly what the lane saw (the repeated observation
        // is an idempotent OR into the toggle set) and carries the
        // path through fork resolution and beyond.
        const uint64_t deciding = ls.decisionXMask() & control;
        forEachLane(deciding, [&](int lane) {
            MachineState s = ls.capture(lane);
            curDepth_ = depth[lane];
            runPath(s);
            retire(lane);
        });

        if (laneAny(ls.ctlXferXMask() & control))
            bespoke_fatal("ctl_xfer is X outside a decision fork");

        // Taken control transfers: the conservative-table discipline,
        // one mergePoint per lane, same as runPath.
        const uint64_t xfer = ls.ctlXferOneMask() & control;
        forEachLane(xfer, [&](int lane) {
            MachineState cur = ls.capture(lane);
            bool widened;
            if (frontier_.mergePoint(
                    tableKey(ls.lastFetchPc(lane), DecKind::CtlXfer),
                    cur, widened)) {
                retire(lane);  // subsumed: prune
                return;
            }
            if (widened) {
                continueWidened(cur, depth[lane]);
                retire(lane);
            }
            // Neither pruned nor widened: the lane simply continues.
        });

        if (!laneAny(active))
            break;

        ls.finishCycle(active);
        uint64_t n = laneCount(active);
        laneCycles_ += n;
        frontier_.chargeCycles(n);
        const uint64_t counting = active & ~control;
        forEachLane(counting, [&](int lane) {
            if (haltCnt[lane] > 0)
                haltCnt[lane]--;
        });

        // Refill freed lanes so the batch stays as wide as the
        // frontier allows.
        size_t free = kBatchLanes - laneCount(active);
        if (free > 0) {
            batch.clear();
            frontier_.pop(free, batch);
            int lane = 0;
            for (WorkItem &it : batch) {
                while (laneTest(active, lane))
                    lane++;
                load(lane, it);
            }
        }
    }
}

void
PathExplorer::continueWidened(const MachineState &cur, uint32_t depth)
{
    curDepth_ = depth;
    restore(cur);
    soc_.sim().clearForces();
    soc_.evalOnly();
    tracker_.observe(soc_.sim());
    bool forked = false;
    if (!resolveDecisions(forked))
        return;
    if (forked)
        return;
    // runPath would loop straight into the next cycle here; deferring
    // the post-latch state through the frontier is the same computation
    // (work items are self-describing machine states).
    soc_.finishCycle();
    frontier_.chargeCycles(1);
    frontier_.push(WorkItem{capture(), depth});
}

} // namespace bespoke
