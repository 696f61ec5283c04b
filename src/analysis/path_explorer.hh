/**
 * @file
 * The exploration engine of the input-independent symbolic execution
 * tree (paper Algorithm 1), shared by the activity analysis and the
 * symbolic equivalence check.
 *
 * A PathExplorer<Core> owns the context, program, options, sorted halt
 * addresses, the Frontier and one scalar Core for the path machinery;
 * the observer (Core::Sink) belongs to the caller. run() is one
 * deterministic batch schedule: pop up to kBatchLanes frontier states,
 * advance them together cycle by cycle, and hand a state to the scalar
 * path machinery (runPath) whenever it reaches a fork, a merge point or
 * a symbolic PC; freed lanes refill from the frontier. The lane width
 * selects only how a batch advances — the Core's 64-lane Planes, or 64
 * scalar Cores in lane order (ScalarLanes, the reference) — so results
 * and counters depend on the program and the options alone.
 *
 * SocCore (below) is one core observed by an ActivityTracker; CorePair
 * (equiv_check.cc) is two of them in lockstep, observed by an output
 * comparison. A Core provides
 *  - the types State (the Frontier currency), Context (shared
 *    per-netlist data), Sink and Planes;
 *  - Core(const Context &, const AsmProgram &, const AnalysisOptions &);
 *  - reset(Sink &), capture()/restore(State),
 *    lastFetchPc()/setLastFetchPc(), eval() (no latch), finishCycle();
 *  - observe(Sink &, cycle) after an observed eval, and halted(Sink &)
 *    when a path retires after its halt window; false from either ends
 *    the exploration (Frontier::stop);
 *  - fetching(), pc() and ctlXfer() of the core that leads control;
 *  - firstXDecision(), force(DecKind, Logic), clearForces();
 *  - pcCandidates(pc, base): the continuations at a symbolic PC (none
 *    ends the path there), and gatesEvaluated().
 * Planes is the lane-indexed form of the same interface.
 */

#ifndef BESPOKE_ANALYSIS_PATH_EXPLORER_HH
#define BESPOKE_ANALYSIS_PATH_EXPLORER_HH

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/frontier.hh"
#include "src/sim/lane_sim.hh"
#include "src/util/logging.hh"
#include "src/verify/runner.hh"

namespace bespoke
{

/** Decision kinds, part of the conservative-table key. */
enum class DecKind : uint8_t
{
    Branch = 0,
    Irq0,
    Irq1,
    CtlXfer,
};

/** The decisions a fork resolves, in resolution order. */
inline constexpr DecKind kForkKinds[] = {DecKind::Irq0, DecKind::Irq1,
                                         DecKind::Branch};

/**
 * SocCore's plane evaluator (the default): a batch's lanes advance
 * together in one LaneSoc sweep, each gate visit evaluating all 64 at
 * once.
 */
class SocPlanes
{
  public:
    SocPlanes(const std::shared_ptr<const SocContext> &ctx,
              const AsmProgram &prog, const AnalysisOptions &)
        : ls_(ctx, prog)
    {
        // Inputs and the IRQ line are unknown (paper footnote 1).
        ls_.setGpioIn(SWord::allX());
        ls_.setIrqExt(Logic::X);
    }

    LaneSoc &lanes() { return ls_; }

    void load(int lane, const MachineState &s)
    {
        ls_.loadLane(lane, s.seq, s.env, s.lastFetchPc);
    }
    MachineState capture(int lane) const
    {
        return {ls_.seqLane(lane), ls_.envLane(lane), ls_.lastFetchPc(lane)};
    }
    uint16_t lastFetchPc(int lane) const { return ls_.lastFetchPc(lane); }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        ls_.setLastFetchPc(lane, pc);
    }
    SWord pc(int lane) const { return ls_.pc(lane); }

    /** Evaluate the cycle and observe the `active` lanes' toggles. */
    bool eval(uint64_t active, ActivityTracker &tracker, uint64_t)
    {
        ls_.evalOnly();
        tracker.observe(ls_.sim(), active);
        return true;
    }
    uint64_t fetchOneMask() const { return ls_.stFetchOneMask(); }
    uint64_t decisionXMask() const { return ls_.decisionXMask(); }
    uint64_t ctlXferOneMask() const { return ls_.ctlXferOneMask(); }
    uint64_t ctlXferXMask() const { return ls_.ctlXferXMask(); }
    bool halted(int, ActivityTracker &) { return true; }
    void finishCycle(uint64_t active) { ls_.finishCycle(active); }
    uint64_t gatesEvaluated() const { return ls_.sim().gateVisitsTotal(); }

  private:
    LaneSoc ls_;
};

/**
 * One core under exploration, the activity analysis's machine: a Soc
 * with GPIO X, the IRQ line per options and RAM X, plus the fetch PC of
 * the instruction it executes. An ActivityTracker observes every
 * evaluated cycle. The equivalence check's CorePair is two of them.
 */
class SocCore
{
  public:
    using State = MachineState;
    using Context = std::shared_ptr<const SocContext>;
    using Sink = ActivityTracker;
    using Planes = SocPlanes;

    SocCore(const Context &ctx, const AsmProgram &prog,
            const AnalysisOptions &opts)
        : ctx_(ctx), prog_(prog),
          soc_(ctx, prog, /*ram_unknown=*/true, opts.simMode)
    {
        soc_.setGpioIn(SWord::allX());
        soc_.setIrqExt(Logic::X);
    }

    Soc &soc() { return soc_; }

    void reset(ActivityTracker &tracker)
    {
        soc_.reset();
        tracker.captureInitial(soc_.sim());
    }
    MachineState capture() const
    {
        return {soc_.sim().seqState(), soc_.envState(), lastFetchPc_};
    }
    void restore(const MachineState &s)
    {
        soc_.sim().restoreSeqState(s.seq);
        soc_.restoreEnvState(s.env);
        lastFetchPc_ = s.lastFetchPc;
    }
    uint16_t lastFetchPc() const { return lastFetchPc_; }
    void setLastFetchPc(uint16_t pc) { lastFetchPc_ = pc; }

    void eval() { soc_.evalOnly(); }
    bool observe(ActivityTracker &tracker, uint64_t)
    {
        tracker.observe(soc_.sim());
        return true;
    }
    bool halted(ActivityTracker &) { return true; }
    void finishCycle() { soc_.finishCycle(); }

    bool fetching() const { return soc_.stFetch() == Logic::One; }
    SWord pc() const { return soc_.pc(); }
    Logic ctlXfer() const { return soc_.ctlXfer(); }
    Logic decision(DecKind kind) const
    {
        return kind == DecKind::Irq0   ? soc_.decIrq0()
               : kind == DecKind::Irq1 ? soc_.decIrq1()
                                       : soc_.decBranch();
    }
    std::optional<DecKind> firstXDecision() const
    {
        for (DecKind kind : kForkKinds) {
            if (decision(kind) == Logic::X)
                return kind;
        }
        return std::nullopt;
    }
    void force(DecKind kind, Logic v)
    {
        soc_.sim().force(kind == DecKind::Irq0   ? soc_.decIrq0Net()
                         : kind == DecKind::Irq1 ? soc_.decIrq1Net()
                                                 : soc_.decBranchNet(),
                         v);
    }
    void clearForces() { soc_.sim().clearForces(); }

    /**
     * One continuation per instruction head of the binary that a
     * symbolic PC may hold (known bits fixed, X bits free). Patching
     * only the PC while the correlated state stays X is a sound
     * over-approximation.
     */
    std::vector<MachineState> pcCandidates(SWord pc,
                                           const MachineState &base) const;

    uint64_t gatesEvaluated() const
    {
        return soc_.sim().gatesEvaluatedTotal();
    }

  private:
    const Context &ctx_;
    const AsmProgram &prog_;
    Soc soc_;
    uint16_t lastFetchPc_ = 0;
};

/**
 * Reference lane evaluator (laneWidth 1): one scalar Core per lane,
 * advanced in lane order on the options' GateSim mode, so FullEval
 * stays the oracle for the whole schedule. Cores are built on first
 * use.
 */
template <class Core>
class ScalarLanes
{
  public:
    using State = typename Core::State;
    using Sink = typename Core::Sink;

    ScalarLanes(const typename Core::Context &ctx, const AsmProgram &prog,
                const AnalysisOptions &opts)
        : ctx_(ctx), prog_(prog), opts_(opts)
    {
    }

    void load(int lane, const State &s)
    {
        std::unique_ptr<Core> &core = cores_[lane];
        if (!core)
            core = std::make_unique<Core>(ctx_, prog_, opts_);
        core->restore(s);
    }
    State capture(int lane) const { return cores_[lane]->capture(); }
    uint16_t lastFetchPc(int lane) const
    {
        return cores_[lane]->lastFetchPc();
    }
    void setLastFetchPc(int lane, uint16_t pc)
    {
        cores_[lane]->setLastFetchPc(pc);
    }
    SWord pc(int lane) const { return cores_[lane]->pc(); }

    /**
     * Evaluate the cycle and observe the `active` lanes in lane order;
     * false if any lane's observation ended the exploration.
     */
    bool eval(uint64_t active, Sink &sink, uint64_t cycle)
    {
        bool ok = true;
        fetchOne_ = decisionX_ = xferOne_ = xferX_ = 0;
        forEachLane(active, [&](int lane) {
            Core &core = *cores_[lane];
            core.eval();
            ok = core.observe(sink, cycle) && ok;
            if (core.fetching())
                laneSet(fetchOne_, lane);
            if (core.firstXDecision())
                laneSet(decisionX_, lane);
            if (core.ctlXfer() == Logic::One)
                laneSet(xferOne_, lane);
            else if (core.ctlXfer() == Logic::X)
                laneSet(xferX_, lane);
        });
        return ok;
    }
    uint64_t fetchOneMask() const { return fetchOne_; }
    uint64_t decisionXMask() const { return decisionX_; }
    uint64_t ctlXferOneMask() const { return xferOne_; }
    uint64_t ctlXferXMask() const { return xferX_; }
    bool halted(int lane, Sink &sink) { return cores_[lane]->halted(sink); }
    void finishCycle(uint64_t active)
    {
        forEachLane(active, [&](int lane) { cores_[lane]->finishCycle(); });
    }
    uint64_t gatesEvaluated() const
    {
        uint64_t n = 0;
        for (const std::unique_ptr<Core> &core : cores_)
            n += core ? core->gatesEvaluated() : 0;
        return n;
    }

  private:
    const typename Core::Context &ctx_;
    const AsmProgram &prog_;
    const AnalysisOptions &opts_;
    std::array<std::unique_ptr<Core>, 64> cores_;  ///< one per batch lane
    uint64_t fetchOne_{}, decisionX_{}, xferOne_{}, xferX_{};
};

template <class Core>
class PathExplorer
{
  public:
    using State = typename Core::State;
    using Context = typename Core::Context;
    using Sink = typename Core::Sink;

    PathExplorer(Context ctx, const AsmProgram &prog,
                 const AnalysisOptions &opts, Sink &sink)
        : ctx_(std::move(ctx)), prog_(prog), opts_(opts),
          lanes_(resolveAnalysisLanes(opts)),
          haltAddrs_(haltAddresses(prog)), frontier_(opts),
          core_(ctx_, prog, opts_), sink_(sink)
    {
        std::sort(haltAddrs_.begin(), haltAddrs_.end());
    }

    /** Frontier states advanced together per cycle. */
    static constexpr int kBatchLanes = 64;

    /**
     * Drive the core to the entry state and explore paths from there
     * until the frontier is exhausted, a budget is spent or the sink
     * stops the exploration.
     */
    void run()
    {
        core_.reset(sink_);
        core_.setLastFetchPc(0);
        frontier_.push({core_.capture(), 0});

        if (lanes_ == 1)
            runBatches<ScalarLanes<Core>>();
        else
            runBatches<typename Core::Planes>();
    }

    const Frontier<State> &frontier() const { return frontier_; }

    /** @name Statistics not kept by the Frontier */
    /// @{
    /** Resolved lane width: 1 = reference evaluator, 64 = planes. */
    int lanes() const { return lanes_; }
    uint64_t forks() const { return forks_; }
    /** Scalar gate evaluations plus lane-sim gate visits. */
    uint64_t gatesEvaluated() const
    {
        return core_.gatesEvaluated() + laneGateVisits_;
    }
    uint64_t laneSweeps() const { return laneSweeps_; }
    uint64_t laneCycles() const { return laneCycles_; }
    /// @}

  private:
    bool isHaltPc(uint16_t pc) const
    {
        return std::binary_search(haltAddrs_.begin(), haltAddrs_.end(),
                                  pc);
    }
    static uint32_t tableKey(uint16_t pc, DecKind kind)
    {
        return (static_cast<uint32_t>(pc) << 2) |
               static_cast<uint32_t>(kind);
    }

    /**
     * Evaluate the scalar core and show the cycle to the sink. False if
     * the sink ended the exploration.
     */
    bool evalObserve()
    {
        core_.eval();
        if (core_.observe(sink_, frontier_.cycles()))
            return true;
        frontier_.stop();
        return false;
    }

    /**
     * Resolve X decisions for the current (already evaluated) cycle.
     * Returns false if the path ends here (pruned at a merge point, or the
     * exploration stopped); returns true with `forked` set if
     * continuations were pushed.
     */
    bool resolveDecisions(bool &forked)
    {
        forked = false;
        std::optional<DecKind> d = core_.firstXDecision();
        if (!d)
            return true;

        // Merge-check at the fork point.
        State cur = core_.capture();
        bool widened;
        if (frontier_.mergePoint(tableKey(core_.lastFetchPc(), *d), cur,
                                 widened)) {
            return false;
        }
        if (widened) {
            core_.restore(cur);
            if (!evalObserve())
                return false;
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
    void forkRec(const State &pre,
                 const std::vector<std::pair<DecKind, Logic>> &forces)
    {
        for (Logic v : {Logic::Zero, Logic::One}) {
            core_.restore(pre);
            core_.clearForces();
            for (auto [kind, val] : forces)
                core_.force(kind, val);
            core_.eval();
            std::optional<DecKind> d = core_.firstXDecision();
            bespoke_assert(d, "fork invariant violated");
            core_.force(*d, v);
            if (!evalObserve())
                return;
            if (core_.firstXDecision()) {
                std::vector<std::pair<DecKind, Logic>> f = forces;
                f.push_back({*d, v});
                core_.clearForces();
                forkRec(pre, f);
                if (frontier_.stopped())
                    return;
                continue;
            }
            // Decision complete: finish the cycle and enqueue the
            // post-latch continuation state.
            core_.finishCycle();
            frontier_.chargeCycles(1);
            core_.clearForces();
            frontier_.push({core_.capture(), curDepth_ + 1});
        }
    }

    void runPath(const State &start)
    {
        core_.restore(start);
        while (true) {
            if (frontier_.cycleBudgetSpent()) {
                // Abandoning the path is only sound as a capped result,
                // even when the stack holds nothing more.
                frontier_.declareCap();
                return;
            }
            if (!evalObserve())
                return;

            // Track instruction boundaries and halting.
            if (core_.fetching()) {
                SWord pc = core_.pc();
                if (!pc.fullyKnown()) {
                    // Algorithm 1, line 29: fork per candidate PC.
                    for (State &s : core_.pcCandidates(pc, core_.capture()))
                        frontier_.push({std::move(s), curDepth_ + 1});
                    return;
                }
                core_.setLastFetchPc(pc.val);
                if (isHaltPc(pc.val)) {
                    // Observe the steady halt loop, then retire the path.
                    for (int i = 0; i < 6; i++) {
                        core_.finishCycle();
                        frontier_.chargeCycles(1);
                        if (!evalObserve())
                            return;
                    }
                    if (!core_.halted(sink_))
                        frontier_.stop();
                    return;
                }
            }

            bool forked = false;
            if (!resolveDecisions(forked) || forked)
                return;  // pruned, or continuations pushed

            // Known control transfer: conservative-table discipline.
            if (core_.ctlXfer() == Logic::One) {
                State cur = core_.capture();
                bool widened;
                if (frontier_.mergePoint(
                        tableKey(core_.lastFetchPc(), DecKind::CtlXfer), cur,
                        widened)) {
                    return;
                }
                if (widened) {
                    // Re-evaluate from the widened state; widening can
                    // surface new X decisions this very cycle.
                    core_.restore(cur);
                    if (!evalObserve())
                        return;
                    if (!resolveDecisions(forked) || forked)
                        return;
                }
            } else if (core_.ctlXfer() == Logic::X) {
                bespoke_fatal("ctl_xfer is X outside a decision fork");
            }

            core_.finishCycle();
            frontier_.chargeCycles(1);
        }
    }

    /**
     * The batch loop on one lane evaluator type (Core::Planes or
     * ScalarLanes<Core>), built lazily and reused across batches.
     */
    template <class Lanes>
    void runBatches()
    {
        std::unique_ptr<Lanes> lanes;  // construction is not free: reuse
        for (;;) {
            std::vector<WorkItem<State>> batch;
            if (frontier_.pop(kBatchLanes, batch) == 0)
                break;
            if (batch.size() == 1) {
                // A lone state gains nothing from batching; the explorer's
                // own core runs it faster.
                curDepth_ = batch[0].depth;
                runPath(batch[0].state);
                continue;
            }
            if (!lanes)
                lanes = std::make_unique<Lanes>(ctx_, prog_, opts_);
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
     * refilled from the frontier at the end of every cycle. Within a cycle
     * lanes are handled in ascending order, and a stop (the sink rejected
     * what a lane showed it) ends the sweep at once, so the lowest lane's
     * verdict wins at every lane width.
     */
    template <class Lanes>
    void laneSweep(Lanes &ls, std::vector<WorkItem<State>> batch)
    {
        std::array<uint32_t, kBatchLanes> depth{};
        std::array<int, kBatchLanes> haltCnt{};
        uint64_t active = 0;   ///< lanes being simulated and observed
        uint64_t control = 0;  ///< active lanes not in a halt countdown

        auto load = [&](int lane, WorkItem<State> &it) {
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

            bool ok = ls.eval(active, sink_, frontier_.cycles());
            laneSweeps_++;
            if (!ok) {
                frontier_.stop();
                return;
            }

            // Lanes whose 6-cycle halt observation window just completed
            // (runPath observes the final eval and returns without
            // finishing that cycle; so do we).
            const uint64_t halting = active & ~control;
            forEachLane(halting, [&](int lane) {
                if (haltCnt[lane] != 0 || frontier_.stopped())
                    return;
                if (!ls.halted(lane, sink_))
                    frontier_.stop();
                retire(lane);
            });
            if (frontier_.stopped())
                return;

            // Instruction fetch: symbolic PCs fork one continuation per
            // candidate; halt addresses start the observation countdown.
            const uint64_t fetch = ls.fetchOneMask() & control;
            forEachLane(fetch, [&](int lane) {
                SWord pc = ls.pc(lane);
                if (!pc.fullyKnown()) {
                    for (State &s : core_.pcCandidates(pc, ls.capture(lane)))
                        frontier_.push({std::move(s), depth[lane] + 1});
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
            // is idempotent) and carries the path through fork resolution
            // and beyond.
            const uint64_t deciding = ls.decisionXMask() & control;
            forEachLane(deciding, [&](int lane) {
                if (frontier_.stopped())
                    return;
                State s = ls.capture(lane);
                curDepth_ = depth[lane];
                runPath(s);
                retire(lane);
            });
            if (frontier_.stopped())
                return;

            if (laneAny(ls.ctlXferXMask() & control))
                bespoke_fatal("ctl_xfer is X outside a decision fork");

            // Taken control transfers: the conservative-table discipline,
            // one mergePoint per lane, same as runPath.
            const uint64_t xfer = ls.ctlXferOneMask() & control;
            forEachLane(xfer, [&](int lane) {
                if (frontier_.stopped())
                    return;
                State cur = ls.capture(lane);
                bool widened;
                if (frontier_.mergePoint(
                        tableKey(ls.lastFetchPc(lane), DecKind::CtlXfer), cur,
                        widened)) {
                    retire(lane);  // subsumed: prune
                    return;
                }
                if (widened) {
                    continueWidened(cur, depth[lane]);
                    retire(lane);
                }
                // Neither pruned nor widened: the lane simply continues.
            });
            if (frontier_.stopped() || !laneAny(active))
                return;

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
                for (WorkItem<State> &it : batch) {
                    while (laneTest(active, lane))
                        lane++;
                    load(lane, it);
                }
            }
        }
    }

    /**
     * Continue a path that was widened at a ctl-xfer merge point:
     * replays runPath's post-widening tail (re-evaluate, resolve any
     * surfaced decisions, finish the cycle) and pushes the post-latch
     * state back to the frontier instead of looping inline.
     */
    void continueWidened(const State &cur, uint32_t depth)
    {
        curDepth_ = depth;
        core_.restore(cur);
        core_.clearForces();
        if (!evalObserve())
            return;
        bool forked = false;
        if (!resolveDecisions(forked) || forked)
            return;
        // runPath would loop straight into the next cycle here; deferring
        // the post-latch state through the frontier is the same computation
        // (work items are self-describing machine states).
        core_.finishCycle();
        frontier_.chargeCycles(1);
        frontier_.push({core_.capture(), depth});
    }

    const Context ctx_;
    const AsmProgram &prog_;
    const AnalysisOptions opts_;
    const int lanes_;
    /** Sorted `jmp .` addresses; membership via binary search. */
    std::vector<uint16_t> haltAddrs_;
    Frontier<State> frontier_;
    Core core_;
    Sink &sink_;
    /** Gate evaluations of the (already destroyed) batch lanes. */
    uint64_t laneGateVisits_ = 0;
    uint32_t curDepth_ = 0;  ///< fork depth of the current path
    uint64_t forks_ = 0;
    uint64_t laneSweeps_ = 0;
    uint64_t laneCycles_ = 0;
};

} // namespace bespoke

#endif // BESPOKE_ANALYSIS_PATH_EXPLORER_HH
