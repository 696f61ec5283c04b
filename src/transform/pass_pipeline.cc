#include "src/transform/pass_pipeline.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <set>

#include "src/builder/net_builder.hh"
#include "src/isa/assembler.hh"
#include "src/sat/encode.hh"
#include "src/sat/never_toggle.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

/**
 * The current netlist state's measured activity: the pipeline replays
 * each state at most once and hands the counter to every reader.
 */
using ActivityFn = std::function<const ToggleCounter &()>;

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/**
 * The legacy re-synthesis fixpoint, verbatim: constant propagation to a
 * local fixpoint on one Rewriter, compact, dead sweep, repeat while the
 * design shrinks. Bit-identical to the pre-pipeline re-synthesis loop.
 */
size_t
resynthFixpoint(Netlist &current)
{
    size_t total_marks = 0;
    while (true) {
        size_t before = current.numCells();
        {
            Rewriter rw(current);
            size_t total = 0;
            while (true) {
                size_t c = constantFoldOnce(rw);
                total += c;
                if (c == 0)
                    break;
            }
            total_marks += total;
            if (total > 0)
                current = rw.compact().netlist;
        }
        current = sweepDead(current).netlist;
        if (current.numCells() >= before)
            break;
    }
    return total_marks;
}

/** The env's models, library defaults where the env has none. */
const TimingParams &
timingOf(const PassEnv &env)
{
    static const TimingParams kDefault;
    return env.timing ? *env.timing : kDefault;
}

const PowerParams &
powerOf(const PassEnv &env)
{
    static const PowerParams kDefault;
    return env.power ? *env.power : kDefault;
}

/**
 * The clock budget: the env's, or — the flow's convention, applied to
 * the netlist at hand — its own critical path times kClockMargin.
 */
double
clockPeriodFor(const Netlist &nl, const PassEnv &env)
{
    if (env.clockPeriodPs > 0.0)
        return env.clockPeriodPs;
    TimingReport rep = analyzeTiming(nl, timingOf(env));
    bespoke_assert(rep.criticalPathPs > 0,
                   "cannot derive a clock period from an empty design");
    return rep.criticalPathPs * kClockMargin;
}

/** Transition-density propagation factor per cell type. */
double
densityFactor(CellType t)
{
    switch (t) {
      case CellType::INV:
      case CellType::BUF:
      case CellType::XOR2:
      case CellType::XNOR2:
        return 1.0;
      case CellType::AND2:
      case CellType::OR2:
      case CellType::NAND2:
      case CellType::NOR2:
      case CellType::MUX2:
        return 0.5;
      case CellType::AOI21:
      case CellType::OAI21:
        return 0.4;
      case CellType::AND3:
      case CellType::OR3:
      case CellType::NAND3:
      case CellType::NOR3:
        return 0.25;
      default:
        return 0.5;
    }
}

/**
 * Fill unknown entries (< 0) of a per-gate density vector by forward
 * propagation: a gate's estimated toggle density is a cell-dependent
 * fraction of the sum of its fanin densities, clamped to [0, 1]. Known
 * (measured) entries are left untouched, so estimation error is
 * confined to the freshly built gates — and since every candidate
 * microarchitecture of an instance is scored through this same
 * estimator (including a rebuild of the current shape), the comparison
 * between shapes is unbiased by it.
 */
void
propagateDensities(const Netlist &nl, std::vector<double> *d)
{
    for (GateId i : nl.levelize()) {
        if ((*d)[i] >= 0.0)
            continue;
        const Gate &g = nl.gate(i);
        if (g.type == CellType::OUTPUT) {
            double v = (*d)[g.in[0]];
            (*d)[i] = v >= 0.0 ? v : 0.0;
            continue;
        }
        double sum = 0.0;
        int n = g.numInputs();
        for (int p = 0; p < n; p++) {
            double v = (*d)[g.in[p]];
            if (v >= 0.0)
                sum += v;
        }
        (*d)[i] = std::min(1.0, densityFactor(g.type) * sum);
    }
    // Remaining unknowns are sources created by the rebuild (shared
    // ties): they never toggle.
    for (double &v : *d) {
        if (v < 0.0)
            v = 0.0;
    }
}

/** Activity-weighted power (µW) from a density vector. */
double
powerFromDensities(const Netlist &nl, const std::vector<double> &d,
                   const PowerParams &power, const TimingParams &timing,
                   double *criticalPs)
{
    constexpr uint64_t kCycles = 1u << 20;
    ToggleCounter tc(nl);
    ToggleCounter::RunTrace trace;
    trace.first.assign(nl.size(), 0);
    trace.last = trace.first;
    trace.cycles = kCycles;
    tc.ingestRun(trace);
    std::vector<uint64_t> counts(nl.size(), 0);
    for (GateId i = 0; i < nl.size(); i++) {
        double v = std::clamp(d[i], 0.0, 1.0);
        counts[i] = static_cast<uint64_t>(
            std::llround(v * static_cast<double>(kCycles)));
    }
    tc.addCounts(counts);
    TimingReport tr = analyzeTiming(nl, timing);
    if (criticalPs)
        *criticalPs = tr.criticalPathPs;
    return computePower(nl, tc, power, timing).totalUW();
}

/** A (old output net, rebuilt net) stitch point. */
using AliasPairs = std::vector<std::pair<GateId, GateId>>;

/** MuxTree variant encoding. */
constexpr uint8_t kMuxLsbFirst = 0;
constexpr uint8_t kMuxMsbFirst = 1;

/**
 * Append a rebuilt copy of `inst` in the given variant to `work`,
 * returning the old-output -> new-net stitch pairs. False when the
 * instance is not reconstructible (lost operands, odd shape) or the
 * variant does not apply.
 */
bool
rebuildInstance(Netlist &work, const DatapathInstance &inst,
                uint8_t variant, AliasPairs *pairs)
{
    for (GateId in : inst.inputs) {
        if (in == kNoGate)
            return false;
    }
    std::set<GateId> operand_set(inst.inputs.begin(), inst.inputs.end());
    auto pair_up = [&](GateId old_out, GateId new_net) {
        if (old_out == kNoGate || old_out == new_net)
            return;
        // Never alias a port pseudo-gate or a tie (they must survive
        // as-is), and never alias an operand net onto the new block —
        // the block reads it, so that alias would close a loop.
        CellType t = work.gate(old_out).type;
        if (cellPseudo(t) || t == CellType::TIE0 || t == CellType::TIE1)
            return;
        if (operand_set.count(old_out))
            return;
        pairs->push_back({old_out, new_net});
    };

    NetBuilder nb(work, inst.module);
    if (inst.kind == InstanceKind::Adder) {
        if (inst.shape.size() != 1)
            return false;
        size_t w = inst.shape[0];
        if (w == 0 || inst.inputs.size() != 2 * w + 1 ||
            inst.outputs.size() != 2 * w) {
            return false;
        }
        if (variant > static_cast<uint8_t>(AdderKind::CarrySelect))
            return false;
        Bus a(inst.inputs.begin(), inst.inputs.begin() + w);
        Bus b(inst.inputs.begin() + w, inst.inputs.begin() + 2 * w);
        GateId cin = inst.inputs[2 * w];
        nb.setAdderKind(static_cast<AdderKind>(variant));
        AddResult r = nb.adder(a, b, cin);
        for (size_t i = 0; i < w; i++)
            pair_up(inst.outputs[i], r.sum[i]);
        for (size_t i = 0; i < w; i++)
            pair_up(inst.outputs[w + i], r.carries[i]);
        return true;
    }

    // MuxTree. Restructuring is only sound for full trees (every
    // select value addresses a distinct recorded choice); partial
    // trees use the pass-through tail rule and keep their shape.
    if (inst.shape.size() != 3)
        return false;
    size_t s = inst.shape[0], c = inst.shape[1], wd = inst.shape[2];
    if (s == 0 || c < 2 || wd == 0 ||
        inst.inputs.size() != s + c * wd || inst.outputs.size() != wd) {
        return false;
    }
    Bus sel(inst.inputs.begin(), inst.inputs.begin() + s);
    std::vector<Bus> choices(c);
    for (size_t k = 0; k < c; k++) {
        choices[k].assign(inst.inputs.begin() + s + k * wd,
                          inst.inputs.begin() + s + (k + 1) * wd);
    }
    Bus out;
    if (variant == kMuxLsbFirst) {
        out = nb.muxTree(sel, choices);  // records the instance itself
    } else if (variant == kMuxMsbFirst) {
        if (s >= 32 || c != (1ull << s))
            return false;
        // Halve the choice set per level from the top select bit:
        // next[i] = sel[bit] ? level[i + half] : level[i], which picks
        // choices[sel] for a full tree just like the LSB-first order
        // but pairs distant choices instead of adjacent ones.
        std::vector<Bus> level = choices;
        for (size_t bit = s; bit-- > 0 && level.size() > 1;) {
            size_t half = level.size() / 2;
            std::vector<Bus> next(half);
            for (size_t i = 0; i < half; i++)
                next[i] = nb.muxBus(sel[bit], level[i], level[i + half]);
            level = std::move(next);
        }
        out = level[0];
        DatapathInstance ni;
        ni.kind = InstanceKind::MuxTree;
        ni.module = inst.module;
        ni.variant = kMuxMsbFirst;
        ni.shape = inst.shape;
        ni.inputs = inst.inputs;
        ni.outputs = out;
        work.addInstance(std::move(ni));
    } else {
        return false;
    }
    for (size_t i = 0; i < wd; i++)
        pair_up(inst.outputs[i], out[i]);
    return true;
}

/**
 * Drop stale duplicate instance entries: committing a rewrite leaves
 * the original entry aliased onto the rebuilt nets next to the freshly
 * recorded entry for the same block. The two entries need not have
 * identical live-output sets — output nets that died before the rewrite
 * stay kNoGate in the old entry while the rebuilt one re-creates them —
 * so match on *overlap*: every net has exactly one driver, hence two
 * entries sharing any live output describe the same block, and the
 * later entry is the one whose variant matches the gates present.
 */
void
dedupInstances(Netlist &nl)
{
    std::vector<DatapathInstance> &insts = nl.instancesRef();
    std::set<GateId> seen;
    std::vector<DatapathInstance> kept;
    for (size_t k = insts.size(); k-- > 0;) {
        bool stale = false;
        for (GateId o : insts[k].outputs) {
            if (o != kNoGate && seen.count(o)) {
                stale = true;
                break;
            }
        }
        if (stale)
            continue;
        for (GateId o : insts[k].outputs) {
            if (o != kNoGate)
                seen.insert(o);
        }
        kept.push_back(std::move(insts[k]));
    }
    std::reverse(kept.begin(), kept.end());
    insts = std::move(kept);
}

/** The rewrite search ignores adder instances narrower than this. */
constexpr size_t kMinRewriteAdderWidth = 8;

/** The variants worth rebuilding for one recorded instance (empty =
 *  the instance is not reconstructible). */
std::vector<uint8_t>
variantsFor(const DatapathInstance &inst)
{
    if (inst.kind == InstanceKind::Adder) {
        if (inst.shape.size() == 1 &&
            inst.shape[0] >= kMinRewriteAdderWidth) {
            return {static_cast<uint8_t>(AdderKind::Ripple),
                    static_cast<uint8_t>(AdderKind::CarryLookahead),
                    static_cast<uint8_t>(AdderKind::CarrySelect)};
        }
    } else if (inst.shape.size() == 3 && inst.shape[0] >= 2 &&
               inst.shape[0] < 32 &&
               inst.shape[1] == (1ull << inst.shape[0])) {
        return {kMuxLsbFirst, kMuxMsbFirst};
    }
    return {};
}

/**
 * Rebuild `inst` as `variant` on a scratch copy of `base`, stitch,
 * compact, and measure the λ-independent score pair: activity-weighted
 * power at vmin (µW) and the critical path (ps). λ enters only at
 * recombination time (rewriteCostAt), so a λ-sweep pays for this
 * rebuild exactly once per (instance, variant).
 */
bool
scoreVariant(const Netlist &base, const std::vector<double> &baseDensity,
             const DatapathInstance &inst, uint8_t variant,
             const TimingParams &timing, const PowerParams &power,
             double period, double *power_term, double *critical_ps)
{
    Netlist work = base;
    AliasPairs pairs;
    if (!rebuildInstance(work, inst, variant, &pairs) || pairs.empty())
        return false;
    Rewriter rw(work);
    std::set<GateId> seen;
    for (auto [o, nn] : pairs) {
        if (seen.insert(o).second)
            rw.makeAlias(o, nn);
    }
    RewriteResult rr = rw.compact();
    RewriteResult rr2 = sweepDead(rr.netlist);
    Netlist cand = std::move(rr2.netlist);

    std::vector<double> d(cand.size(), -1.0);
    for (GateId i = 0; i < base.size(); i++) {
        GateId m = rr.map[i];
        if (m == kNoGate)
            continue;
        m = rr2.map[m];
        if (m == kNoGate)
            continue;
        d[m] = baseDensity[i];
    }
    propagateDensities(cand, &d);
    sizeForLoads(cand, timing);

    double critical = 0.0;
    double nominal_uw =
        powerFromDensities(cand, d, power, timing, &critical);
    double vmin = critical > 0.0 ? vminForPeriod(critical, period, timing)
                                 : timing.vMinFloor;
    double v2 = (vmin * vmin) / (power.voltage * power.voltage);
    *power_term = nominal_uw * v2;
    *critical_ps = critical;
    return true;
}

/** scoreRewriteCandidates over activity already measured on `nl`. */
std::vector<RewriteVariantScore>
scoreWithActivity(const Netlist &nl, const ToggleCounter &tc,
                  const PassEnv &env, double *period_ps)
{
    const TimingParams &timing = timingOf(env);
    const PowerParams &power = powerOf(env);
    *period_ps = clockPeriodFor(nl, env);
    double cycles = static_cast<double>(tc.cycles());
    bespoke_assert(cycles > 0, "activity provider observed 0 cycles");
    std::vector<double> density(nl.size());
    for (GateId i = 0; i < nl.size(); i++)
        density[i] = static_cast<double>(tc.count(i)) / cycles;

    std::vector<RewriteVariantScore> out;
    for (size_t k = 0; k < nl.instances().size(); k++) {
        const DatapathInstance &inst = nl.instances()[k];
        for (uint8_t v : variantsFor(inst)) {
            RewriteVariantScore s;
            s.inst = k;
            s.variant = v;
            s.isCurrent = v == inst.variant;
            if (!scoreVariant(nl, density, inst, v, timing, power,
                              *period_ps, &s.powerTermUW,
                              &s.criticalPs)) {
                continue;
            }
            out.push_back(s);
        }
    }
    return out;
}

/**
 * The cost-driven datapath rewrite search. For every reconstructible
 * DatapathInstance, every applicable variant is rebuilt on a scratch
 * copy, stitched, compacted, and scored:
 *     cost = total power at vmin(depth, budget)
 *          + lambda x max(0, depth - budget)
 * with measured toggle densities for surviving gates and propagated
 * estimates for rebuilt ones. The argmin variant is committed only
 * when it strictly beats the rebuilt current shape. Scoring and the
 * λ-dependent decision are split (scoreRewriteCandidates /
 * rewriteDecisionsAtLambda) so λ-sweeps reuse one scoring pass.
 * Returns the number of stitches committed.
 */
size_t
rewriteSearch(Netlist &current, const ActivityFn &activity,
              const PassEnv &env, const RewriteSearchOptions &opts,
              PipelineReport *report)
{
    // Decide on a frozen copy: every instance is scored against the
    // same base so decisions are order-independent.
    const Netlist base = current;
    double period = 0.0;
    std::vector<RewriteVariantScore> scores =
        scoreWithActivity(base, activity(), env, &period);

    // Rebuild every winner on the working netlist, then stitch them
    // all in one compaction.
    AliasPairs stitches;
    std::set<GateId> aliased;
    size_t rewritten = 0;
    for (auto [k, variant] : rewriteDecisionsAtLambda(scores, opts, period)) {
        AliasPairs pairs;
        if (!rebuildInstance(current, base.instances()[k], variant,
                             &pairs)) {
            continue;
        }
        bool any = false;
        for (auto [o, nn] : pairs) {
            if (aliased.insert(o).second) {
                stitches.push_back({o, nn});
                any = true;
            }
        }
        if (any)
            rewritten++;
    }
    if (!stitches.empty()) {
        Rewriter rw(current);
        for (auto [o, nn] : stitches)
            rw.makeAlias(o, nn);
        current = rw.compact().netlist;
        current = sweepDead(current).netlist;
    }
    dedupInstances(current);
    if (report)
        report->rewrittenInstances = rewritten;
    return stitches.size();
}

/**
 * SAT never-toggle proving pass: pick up the gates the X-propagating
 * analysis left toggleable but the measured replay never saw move,
 * and ask the CDCL prover (src/sat/never_toggle) whether any reachable
 * input/cycle combination can flip them. Proven gates are tied to
 * their constant exactly like the cut pass would have done — the SAT
 * proof alone justifies the rewrite (its envelope covers every real
 * execution); the measured evidence (`activity`, the replay of
 * `current`) only selects candidates. Needs env.program; returns the
 * number of gates tied.
 */
size_t
satNeverToggle(Netlist &current, const ActivityFn &activity,
               const PassEnv &env, const SatNeverToggleOptions &opts,
               PipelineReport *report)
{
    if (opts.depth <= 0)
        return 0;
    if (opts.depth > sat::kMaxSatFrames) {
        bespoke_warn("sat-never-toggle: horizon ", opts.depth,
                     " frames exceeds the ", sat::kMaxSatFrames,
                     "-frame cap; pass skipped");
        return 0;
    }
    const ToggleCounter &tc = activity();
    if (tc.cycles() == 0)
        return 0;
    // Candidates are the zero-toggle gates, at their observed constant
    // value. A zero-toggle gate held exactly one value for the whole
    // replay — the counter bumps on within-run transitions AND
    // cross-run boundary transitions, so count == 0 really means one
    // value across every observed cycle, and that value is the
    // counter's last observation. Zero pins the candidate at 0; One/X
    // is ambiguous between always-1 and always-X — an always-X gate may
    // well be the X-pessimism victim this pass exists for (really
    // constant 0, but 3-valued propagation can't see it), so try both
    // polarities there. At most one polarity survives the base stage;
    // a wrong guess is simply refuted and costs one query.
    std::vector<sat::NeverToggleCandidate> cands;
    for (GateId i = 0; i < current.size(); i++) {
        const Gate &g = current.gate(i);
        if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
            g.type == CellType::TIE1 || tc.count(i) != 0) {
            continue;
        }
        if (tc.lastValue(i) != Logic::Zero)
            cands.push_back({i, true});
        cands.push_back({i, false});
    }
    if (cands.empty())
        return 0;
    sat::NeverToggleOptions no;
    no.depth = opts.depth;
    sat::NeverToggleResult res =
        sat::proveNeverToggling(current, *env.program, cands, no);
    if (report) {
        report->satCandidates = cands.size();
        report->satProven = res.proven.size();
        report->satRefuted = res.refuted.size();
        report->satUnknown = res.unknown.size();
        report->satConflicts = res.stats.conflicts;
        report->satPropagations = res.stats.propagations;
        report->satLearned = res.stats.learnedClauses;
        report->satKept = res.stats.keptClauses;
        report->satReductions = res.stats.dbReductions;
        report->satRestarts = res.stats.restarts;
        report->satShards = res.stats.shards;
    }
    if (res.proven.empty())
        return 0;
    Rewriter rw(current);
    for (const sat::NeverToggleCandidate &c : res.proven)
        rw.makeConstant(c.gate, c.value);
    current = rw.compact().netlist;
    current = sweepDead(current).netlist;
    return res.proven.size();
}

void
snapshotMetrics(const Netlist &nl, const ActivityFn &activity,
                const PassEnv &env, const TimingParams &timing,
                const PowerParams &power, double *power_uw,
                double *depth_ps)
{
    TimingReport tr = analyzeTiming(nl, timing);
    *depth_ps = tr.criticalPathPs;
    *power_uw = -1.0;
    if (env.measureActivity && nl.numCells() > 0) {
        const ToggleCounter &tc = activity();
        if (tc.cycles() > 0)
            *power_uw = computePower(nl, tc, power, timing).totalUW();
    }
}

} // namespace

std::vector<RewriteVariantScore>
scoreRewriteCandidates(const Netlist &nl, const PassEnv &env,
                       double *period_ps)
{
    ToggleCounter tc(nl);
    env.measureActivity(nl, &tc);
    return scoreWithActivity(nl, tc, env, period_ps);
}

std::vector<std::pair<size_t, uint8_t>>
rewriteDecisionsAtLambda(const std::vector<RewriteVariantScore> &scores,
                         const RewriteSearchOptions &opts,
                         double period_ps)
{
    std::vector<std::pair<size_t, uint8_t>> out;
    size_t i = 0;
    while (i < scores.size()) {
        // One instance's contiguous group of scored variants.
        size_t j = i;
        bool have_current = false, have_best = false;
        double current_cost = 0.0, best_cost = 0.0;
        size_t best_at = i;
        for (; j < scores.size() && scores[j].inst == scores[i].inst;
             j++) {
            double cost =
                rewriteCostAt(scores[j], opts.lambdaUWPerPs, period_ps);
            if (scores[j].isCurrent) {
                current_cost = cost;
                have_current = true;
            }
            if (!have_best || cost < best_cost) {
                best_cost = cost;
                best_at = j;
                have_best = true;
            }
        }
        if (have_current && have_best && !scores[best_at].isCurrent &&
            best_cost < current_cost * (1.0 - opts.minGainFraction)) {
            out.emplace_back(scores[best_at].inst,
                             scores[best_at].variant);
        }
        i = j;
    }
    return out;
}

size_t
constantFoldOnce(Rewriter &rw)
{
    const Netlist &nl = rw.source();
    size_t changed = 0;

    for (GateId i = 0; i < nl.size(); i++) {
        const Gate &g = nl.gate(i);
        if (cellPseudo(g.type) || rw.isDropped(i) ||
            rw.hasReplacement(i)) {
            continue;
        }
        if (g.type == CellType::TIE0 || g.type == CellType::TIE1)
            continue;

        int n = g.numInputs();
        // Resolve inputs through prior marks.
        bool in_const[3] = {false, false, false};
        bool in_val[3] = {false, false, false};
        GateId in_gate[3] = {kNoGate, kNoGate, kNoGate};
        int num_const = 0;
        for (int p = 0; p < n; p++) {
            Rewriter::Resolved r = rw.resolve(g.in[p]);
            in_const[p] = r.isConst;
            in_val[p] = r.value;
            in_gate[p] = r.gate;
            if (r.isConst)
                num_const++;
        }

        auto mkconst = [&](bool v) {
            rw.makeConstant(i, v);
            changed++;
        };
        auto mkalias = [&](GateId t) {
            rw.makeAlias(i, t);
            changed++;
        };
        auto mkcell = [&](CellType t, GateId a, GateId b = kNoGate,
                          GateId c = kNoGate) {
            rw.replaceCell(i, t, a, b, c);
            changed++;
        };

        // Sequential cells.
        if (g.type == CellType::DFF || g.type == CellType::DFFE) {
            bool has_en = g.type == CellType::DFFE;
            if (in_const[0] && in_val[0] == g.resetValue) {
                // D is the reset value: Q can never change.
                mkconst(g.resetValue);
            } else if (has_en && in_const[1] && !in_val[1]) {
                // Enable tied low: Q holds the reset value forever.
                mkconst(g.resetValue);
            } else if (has_en && in_const[1] && in_val[1]) {
                mkcell(CellType::DFF, g.in[0]);
            }
            continue;
        }

        // Fully constant combinational gates fold outright.
        if (num_const == n && n > 0) {
            Logic in[3];
            for (int p = 0; p < n; p++)
                in[p] = logicOf(in_val[p]);
            Logic out = evalCell(g.type, in);
            bespoke_assert(out != Logic::X);
            mkconst(out == Logic::One);
            continue;
        }

        switch (g.type) {
          case CellType::INV:
            if (in_const[0])
                mkconst(!in_val[0]);
            break;
          case CellType::BUF:
            mkalias(g.in[0]);
            break;
          case CellType::AND2:
            if ((in_const[0] && !in_val[0]) ||
                (in_const[1] && !in_val[1])) {
                mkconst(false);
            } else if (in_const[0]) {
                mkalias(g.in[1]);
            } else if (in_const[1]) {
                mkalias(g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkalias(g.in[0]);
            }
            break;
          case CellType::OR2:
            if ((in_const[0] && in_val[0]) ||
                (in_const[1] && in_val[1])) {
                mkconst(true);
            } else if (in_const[0]) {
                mkalias(g.in[1]);
            } else if (in_const[1]) {
                mkalias(g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkalias(g.in[0]);
            }
            break;
          case CellType::NAND2:
            if ((in_const[0] && !in_val[0]) ||
                (in_const[1] && !in_val[1])) {
                mkconst(true);
            } else if (in_const[0]) {
                mkcell(CellType::INV, g.in[1]);
            } else if (in_const[1]) {
                mkcell(CellType::INV, g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkcell(CellType::INV, g.in[0]);
            }
            break;
          case CellType::NOR2:
            if ((in_const[0] && in_val[0]) ||
                (in_const[1] && in_val[1])) {
                mkconst(false);
            } else if (in_const[0]) {
                mkcell(CellType::INV, g.in[1]);
            } else if (in_const[1]) {
                mkcell(CellType::INV, g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkcell(CellType::INV, g.in[0]);
            }
            break;
          case CellType::XOR2:
            if (in_const[0]) {
                if (in_val[0])
                    mkcell(CellType::INV, g.in[1]);
                else
                    mkalias(g.in[1]);
            } else if (in_const[1]) {
                if (in_val[1])
                    mkcell(CellType::INV, g.in[0]);
                else
                    mkalias(g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkconst(false);
            }
            break;
          case CellType::XNOR2:
            if (in_const[0]) {
                if (in_val[0])
                    mkalias(g.in[1]);
                else
                    mkcell(CellType::INV, g.in[1]);
            } else if (in_const[1]) {
                if (in_val[1])
                    mkalias(g.in[0]);
                else
                    mkcell(CellType::INV, g.in[0]);
            } else if (in_gate[0] == in_gate[1]) {
                mkconst(true);
            }
            break;
          case CellType::AND3:
          case CellType::OR3:
          case CellType::NAND3:
          case CellType::NOR3: {
            bool is_and = g.type == CellType::AND3 ||
                          g.type == CellType::NAND3;
            bool inverting = g.type == CellType::NAND3 ||
                             g.type == CellType::NOR3;
            bool absorbing = !is_and;  // OR absorbs 1, AND absorbs 0
            // Absorbing constant present?
            bool absorbed = false;
            for (int p = 0; p < 3; p++) {
                if (in_const[p] && in_val[p] == absorbing)
                    absorbed = true;
            }
            if (absorbed) {
                mkconst(inverting ? !absorbing : absorbing);
                break;
            }
            // Drop identity constants.
            GateId live[3];
            int m = 0;
            for (int p = 0; p < 3; p++) {
                if (!in_const[p])
                    live[m++] = g.in[p];
            }
            if (m == 2) {
                CellType two = is_and
                                   ? (inverting ? CellType::NAND2
                                                : CellType::AND2)
                                   : (inverting ? CellType::NOR2
                                                : CellType::OR2);
                mkcell(two, live[0], live[1]);
            } else if (m == 1) {
                if (inverting)
                    mkcell(CellType::INV, live[0]);
                else
                    mkalias(live[0]);
            }
            break;
          }
          case CellType::MUX2:
            // in0 = a0, in1 = a1, in2 = sel
            if (in_const[2]) {
                mkalias(in_val[2] ? g.in[1] : g.in[0]);
            } else if (in_gate[0] == in_gate[1] && !in_const[0] &&
                       !in_const[1]) {
                mkalias(g.in[0]);
            } else if (in_const[0] && in_const[1]) {
                if (in_val[0] == in_val[1]) {
                    mkconst(in_val[0]);
                } else if (!in_val[0] && in_val[1]) {
                    mkalias(g.in[2]);  // sel ? 1 : 0 == sel
                } else {
                    mkcell(CellType::INV, g.in[2]);
                }
            } else if (in_const[0] && !in_val[0]) {
                mkcell(CellType::AND2, g.in[2], g.in[1]);
            } else if (in_const[1] && in_val[1]) {
                mkcell(CellType::OR2, g.in[2], g.in[0]);
            }
            break;
          case CellType::AOI21:
            // !((in0 & in1) | in2)
            if (in_const[2] && in_val[2]) {
                mkconst(false);
            } else if (in_const[2]) {
                mkcell(CellType::NAND2, g.in[0], g.in[1]);
            } else if ((in_const[0] && !in_val[0]) ||
                       (in_const[1] && !in_val[1])) {
                mkcell(CellType::INV, g.in[2]);
            } else if (in_const[0] && in_val[0]) {
                mkcell(CellType::NOR2, g.in[1], g.in[2]);
            } else if (in_const[1] && in_val[1]) {
                mkcell(CellType::NOR2, g.in[0], g.in[2]);
            }
            break;
          case CellType::OAI21:
            // !((in0 | in1) & in2)
            if (in_const[2] && !in_val[2]) {
                mkconst(true);
            } else if (in_const[2]) {
                mkcell(CellType::NOR2, g.in[0], g.in[1]);
            } else if ((in_const[0] && in_val[0]) ||
                       (in_const[1] && in_val[1])) {
                mkcell(CellType::INV, g.in[2]);
            } else if (in_const[0] && !in_val[0]) {
                mkcell(CellType::NAND2, g.in[1], g.in[2]);
            } else if (in_const[1] && !in_val[1]) {
                mkcell(CellType::NAND2, g.in[0], g.in[2]);
            }
            break;
          default:
            break;
        }
    }
    return changed;
}

bool
parsePassList(const std::string &list, PassPipelineOptions *opts,
              std::string *err)
{
    // Pass selection always starts from the default configuration;
    // only the knob sub-structs carry over from the caller's struct.
    opts->constantFold = true;
    opts->rewriteSearch = false;
    opts->clockGating = false;
    opts->satNeverToggle = false;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = list.substr(pos, comma - pos);
        // Trim surrounding blanks.
        while (!name.empty() && name.front() == ' ')
            name.erase(name.begin());
        while (!name.empty() && name.back() == ' ')
            name.pop_back();
        if (name.empty() || name == "default") {
            // Keep current settings.
        } else if (name == "none") {
            opts->constantFold = false;
        } else if (name == "constant-fold") {
            opts->constantFold = true;
        } else if (name == "rewrite-search") {
            opts->rewriteSearch = true;
        } else if (name == "clock-gating") {
            opts->clockGating = true;
        } else if (name == "sat-never-toggle" ||
                   name == "sat_never_toggle") {
            opts->satNeverToggle = true;
        } else if (name == "all") {
            opts->constantFold = true;
            opts->rewriteSearch = true;
            opts->clockGating = true;
        } else {
            if (err)
                *err = "unknown pass '" + name + "'";
            return false;
        }
        pos = comma + 1;
    }
    return true;
}

Netlist
runTailorPipeline(const Netlist &src, const ActivityTracker *activity,
                  const PassPipelineOptions &opts, const PassEnv &env,
                  CutStats *stats, PipelineReport *report)
{
    Netlist current = src;
    size_t cut_direct = 0;
    const TimingParams &timing = timingOf(env);
    const PowerParams &power = powerOf(env);

    // The current state's measured activity, replayed on first use and
    // dropped whenever a pass changes the netlist: the metrics snapshot,
    // the SAT pass and the rewrite search share one replay per state.
    std::optional<ToggleCounter> measured;
    const ActivityFn measure = [&]() -> const ToggleCounter & {
        if (!measured) {
            measured.emplace(current);
            env.measureActivity(current, &*measured);
        }
        return *measured;
    };

    // Per-pass metrics measure each netlist state once: a pass's
    // "before" numbers are the previous pass's "after" numbers.
    const bool metrics = report && opts.collectMetrics;
    double power_uw = -1.0, depth_ps = -1.0;
    if (metrics) {
        snapshotMetrics(current, measure, env, timing, power, &power_uw,
                        &depth_ps);
    }
    // A pass that only annotates (clock gating) leaves the netlist as
    // it found it, so its after numbers are its before numbers.
    auto record = [&](const char *name, size_t changes,
                      size_t gates_before, double t0,
                      bool changes_netlist = true) {
        if (changes_netlist)
            measured.reset();
        if (!report)
            return;
        PassStats st;
        st.name = name;
        st.changes = changes;
        st.gatesBefore = gates_before;
        st.gatesAfter = current.numCells();
        st.wallMs = nowMs() - t0;
        st.powerBeforeUW = power_uw;
        st.depthBeforePs = depth_ps;
        if (metrics) {
            if (changes_netlist) {
                snapshotMetrics(current, measure, env, timing, power,
                                &power_uw, &depth_ps);
            }
            st.powerAfterUW = power_uw;
            st.depthAfterPs = depth_ps;
        }
        report->passes.push_back(std::move(st));
    };

    // Cut pass: tie every gate the activity analysis proved
    // untoggleable (or, at module granularity, every gate of a fully
    // idle module) to its proven constant.
    if (activity) {
        bespoke_assert(&activity->netlist() == &src,
                       "activity tracker is for a different netlist");
        double t0 = nowMs();
        size_t before_cells = current.numCells();
        Rewriter rw(current);
        if (!opts.moduleCut) {
            for (GateId i = 0; i < src.size(); i++) {
                const Gate &g = src.gate(i);
                if (cellPseudo(g.type))
                    continue;
                if (g.type == CellType::TIE0 ||
                    g.type == CellType::TIE1) {
                    continue;
                }
                if (!activity->toggled(i)) {
                    Logic v = activity->initialValue(i);
                    bespoke_assert(isKnown(v));
                    rw.makeConstant(i, knownValue(v));
                    cut_direct++;
                }
            }
        } else {
            bool module_used[kNumModules] = {};
            for (GateId i = 0; i < src.size(); i++) {
                const Gate &g = src.gate(i);
                if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
                    g.type == CellType::TIE1) {
                    continue;
                }
                if (activity->toggled(i))
                    module_used[static_cast<int>(g.module)] = true;
            }
            for (GateId i = 0; i < src.size(); i++) {
                const Gate &g = src.gate(i);
                if (cellPseudo(g.type) || g.type == CellType::TIE0 ||
                    g.type == CellType::TIE1) {
                    continue;
                }
                if (!module_used[static_cast<int>(g.module)]) {
                    Logic v = activity->initialValue(i);
                    rw.makeConstant(i, v == Logic::One);
                    cut_direct++;
                }
            }
        }
        current = rw.compact().netlist;
        record(opts.moduleCut ? "cut-modules" : "cut-constants",
               cut_direct, before_cells, t0);
    }

    // Constant folding + dead sweep to fixpoint (legacy re-synthesis;
    // bit-identical to the pre-pipeline flow by construction).
    if (opts.constantFold) {
        double t0 = nowMs();
        size_t before_cells = current.numCells();
        size_t marks = resynthFixpoint(current);
        record("constant-fold", marks, before_cells, t0);
    }

    // SAT never-toggle proving: exact recovery of cut opportunities
    // X-pessimism left behind. Runs before the rewrite search so
    // promoted constants shrink its search space. Its wall time
    // includes its activity replay unless a metrics snapshot has
    // already replayed this netlist state.
    if (opts.satNeverToggle && env.program && env.measureActivity) {
        double t0 = nowMs();
        size_t before_cells = current.numCells();
        size_t n =
            satNeverToggle(current, measure, env, opts.sat, report);
        // Promoted constants fold onward exactly like cut gates.
        if (opts.constantFold && n > 0)
            resynthFixpoint(current);
        record("sat-never-toggle", n, before_cells, t0);
    }

    // Cost-driven datapath rewrite search.
    if (opts.rewriteSearch && env.measureActivity) {
        double t0 = nowMs();
        size_t before_cells = current.numCells();
        size_t n =
            rewriteSearch(current, measure, env, opts.rewrite, report);
        // Rebuilt blocks can fold against constant operands.
        if (opts.constantFold && n > 0)
            resynthFixpoint(current);
        record("rewrite-search", n, before_cells, t0);
    }

    // Clock-gating planning: annotation only, netlist unchanged.
    if (opts.clockGating && env.measureDuty && report) {
        double t0 = nowMs();
        size_t before_cells = current.numCells();
        std::vector<EnableBank> banks = enumerateEnableBanks(current);
        size_t gated = 0;
        if (!banks.empty()) {
            std::vector<GateId> ids;
            for (const EnableBank &b : banks)
                ids.push_back(b.enable);
            std::vector<uint64_t> high;
            uint64_t cycles = 0;
            env.measureDuty(current, ids, &high, &cycles);
            if (cycles > 0) {
                report->gating =
                    planClockGating(banks, high, cycles, power);
                gated = report->gating.banks.size();
            }
        }
        record("clock-gating", gated, before_cells, t0, false);
    }

    current.validate();
    if (stats) {
        stats->gatesBefore = src.numCells();
        stats->gatesCutDirect = cut_direct;
        stats->gatesAfter = current.numCells();
    }
    return current;
}

} // namespace bespoke
