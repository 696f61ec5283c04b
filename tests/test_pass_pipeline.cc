/**
 * @file
 * Pass pipeline: the default configuration must reproduce the original
 * monolithic cut-and-stitch / re-synthesis flow bit-identically (the
 * legacy loops are replicated verbatim here and compared by content
 * hash); per-pass power and depth pinned on the tailored core;
 * pass-list parsing; the cost-driven rewrite search choosing different
 * adder microarchitectures for hot and cold datapaths; clock-gating
 * planning; and the DatapathInstance side-table surviving the
 * canonical JSON roundtrip.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/builder/net_builder.hh"
#include "src/cpu/bsp430.hh"
#include "src/gating/clock_gating.hh"
#include "src/io/netlist_json.hh"
#include "src/sim/gate_sim.hh"
#include "src/timing/sta.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/logging.hh"
#include "src/util/rng.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

/** Random netlist with inputs, combinational soup, flops, outputs. */
Netlist
randomNetlist(Rng &rng, int num_inputs, int num_gates, int num_flops,
              bool with_ties)
{
    Netlist nl;
    NetBuilder b(nl);
    std::vector<GateId> pool;
    for (int i = 0; i < num_inputs; i++)
        pool.push_back(nl.addInput("in[" + std::to_string(i) + "]"));
    if (with_ties) {
        pool.push_back(b.tie0());
        pool.push_back(b.tie1());
    }
    std::vector<GateId> flop_d;
    for (int i = 0; i < num_flops; i++) {
        GateId ph = b.buf(b.tie0());
        flop_d.push_back(ph);
        pool.push_back(b.dff(ph, rng.chance(1, 2)));
    }
    auto pick = [&]() { return pool[rng.below(
        static_cast<uint32_t>(pool.size()))]; };
    for (int i = 0; i < num_gates; i++) {
        CellType types[] = {CellType::INV,   CellType::AND2,
                            CellType::OR2,   CellType::NAND2,
                            CellType::NOR2,  CellType::XOR2,
                            CellType::XNOR2, CellType::MUX2,
                            CellType::AOI21, CellType::OAI21,
                            CellType::AND3,  CellType::OR3,
                            CellType::BUF};
        CellType t = types[rng.below(13)];
        int n = cellNumInputs(t);
        GateId g = nl.addGate(t, Module::Glue, pick(),
                              n > 1 ? pick() : kNoGate,
                              n > 2 ? pick() : kNoGate);
        pool.push_back(g);
    }
    for (GateId ph : flop_d)
        nl.setFanin(ph, 0, pool[rng.below(
            static_cast<uint32_t>(pool.size()))]);
    for (int i = 0; i < 4; i++)
        nl.addOutput("out[" + std::to_string(i) + "]", pick());
    nl.validate();
    return nl;
}

/**
 * The pre-pipeline re-synthesis loop, replicated verbatim: constant
 * propagation to a local fixpoint, compact, dead sweep, repeat until
 * the cell count stops shrinking. The pipeline's constant-fold pass
 * must reproduce this gate for gate.
 */
Netlist
legacyResynthesize(const Netlist &src)
{
    Netlist current = src;
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
            if (total > 0)
                current = rw.compact().netlist;
        }
        current = sweepDead(current).netlist;
        if (current.numCells() >= before)
            break;
    }
    current.validate();
    return current;
}

/** The pre-pipeline cut-and-stitch body, replicated verbatim. */
Netlist
legacyCutAndStitch(const Netlist &src, const ActivityTracker &activity,
                   CutStats *stats)
{
    Rewriter rw(src);
    size_t cut = 0;
    for (GateId i = 0; i < src.size(); i++) {
        const Gate &g = src.gate(i);
        if (cellPseudo(g.type))
            continue;
        if (g.type == CellType::TIE0 || g.type == CellType::TIE1)
            continue;
        if (!activity.toggled(i)) {
            Logic v = activity.initialValue(i);
            bespoke_assert(isKnown(v));
            rw.makeConstant(i, knownValue(v));
            cut++;
        }
    }
    Netlist after_cut = rw.compact().netlist;
    Netlist result = legacyResynthesize(after_cut);
    if (stats) {
        stats->gatesBefore = src.numCells();
        stats->gatesCutDirect = cut;
        stats->gatesAfter = result.numCells();
    }
    return result;
}

/** Simulate `nl` under random known inputs, collecting toggles. */
ActivityTracker
trackRandomStimulus(const Netlist &nl, uint32_t seed, int cycles)
{
    GateSim sim(nl);
    sim.reset();
    std::vector<GateId> ins = nl.inputIds();
    Rng rng(seed);
    for (GateId id : ins)
        sim.setInput(id, logicOf(rng.chance(1, 2)));
    sim.evalComb();
    ActivityTracker tracker(nl);
    tracker.captureInitial(sim);
    for (int c = 0; c < cycles; c++) {
        for (GateId id : ins)
            sim.setInput(id, logicOf(rng.chance(1, 2)));
        sim.evalComb();
        tracker.observe(sim);
        sim.latchSequential();
    }
    return tracker;
}

TEST(PassPipeline, DefaultMatchesLegacyResynthesisBitIdentically)
{
    for (uint32_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
        Rng rng(seed);
        Netlist nl = randomNetlist(rng, 5, 80, 6, /*with_ties=*/true);
        Netlist legacy = legacyResynthesize(nl);
        PassPipelineOptions opts;
        PassEnv env;
        Netlist piped = runTailorPipeline(nl, nullptr, opts, env);
        EXPECT_EQ(piped.contentHash(), legacy.contentHash())
            << "seed " << seed;
    }
}

TEST(PassPipeline, DefaultMatchesLegacyCutAndStitchBitIdentically)
{
    for (uint32_t seed : {21u, 22u, 23u, 24u}) {
        Rng rng(seed);
        Netlist nl = randomNetlist(rng, 6, 90, 5, /*with_ties=*/true);
        ActivityTracker tracker =
            trackRandomStimulus(nl, seed * 31 + 7, 12);

        CutStats lstats;
        Netlist legacy = legacyCutAndStitch(nl, tracker, &lstats);
        CutStats pstats;
        PassPipelineOptions opts;
        PassEnv env;
        Netlist piped =
            runTailorPipeline(nl, &tracker, opts, env, &pstats);

        EXPECT_EQ(piped.contentHash(), legacy.contentHash())
            << "seed " << seed;
        EXPECT_EQ(pstats.gatesBefore, lstats.gatesBefore);
        EXPECT_EQ(pstats.gatesCutDirect, lstats.gatesCutDirect);
        EXPECT_EQ(pstats.gatesAfter, lstats.gatesAfter);
    }
}

TEST(PassPipeline, ReportCarriesPerPassStats)
{
    Rng rng(33);
    Netlist nl = randomNetlist(rng, 5, 60, 4, /*with_ties=*/true);
    ActivityTracker tracker = trackRandomStimulus(nl, 77, 10);

    PassPipelineOptions opts;
    opts.collectMetrics = true;
    PassEnv env;
    CutStats stats;
    PipelineReport report;
    runTailorPipeline(nl, &tracker, opts, env, &stats, &report);

    ASSERT_FALSE(report.passes.empty());
    bool saw_fold = false;
    for (const PassStats &p : report.passes) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_LE(p.gatesAfter, p.gatesBefore);
        if (p.name == "constant-fold")
            saw_fold = true;
        // collectMetrics measures depth; power needs an activity
        // provider, which this env does not supply.
        EXPECT_GE(p.depthBeforePs, 0.0);
        EXPECT_GE(p.depthAfterPs, 0.0);
        EXPECT_EQ(p.powerBeforeUW, -1.0);
        EXPECT_EQ(p.powerAfterUW, -1.0);
    }
    EXPECT_TRUE(saw_fold);
}

/**
 * Every pass on the unsized core tailored to mult, measured with the
 * flow's seeded replay: power needs the activity provider, the
 * clock-gating pass the duty provider, the SAT pass the program.
 * Counts the activity replays the pipeline requests.
 */
Netlist
tailorMultWithEveryPass(bool collect_metrics, PipelineReport *report,
                        size_t *replays)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisResult ar = analyzeActivity(core, app, AnalysisOptions{});
    EXPECT_TRUE(ar.completed);

    PassPipelineOptions opts;
    std::string err;
    EXPECT_TRUE(parsePassList("all,sat-never-toggle", &opts, &err));
    opts.collectMetrics = collect_metrics;
    opts.sat.depth = 30;
    PassEnv env = replayEnv({&app}, 2, 7);
    env.program = &prog;
    *replays = 0;
    env.measureActivity = [replays, replay = env.measureActivity](
                              const Netlist &nl, ToggleCounter *tc) {
        ++*replays;
        replay(nl, tc);
    };
    return runTailorPipeline(core, ar.activity.get(), opts, env, nullptr,
                             report);
}

TEST(PassPipeline, CollectedMetricsArePinned)
{
    PipelineReport report;
    size_t replays = 0;
    Netlist out = tailorMultWithEveryPass(true, &report, &replays);
    // One replay per netlist state, shared by the snapshot, the SAT
    // pass and the rewrite search; the clock-gating pass leaves the
    // netlist as it found it and takes no snapshot of its own.
    EXPECT_EQ(replays, 5u);
    EXPECT_EQ(out.numCells(), 2479u);
    EXPECT_EQ(report.rewrittenInstances, 2u);
    EXPECT_EQ(report.gating.banks.size(), 8u);
    EXPECT_EQ(report.satProven, 256u);

    struct Want
    {
        const char *name;
        size_t gatesBefore, gatesAfter;
        double powerBefore, powerAfter, depthBefore, depthAfter;
    };
    const Want want[] = {
        {"cut-constants", 6642, 4685, 194.11338203883105,
         120.81399247572531, 10283.874999999976, 6940.7000000000044},
        {"constant-fold", 4685, 2896, 120.81399247572531,
         81.137611650485383, 6940.7000000000044, 5621.8000000000056},
        {"sat-never-toggle", 2896, 2463, 81.137611650485383,
         77.539177669903054, 5621.8000000000056, 4911.1000000000022},
        {"rewrite-search", 2463, 2479, 77.539177669903054,
         77.321348543689538, 4911.1000000000022, 4911.1000000000022},
        {"clock-gating", 2479, 2479, 77.321348543689538,
         77.321348543689538, 4911.1000000000022, 4911.1000000000022},
    };
    ASSERT_EQ(report.passes.size(), std::size(want));
    for (size_t k = 0; k < report.passes.size(); k++) {
        const PassStats &p = report.passes[k];
        SCOPED_TRACE(p.name);
        EXPECT_EQ(p.name, want[k].name);
        EXPECT_EQ(p.gatesBefore, want[k].gatesBefore);
        EXPECT_EQ(p.gatesAfter, want[k].gatesAfter);
        EXPECT_EQ(p.powerBeforeUW, want[k].powerBefore);
        EXPECT_EQ(p.powerAfterUW, want[k].powerAfter);
        EXPECT_EQ(p.depthBeforePs, want[k].depthBefore);
        EXPECT_EQ(p.depthAfterPs, want[k].depthAfter);
        // Each netlist state is measured once: a pass starts from the
        // numbers the previous pass ended on.
        if (k > 0) {
            EXPECT_EQ(p.powerBeforeUW, report.passes[k - 1].powerAfterUW);
            EXPECT_EQ(p.depthBeforePs, report.passes[k - 1].depthAfterPs);
        }
    }
}

TEST(PassPipeline, UncollectedMetricsReplayOnlyForPasses)
{
    PipelineReport report;
    size_t replays = 0;
    Netlist out = tailorMultWithEveryPass(false, &report, &replays);
    // Without snapshots only the SAT pass and the rewrite search read
    // activity, each on its own netlist state.
    EXPECT_EQ(replays, 2u);
    EXPECT_EQ(out.numCells(), 2479u);
    EXPECT_EQ(report.rewrittenInstances, 2u);
    EXPECT_EQ(report.gating.banks.size(), 8u);
    EXPECT_EQ(report.satProven, 256u);
}

TEST(PassPipeline, ParsePassList)
{
    std::string err;
    PassPipelineOptions o;

    ASSERT_TRUE(parsePassList("", &o, &err));
    EXPECT_TRUE(o.constantFold);
    EXPECT_FALSE(o.rewriteSearch);
    EXPECT_FALSE(o.clockGating);

    ASSERT_TRUE(parsePassList("default", &o, &err));
    EXPECT_TRUE(o.constantFold);
    EXPECT_FALSE(o.rewriteSearch);
    EXPECT_FALSE(o.clockGating);

    ASSERT_TRUE(parsePassList("none", &o, &err));
    EXPECT_FALSE(o.constantFold);
    EXPECT_FALSE(o.rewriteSearch);
    EXPECT_FALSE(o.clockGating);

    ASSERT_TRUE(parsePassList("all", &o, &err));
    EXPECT_TRUE(o.constantFold);
    EXPECT_TRUE(o.rewriteSearch);
    EXPECT_TRUE(o.clockGating);

    ASSERT_TRUE(parsePassList("rewrite-search,clock-gating", &o, &err));
    EXPECT_TRUE(o.constantFold);
    EXPECT_TRUE(o.rewriteSearch);
    EXPECT_TRUE(o.clockGating);

    ASSERT_TRUE(parsePassList("constant-fold", &o, &err));
    EXPECT_TRUE(o.constantFold);
    EXPECT_FALSE(o.rewriteSearch);
    EXPECT_FALSE(o.clockGating);

    err.clear();
    EXPECT_FALSE(parsePassList("turbo-encabulate", &o, &err));
    EXPECT_FALSE(err.empty());
}

/**
 * Two same-width carry-select adders: "h*" operands toggle every cycle,
 * "c*" operands never move. Same depth, same gate count — only the
 * measured activity distinguishes them, so any divergence in the chosen
 * AdderKind is the cost model weighing dynamic power against the
 * shared timing penalty.
 */
Netlist
twoAdderDesign()
{
    Netlist nl;
    NetBuilder b(nl);
    b.setAdderKind(AdderKind::CarrySelect);
    Bus ha = b.inputBus("ha", 16);
    Bus hb = b.inputBus("hb", 16);
    GateId hcin = nl.addInput("hcin");
    Bus ca = b.inputBus("ca", 16);
    Bus cb = b.inputBus("cb", 16);
    GateId ccin = nl.addInput("ccin");
    AddResult hot = b.adder(ha, hb, hcin);
    AddResult cold = b.adder(ca, cb, ccin);
    b.outputBus("hsum", hot.sum);
    b.outputBus("csum", cold.sum);
    nl.addOutput("hcout", hot.carryOut);
    nl.addOutput("ccout", cold.carryOut);
    nl.validate();
    return nl;
}

/** Drive h*-inputs with random known bits, c*-inputs with zero. */
void
measureHotCold(const Netlist &nl, ToggleCounter *tc)
{
    GateSim sim(nl);
    sim.reset();
    Rng rng(4242);
    for (int c = 0; c < 64; c++) {
        for (GateId id : nl.inputIds()) {
            bool hot = nl.name(id)[0] == 'h';
            sim.setInput(id, hot ? logicOf(rng.chance(1, 2))
                                 : Logic::Zero);
        }
        sim.evalComb();
        tc->observe(sim);
        sim.latchSequential();
    }
}

/** Variant of the adder instance driving port `port0`'s net. */
int
adderVariantFor(const Netlist &nl, const std::string &port0)
{
    GateId net = nl.gate(nl.port(port0)).in[0];
    for (const DatapathInstance &inst : nl.instances()) {
        if (inst.kind != InstanceKind::Adder)
            continue;
        for (GateId o : inst.outputs) {
            if (o == net)
                return inst.variant;
        }
    }
    return -1;
}

/**
 * Evaluate both netlists on the same stimulus (which may contain X)
 * and require agreement wherever both outputs are known.
 */
void
expectAgreeOnKnownOutputs(const Netlist &a, const Netlist &b,
                          uint32_t seed, int vectors, bool with_x)
{
    GateSim sa(a), sb(b);
    sa.reset();
    sb.reset();
    Rng rng(seed);
    for (int v = 0; v < vectors; v++) {
        for (GateId id : a.inputIds()) {
            Logic val = logicOf(rng.chance(1, 2));
            if (with_x && rng.chance(1, 4))
                val = Logic::X;
            sa.setInput(id, val);
            sb.setInput(b.port(a.name(id)), val);
        }
        sa.evalComb();
        sb.evalComb();
        for (GateId id : a.outputIds()) {
            Logic va = sa.value(id);
            Logic vb = sb.value(b.port(a.name(id)));
            if (with_x) {
                if (isKnown(va) && isKnown(vb)) {
                    ASSERT_EQ(va, vb) << a.name(id) << " vector " << v;
                }
            } else {
                ASSERT_EQ(va, vb) << a.name(id) << " vector " << v;
            }
        }
    }
}

TEST(PassPipeline, RewriteSearchSplitsHotAndColdAdders)
{
    Netlist nl = twoAdderDesign();

    // Sweep the timing-penalty weight across decades. At some lambda
    // the cold adder's leakage-only ripple gain is outweighed by the
    // shared depth penalty while the hot adder's dynamic-power gain is
    // not (or vice versa): the two instances must diverge somewhere.
    bool diverged = false;
    for (double lambda :
         {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
          10.0, 30.0, 100.0}) {
        PassPipelineOptions opts;
        opts.rewriteSearch = true;
        opts.rewrite.lambdaUWPerPs = lambda;
        opts.rewrite.minGainFraction = 0.0;
        PassEnv env;
        // A budget far below any candidate's depth: every candidate
        // pays the same nominal voltage, and the depth term reduces to
        // lambda x critical path, identical for the two same-width
        // instances — activity is the only asymmetry.
        env.clockPeriodPs = 1.0;
        env.measureActivity = measureHotCold;

        PipelineReport report;
        Netlist out =
            runTailorPipeline(nl, nullptr, opts, env, nullptr, &report);
        int hot = adderVariantFor(out, "hsum[0]");
        int cold = adderVariantFor(out, "csum[0]");
        ASSERT_GE(hot, 0) << "hot adder instance lost";
        ASSERT_GE(cold, 0) << "cold adder instance lost";

        if (hot != cold) {
            diverged = true;
            EXPECT_GE(report.rewrittenInstances, 1u);
            // Whatever shapes won, the design must still add: exact
            // agreement on known stimulus, agreement wherever both are
            // known once X enters.
            expectAgreeOnKnownOutputs(nl, out, 99, 32, /*with_x=*/false);
            expectAgreeOnKnownOutputs(nl, out, 101, 16, /*with_x=*/true);
            break;
        }
    }
    EXPECT_TRUE(diverged)
        << "no lambda made hot and cold adders pick different kinds";
}

TEST(PassPipeline, RewriteSearchOutputStaysEquivalent)
{
    // Even at the extremes of the lambda sweep (all-ripple and
    // all-carry-select outcomes) the rewritten designs must behave
    // identically to the original.
    Netlist nl = twoAdderDesign();
    for (double lambda : {1e-4, 100.0}) {
        PassPipelineOptions opts;
        opts.rewriteSearch = true;
        opts.rewrite.lambdaUWPerPs = lambda;
        opts.rewrite.minGainFraction = 0.0;
        PassEnv env;
        env.clockPeriodPs = 1.0;
        env.measureActivity = measureHotCold;
        Netlist out = runTailorPipeline(nl, nullptr, opts, env);
        expectAgreeOnKnownOutputs(nl, out, 7, 24, /*with_x=*/false);
        expectAgreeOnKnownOutputs(nl, out, 9, 12, /*with_x=*/true);
    }
}

TEST(PassPipeline, LambdaSweepRecombinationMatchesFullPipeline)
{
    // One cached scoring pass, recombined per λ, must predict exactly
    // what the rewrite-search pipeline commits at that λ — the
    // contract bench/resynth_cost's λ-sweep relies on to avoid
    // re-running the variant rebuild per λ point.
    Netlist nl = twoAdderDesign();
    PassEnv env;
    env.clockPeriodPs = 1.0;
    env.measureActivity = measureHotCold;

    RewriteSearchOptions sopts;
    sopts.minGainFraction = 0.0;

    double period = 0.0;
    const std::vector<RewriteVariantScore> scores =
        scoreRewriteCandidates(nl, env, &period);
    EXPECT_EQ(period, env.clockPeriodPs);
    ASSERT_FALSE(scores.empty());

    // Predicted final variant of the adder driving `port0`: the cached
    // decision's variant if one exists for that instance, the existing
    // shape otherwise.
    auto predicted =
        [&](const std::vector<std::pair<size_t, uint8_t>> &decisions,
            const std::string &port0) {
            GateId net = nl.gate(nl.port(port0)).in[0];
            for (size_t k = 0; k < nl.instances().size(); k++) {
                const DatapathInstance &inst = nl.instances()[k];
                bool drives = false;
                for (GateId o : inst.outputs)
                    drives = drives || o == net;
                if (!drives)
                    continue;
                for (auto [dk, dv] : decisions) {
                    if (dk == k)
                        return int(dv);
                }
                return int(inst.variant);
            }
            return -1;
        };

    for (double lambda : {1e-4, 1e-2, 1.0, 100.0}) {
        RewriteSearchOptions lopts = sopts;
        lopts.lambdaUWPerPs = lambda;
        std::vector<std::pair<size_t, uint8_t>> decisions =
            rewriteDecisionsAtLambda(scores, lopts, period);

        PassPipelineOptions popts;
        popts.rewriteSearch = true;
        popts.rewrite = lopts;
        PipelineReport report;
        Netlist out =
            runTailorPipeline(nl, nullptr, popts, env, nullptr, &report);
        EXPECT_EQ(report.rewrittenInstances, decisions.size())
            << "lambda " << lambda;
        EXPECT_EQ(adderVariantFor(out, "hsum[0]"),
                  predicted(decisions, "hsum[0]"))
            << "lambda " << lambda;
        EXPECT_EQ(adderVariantFor(out, "csum[0]"),
                  predicted(decisions, "csum[0]"))
            << "lambda " << lambda;
    }
}

TEST(ClockGating, EnumerateGroupsByEnableInAscendingOrder)
{
    Netlist nl;
    NetBuilder b(nl);
    GateId en1 = nl.addInput("en1");
    GateId en2 = nl.addInput("en2");
    Bus d1 = b.inputBus("d1", 4);
    Bus d2 = b.inputBus("d2", 6);
    Bus q1 = b.regBus(d1, en1, 0);
    Bus q2 = b.regBus(d2, en2, 0);
    GateId plain = b.dff(d1[0]);
    b.outputBus("q1", q1);
    b.outputBus("q2", q2);
    nl.addOutput("qp", plain);
    nl.validate();

    std::vector<EnableBank> banks = enumerateEnableBanks(nl);
    ASSERT_EQ(banks.size(), 2u);
    EXPECT_EQ(banks[0].enable, en1);
    EXPECT_EQ(banks[0].flops.size(), 4u);
    EXPECT_EQ(banks[1].enable, en2);
    EXPECT_EQ(banks[1].flops.size(), 6u);
    // Plain DFFs have no enable net and join no bank.
    for (const EnableBank &bank : banks) {
        for (GateId f : bank.flops) {
            EXPECT_NE(f, plain);
        }
    }
}

TEST(ClockGating, PlanAcceptsOnlyProfitableRareBanks)
{
    double p = perFlopClockUW();
    ASSERT_GT(p, 0.0);

    std::vector<EnableBank> banks(4);
    banks[0].enable = 10;
    banks[0].flops.assign(8, 100);  // duty 0.1: profitable
    banks[1].enable = 11;
    banks[1].flops.assign(2, 200);  // too narrow (kMinGatedBankBits = 4)
    banks[2].enable = 12;
    banks[2].flops.assign(8, 300);  // duty 0.9: written too often
    banks[3].enable = 13;
    banks[3].flops.assign(4, 400);  // duty exactly kMaxGatedDuty

    std::vector<uint64_t> high = {10, 0, 90, 25};
    ClockGatingReport rep = planClockGating(banks, high, 100);

    EXPECT_EQ(rep.candidateBanks, 4u);
    EXPECT_EQ(rep.cyclesObserved, 100u);
    ASSERT_EQ(rep.banks.size(), 2u);
    EXPECT_EQ(rep.banks[0].enable, 10u);
    EXPECT_EQ(rep.banks[0].flops, 8u);
    EXPECT_NEAR(rep.banks[0].duty, 0.1, 1e-12);
    // saved = ((1 - duty) x B - kIcgFlopEquivalents) x per-flop power.
    EXPECT_NEAR(rep.banks[0].savedUW, (0.9 * 8 - 1.5) * p, 1e-9);
    // The boundary bank is accepted: (0.75 x 4 - 1.5) > 0.
    EXPECT_EQ(rep.banks[1].enable, 13u);
    EXPECT_NEAR(rep.banks[1].savedUW, (0.75 * 4 - 1.5) * p, 1e-9);
    EXPECT_NEAR(rep.savedClockUW,
                rep.banks[0].savedUW + rep.banks[1].savedUW, 1e-12);
    EXPECT_EQ(rep.gatedFlops(), 12u);
}

TEST(ClockGating, PipelinePassPlansFromDutyProvider)
{
    Netlist nl;
    NetBuilder b(nl);
    Bus d = b.inputBus("d", 8);
    GateId en = nl.addInput("en");
    Bus q = b.regBus(d, en, 0);
    b.outputBus("q", q);
    nl.validate();

    PassPipelineOptions opts;
    opts.clockGating = true;
    PassEnv env;
    env.measureDuty = [](const Netlist & /*nl*/,
                         const std::vector<GateId> &ids,
                         std::vector<uint64_t> *high, uint64_t *cycles) {
        high->assign(ids.size(), 5);
        *cycles = 50;
    };

    CutStats stats;
    PipelineReport report;
    Netlist out =
        runTailorPipeline(nl, nullptr, opts, env, &stats, &report);

    // Annotation-only: the emitted netlist is untouched.
    EXPECT_EQ(out.contentHash(), nl.contentHash());
    EXPECT_EQ(report.gating.candidateBanks, 1u);
    ASSERT_EQ(report.gating.banks.size(), 1u);
    EXPECT_EQ(report.gating.banks[0].flops, 8u);
    EXPECT_NEAR(report.gating.banks[0].duty, 0.1, 1e-12);
    EXPECT_GT(report.gating.savedClockUW, 0.0);
    bool saw_pass = false;
    for (const PassStats &p : report.passes)
        saw_pass = saw_pass || p.name == "clock-gating";
    EXPECT_TRUE(saw_pass);
}

TEST(PassPipeline, InstanceTableSurvivesJsonRoundtrip)
{
    Netlist nl;
    NetBuilder b(nl);
    b.setAdderKind(AdderKind::CarryLookahead);
    Bus a = b.inputBus("a", 8);
    Bus c = b.inputBus("b", 8);
    GateId cin = nl.addInput("cin");
    AddResult r = b.adder(a, c, cin);
    b.outputBus("s", r.sum);
    Bus sel = b.inputBus("sel", 2);
    Bus m = b.muxTree(sel, {NetBuilder::slice(a, 0, 4),
                            NetBuilder::slice(a, 4, 4),
                            NetBuilder::slice(c, 0, 4),
                            NetBuilder::slice(c, 4, 4)});
    b.outputBus("m", m);
    nl.validate();
    ASSERT_GE(nl.instances().size(), 2u);

    NetlistJsonResult rt = netlistFromJson(netlistToJson(nl));
    ASSERT_TRUE(rt.ok) << rt.error;
    EXPECT_EQ(rt.netlist.contentHash(), nl.contentHash());
    ASSERT_EQ(rt.netlist.instances().size(), nl.instances().size());
    for (size_t k = 0; k < nl.instances().size(); k++) {
        const DatapathInstance &x = nl.instances()[k];
        const DatapathInstance &y = rt.netlist.instances()[k];
        EXPECT_EQ(x.kind, y.kind) << "instance " << k;
        EXPECT_EQ(x.module, y.module) << "instance " << k;
        EXPECT_EQ(x.variant, y.variant) << "instance " << k;
        EXPECT_EQ(x.shape, y.shape) << "instance " << k;
        EXPECT_EQ(x.inputs, y.inputs) << "instance " << k;
        EXPECT_EQ(x.outputs, y.outputs) << "instance " << k;
    }
}

} // namespace
} // namespace bespoke
