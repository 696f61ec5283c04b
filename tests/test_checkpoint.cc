/**
 * @file
 * Flow checkpointing: a killed run resumes at the last completed stage
 * and reproduces the uninterrupted flow bit for bit (same untoggled
 * set, identical area/power/timing doubles); a repeated run
 * short-circuits every stage; corrupt or foreign artifacts are treated
 * as misses and recomputed, never trusted. A SIGKILLed process's store
 * serves the rerun the same way.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/bespoke/checkpoint.hh"
#include "src/bespoke/flow.hh"
#include "src/mutation/mutation.hh"

namespace fs = std::filesystem;

namespace bespoke
{
namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "bespoke_" + name;
    fs::remove_all(dir);
    return dir;
}

size_t
fileCount(const std::string &dir)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        n += e.is_regular_file();
    return n;
}

/** The one artifact file whose name contains `stage`. */
std::string
stageFile(const std::string &dir, const std::string &stage)
{
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().filename().string().find("." + stage + ".") !=
            std::string::npos)
            return e.path().string();
    }
    ADD_FAILURE() << "no " << stage << " artifact in " << dir;
    return "";
}

FlowOptions
fastOpts(const std::string &dir = "")
{
    FlowOptions opts;
    opts.powerInputsPerWorkload = 1;
    opts.checkpointDir = dir;
    return opts;
}

void
expectSameDesign(const BespokeDesign &a, const BespokeDesign &b)
{
    // Netlists bit-identical (id-exact, not just isomorphic).
    ASSERT_EQ(a.netlist.size(), b.netlist.size());
    EXPECT_EQ(a.netlist.contentHash(), b.netlist.contentHash());
    for (GateId i = 0; i < a.netlist.size(); i++) {
        const Gate &ga = a.netlist.gate(i);
        const Gate &gb = b.netlist.gate(i);
        ASSERT_TRUE(ga.type == gb.type && ga.drive == gb.drive &&
                    ga.module == gb.module &&
                    ga.resetValue == gb.resetValue &&
                    ga.in[0] == gb.in[0] && ga.in[1] == gb.in[1] &&
                    ga.in[2] == gb.in[2])
            << "gate " << i << " differs";
    }

    EXPECT_EQ(a.cut.gatesBefore, b.cut.gatesBefore);
    EXPECT_EQ(a.cut.gatesCutDirect, b.cut.gatesCutDirect);
    EXPECT_EQ(a.cut.gatesAfter, b.cut.gatesAfter);

    // Same untoggled-gate set and proven constants.
    const ActivityTracker &ta = *a.analysis.activity;
    const ActivityTracker &tb = *b.analysis.activity;
    ASSERT_EQ(ta.netlist().size(), tb.netlist().size());
    for (GateId i = 0; i < ta.netlist().size(); i++) {
        ASSERT_EQ(ta.toggled(i), tb.toggled(i)) << "gate " << i;
        if (!ta.toggled(i)) {
            ASSERT_EQ(ta.initialValue(i), tb.initialValue(i))
                << "gate " << i;
        }
    }
    EXPECT_EQ(a.analysis.pathsExplored, b.analysis.pathsExplored);
    EXPECT_EQ(a.analysis.cyclesSimulated, b.analysis.cyclesSimulated);
    EXPECT_EQ(a.analysis.merges, b.analysis.merges);
    EXPECT_EQ(a.analysis.forks, b.analysis.forks);

    // Metrics doubles must be exactly equal, not approximately: the
    // JSON round trip uses %.17g, which is lossless for doubles.
    EXPECT_EQ(a.metrics.gates, b.metrics.gates);
    EXPECT_EQ(a.metrics.flops, b.metrics.flops);
    EXPECT_EQ(a.metrics.areaUm2, b.metrics.areaUm2);
    EXPECT_EQ(a.metrics.criticalPathPs, b.metrics.criticalPathPs);
    EXPECT_EQ(a.metrics.slackFraction, b.metrics.slackFraction);
    EXPECT_EQ(a.metrics.vmin, b.metrics.vmin);
    EXPECT_EQ(a.metrics.powerNominal.switchingUW,
              b.metrics.powerNominal.switchingUW);
    EXPECT_EQ(a.metrics.powerNominal.clockUW,
              b.metrics.powerNominal.clockUW);
    EXPECT_EQ(a.metrics.powerNominal.leakageUW,
              b.metrics.powerNominal.leakageUW);
    EXPECT_EQ(a.metrics.powerAtVmin.switchingUW,
              b.metrics.powerAtVmin.switchingUW);
    EXPECT_EQ(a.metrics.powerAtVmin.clockUW,
              b.metrics.powerAtVmin.clockUW);
    EXPECT_EQ(a.metrics.powerAtVmin.leakageUW,
              b.metrics.powerAtVmin.leakageUW);
}

TEST(Checkpoint, ResumeAndShortCircuitAreBitIdentical)
{
    std::string dir = freshDir("ckpt_resume");
    const Workload &w = workloadByName("div");

    // Reference: uninterrupted flow, no checkpointing at all.
    BespokeFlow cold(fastOpts());
    EXPECT_FALSE(cold.checkpoints().enabled());
    BespokeDesign ref = cold.tailor(w);

    // A run that is killed after the analysis stage: only the analysis
    // artifact lands in the store.
    {
        BespokeFlow partial(fastOpts(dir));
        ASSERT_TRUE(partial.checkpoints().enabled());
        AnalysisResult r = partial.analyze(w);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(partial.checkpoints().hits(), 0u);
        EXPECT_EQ(partial.checkpoints().misses(), 1u);
    }
    EXPECT_EQ(fileCount(dir), 1u);
    stageFile(dir, "analysis");

    // Resume: the analysis stage loads, cut + measure run and are
    // saved. The result matches the uninterrupted flow bit for bit.
    {
        BespokeFlow resumed(fastOpts(dir));
        BespokeDesign d = resumed.tailor(w);
        EXPECT_EQ(resumed.checkpoints().hits(), 1u);
        EXPECT_EQ(resumed.checkpoints().misses(), 2u);
        expectSameDesign(ref, d);
    }
    EXPECT_EQ(fileCount(dir), 3u);
    stageFile(dir, "design");
    stageFile(dir, "metrics");

    // Repeat: every stage short-circuits, nothing recomputes.
    {
        BespokeFlow warm(fastOpts(dir));
        BespokeDesign d = warm.tailor(w);
        EXPECT_EQ(warm.checkpoints().hits(), 3u);
        EXPECT_EQ(warm.checkpoints().misses(), 0u);
        expectSameDesign(ref, d);
    }
    EXPECT_EQ(fileCount(dir), 3u);

    fs::remove_all(dir);
}

TEST(Checkpoint, LaneWidthNeverChangesTheServedDesign)
{
    // laneWidth stays out of the checkpoint key: it only selects how
    // the one exploration schedule advances its lanes, so a design
    // stored at one width is exactly what any other width computes —
    // including the SAT depth `sat.depth = 0` resolves to (the
    // analysis's cyclesSimulated, compared by expectSameDesign).
    std::string dir = freshDir("ckpt_lanes");
    Workload w;
    for (Mutant &m : generateMutants(workloadByName("binSearch"))) {
        if (m.workload.name == "binSearch-mut3-rra2rla")
            w = std::move(m.workload);
    }
    ASSERT_FALSE(w.name.empty());
    auto opts_at = [&](int lanes, const std::string &d) {
        FlowOptions o = fastOpts(d);
        o.analysis.laneWidth = lanes;
        // A ~1.4k-frame horizon, proven on a one-conflict budget: the
        // cheapest run that still resolves and applies the auto depth.
        o.analysis.concreteVisits = 1;
        o.passes.satNeverToggle = true;
        o.passes.sat.depth = 0;  // the analysis's own horizon
        o.passes.sat.conflictBudget = 1;
        return o;
    };
    {
        BespokeFlow stored(opts_at(1, dir));
        stored.tailor(w);
    }
    BespokeFlow served(opts_at(64, dir));
    BespokeDesign d = served.tailor(w);
    EXPECT_EQ(served.checkpoints().hits(), 3u);
    EXPECT_EQ(served.checkpoints().misses(), 0u);

    BespokeFlow fresh(opts_at(64, ""));
    expectSameDesign(fresh.tailor(w), d);
    fs::remove_all(dir);
}

TEST(Checkpoint, CorruptArtifactsAreRecomputedNotTrusted)
{
    std::string dir = freshDir("ckpt_corrupt");
    const Workload &w = workloadByName("div");

    BespokeFlow seeder(fastOpts(dir));
    BespokeDesign ref = seeder.tailor(w);

    // Truncated design artifact: unparseable -> miss -> recompute.
    std::string design_path = stageFile(dir, "design");
    std::string text;
    {
        std::ifstream in(design_path, std::ios::binary);
        text.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }
    {
        std::ofstream out(design_path, std::ios::binary);
        out << text.substr(0, text.size() / 2);
    }
    {
        BespokeFlow f(fastOpts(dir));
        BespokeDesign d = f.tailor(w);
        expectSameDesign(ref, d);
        EXPECT_GE(f.checkpoints().misses(), 1u);
    }

    // Valid JSON, wrong shape: deserializer rejects, flow recomputes.
    {
        std::ofstream out(design_path, std::ios::binary);
        out << "{\"format\": \"bespoke-checkpoint\", \"version\": 1, "
               "\"stage\": \"design\"}\n";
    }
    {
        BespokeFlow f(fastOpts(dir));
        BespokeDesign d = f.tailor(w);
        expectSameDesign(ref, d);
    }

    // A design artifact whose embedded netlist was edited fails the
    // content-hash check inside netlistFromJson and is recomputed.
    {
        size_t pos = text.find("\"alu\"");
        if (pos != std::string::npos) {
            std::string tampered = text;
            tampered.replace(pos, 5, "\"sfr\"");
            std::ofstream out(design_path, std::ios::binary);
            out << tampered;
            BespokeFlow f(fastOpts(dir));
            BespokeDesign d = f.tailor(w);
            expectSameDesign(ref, d);
        }
    }

    fs::remove_all(dir);
}

TEST(Checkpoint, KeysTrackContentNotNames)
{
    const Workload &a = workloadByName("div");
    const Workload &b = workloadByName("mult");
    EXPECT_NE(hashProgram(a.assembleProgram()),
              hashProgram(b.assembleProgram()));
    EXPECT_EQ(hashProgram(a.assembleProgram()),
              hashProgram(a.assembleProgram()));

    AnalysisOptions ao;
    uint64_t base = hashAnalysisOptions(ao);
    ao.simMode = GateSim::EvalMode::FullEval;
    ao.laneWidth = 1;
    // Gate engine and lane evaluator do not affect results, so
    // artifacts are shared across them.
    EXPECT_EQ(hashAnalysisOptions(ao), base);
    ao.concreteVisits++;
    EXPECT_NE(hashAnalysisOptions(ao), base);

    FlowOptions fo;
    uint64_t fbase = hashFlowOptions(fo);
    fo.checkpointDir = "/somewhere/else";
    EXPECT_EQ(hashFlowOptions(fo), fbase);
    fo.powerSeed++;
    EXPECT_NE(hashFlowOptions(fo), fbase);
    fo = FlowOptions();
    fo.timing.x2LoadThreshold += 1.0;
    EXPECT_NE(hashFlowOptions(fo), fbase);
    fo = FlowOptions();
    fo.analysis.maxPaths++;
    EXPECT_NE(hashFlowOptions(fo), fbase);
}

TEST(Checkpoint, MetricsSerializationIsLossless)
{
    DesignMetrics m;
    m.gates = 12345;
    m.flops = 678;
    m.areaUm2 = 1.0 / 3.0;
    m.criticalPathPs = 9876.54321e-3;
    m.slackFraction = 0.1 + 0.2;  // famously not 0.3
    m.powerNominal = {1e-17, 2.0 / 7.0, 3.14159265358979312};
    m.vmin = 0.55000000000000004;
    m.powerAtVmin = {4.0 / 9.0, 5e300, 6e-300};

    // Through text, as the store writes it, not just the document tree.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(metricsToJson(m).dump(1), doc, err))
        << err;
    DesignMetrics r;
    ASSERT_TRUE(metricsFromJson(doc, &r, &err)) << err;
    EXPECT_EQ(m.gates, r.gates);
    EXPECT_EQ(m.flops, r.flops);
    EXPECT_EQ(m.areaUm2, r.areaUm2);
    EXPECT_EQ(m.criticalPathPs, r.criticalPathPs);
    EXPECT_EQ(m.slackFraction, r.slackFraction);
    EXPECT_EQ(m.powerNominal.switchingUW, r.powerNominal.switchingUW);
    EXPECT_EQ(m.powerNominal.clockUW, r.powerNominal.clockUW);
    EXPECT_EQ(m.powerNominal.leakageUW, r.powerNominal.leakageUW);
    EXPECT_EQ(m.vmin, r.vmin);
    EXPECT_EQ(m.powerAtVmin.switchingUW, r.powerAtVmin.switchingUW);
    EXPECT_EQ(m.powerAtVmin.clockUW, r.powerAtVmin.clockUW);
    EXPECT_EQ(m.powerAtVmin.leakageUW, r.powerAtVmin.leakageUW);

    // Envelope checks: wrong stage rejected.
    ASSERT_TRUE(metricsFromJson(doc, &r, &err));
    JsonValue design = designToJson(Netlist(), CutStats{});
    EXPECT_FALSE(metricsFromJson(design, &r, &err));
    EXPECT_NE(err.find("stage"), std::string::npos);
}

TEST(Checkpoint, AnalysisArtifactValidation)
{
    Netlist nl;
    GateId a = nl.addInput("a");
    GateId b = nl.addInput("b");
    GateId n = nl.addGate(CellType::NAND2, Module::Alu, a, b);
    nl.addOutput("y", n);

    AnalysisResult r;
    r.activity = std::make_unique<ActivityTracker>(nl);
    std::vector<uint8_t> init(nl.size(),
                              static_cast<uint8_t>(Logic::Zero));
    std::vector<uint8_t> tog(nl.size(), 0);
    init[n] = static_cast<uint8_t>(Logic::X);
    tog[n] = 1;
    r.activity->restore(init, tog);
    r.completed = true;
    r.pathsExplored = 3;
    r.cyclesSimulated = 99;

    JsonValue doc = analysisToJson(r);
    AnalysisResult back;
    std::string err;
    ASSERT_TRUE(analysisFromJson(doc, nl, &back, &err)) << err;
    EXPECT_TRUE(back.completed);
    EXPECT_EQ(back.pathsExplored, 3u);
    EXPECT_EQ(back.cyclesSimulated, 99u);
    EXPECT_EQ(doc.find("threads"), nullptr);
    EXPECT_EQ(doc.find("workers"), nullptr);
    for (GateId i = 0; i < nl.size(); i++) {
        EXPECT_EQ(back.activity->toggled(i), r.activity->toggled(i));
        EXPECT_EQ(back.activity->initialValue(i),
                  r.activity->initialValue(i));
    }

    // Artifact for a different-sized netlist is rejected.
    Netlist bigger = nl;
    bigger.addGate(CellType::INV, Module::Alu, n);
    EXPECT_FALSE(analysisFromJson(doc, bigger, &back, &err));
    EXPECT_NE(err.find("-gate netlist"), std::string::npos);

    // An X initial value must be marked toggled.
    JsonValue bad = analysisToJson(r);
    std::string flags = bad.find("toggled")->asString();
    flags[n] = '0';
    bad.set("toggled", JsonValue::str(flags));
    EXPECT_FALSE(analysisFromJson(bad, nl, &back, &err));
    EXPECT_NE(err.find("not marked toggled"), std::string::npos);
}

TEST(Checkpoint, LegacyThreadKeysServeTheSameDesign)
{
    // Analysis artifacts written while the analysis ran on worker
    // threads also carry "threads" and "workers". They must still load,
    // and the design rebuilt from one must be what a fresh flow
    // computes.
    std::string dir = freshDir("ckpt_legacy");
    const Workload &w = workloadByName("div");
    {
        BespokeFlow seeder(fastOpts(dir));
        seeder.tailor(w);
    }

    std::string analysis_path = stageFile(dir, "analysis");
    JsonValue doc;
    {
        std::ifstream in(analysis_path, std::ios::binary);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        std::string err;
        ASSERT_TRUE(JsonValue::parse(text, doc, err)) << err;
    }
    EXPECT_EQ(doc.find("threads"), nullptr);
    doc.set("threads", JsonValue::number(4));
    JsonValue workers = JsonValue::array();
    for (int i = 0; i < 4; i++) {
        JsonValue jw = JsonValue::array();
        jw.push(JsonValue::number(55));
        jw.push(JsonValue::number(780));
        workers.push(std::move(jw));
    }
    doc.set("workers", std::move(workers));
    // A measured field the design does not depend on marks the served
    // analysis as the stored one rather than a recomputation.
    doc.set("seconds", JsonValue::number(1234.5));
    {
        std::ofstream out(analysis_path, std::ios::binary);
        out << doc.dump(1) << "\n";
    }
    fs::remove(stageFile(dir, "design"));
    fs::remove(stageFile(dir, "metrics"));

    BespokeFlow served(fastOpts(dir));
    BespokeDesign d = served.tailor(w);
    EXPECT_EQ(d.analysis.seconds, 1234.5);
    BespokeFlow fresh(fastOpts());
    expectSameDesign(fresh.tailor(w), d);
    fs::remove_all(dir);
}

TEST(Checkpoint, DisabledStoreIsInert)
{
    CheckpointStore store;
    EXPECT_FALSE(store.enabled());
    JsonValue doc;
    EXPECT_FALSE(store.load({1, 2, 3}, "analysis", &doc));
    store.save({1, 2, 3}, "analysis", JsonValue::object());
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 0u);
}

TEST(Checkpoint, ConcurrentSameKeySaversNeverTearAReader)
{
    // Two writers race atomic saves of the same artifact while a
    // reader loops loads. Writer-unique temp files mean every rename
    // publishes a complete document: the reader must never see a
    // missing, truncated, or interleaved file. (The old shared
    // `<final>.tmp` name tore exactly this pattern.)
    std::string dir = freshDir("concurrent_save");
    CheckpointStore store(dir);
    CheckpointKey key{7, 7, 7};
    JsonValue doc = JsonValue::object();
    JsonValue arr = JsonValue::array();
    for (int i = 0; i < 4000; i++)
        arr.push(JsonValue::number(i * 1.5));
    doc.set("payload", std::move(arr));
    const std::string want = doc.dump();
    store.save(key, "metrics", doc);

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    auto writer = [&] {
        while (!stop.load())
            store.save(key, "metrics", doc);
    };
    std::thread w1(writer), w2(writer);
    std::thread reader([&] {
        while (!stop.load()) {
            JsonValue out;
            if (!store.load(key, "metrics", &out) ||
                out.dump() != want)
                torn.fetch_add(1);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    w1.join();
    w2.join();
    reader.join();
    EXPECT_EQ(torn.load(), 0);

    // The racing renames must not leak temp files either.
    size_t tmps = 0;
    for (const auto &e : fs::directory_iterator(dir))
        tmps += e.path().filename().string().find(".tmp.") !=
                std::string::npos;
    EXPECT_EQ(tmps, 0u);
    fs::remove_all(dir);
}

// A process killed between tailoring runs resumes from its store. The
// suite is named FlowResume, not Checkpoint, so the TSan CI step
// (`-R Checkpoint`) leaves out the fork + SIGKILL machinery.
TEST(FlowResume, KilledRunResumesBitIdenticalAndShortCircuits)
{
    std::string dir = freshDir("flow_resume");
    std::string sentinel = freshDir("flow_resume_sentinel");
    const std::vector<const char *> apps = {"mult", "div", "binSearch"};

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: tailor the first app, publish that it finished, and
        // stall so the parent's SIGKILL lands before the next app
        // starts.
        BespokeFlow flow(fastOpts(dir));
        BespokeDesign d;
        std::string err;
        if (!flow.tryTailor(workloadByName(apps[0]), &d, &err))
            _exit(1);
        std::string tmp = sentinel + ".tmp";
        std::ofstream(tmp) << apps[0];
        fs::rename(tmp, sentinel);
        for (;;)
            pause();
    }

    // Reap the child on every path: a stalled child left behind would
    // hold the test's output pipe open.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    int status = 0;
    bool exited = false;
    while (!fs::exists(sentinel) &&
           std::chrono::steady_clock::now() < deadline) {
        if (waitpid(pid, &status, WNOHANG) == pid) {
            exited = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
        kill(pid, SIGKILL);
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
    }
    ASSERT_TRUE(fs::exists(sentinel))
        << "child never finished its first app";
    ASSERT_TRUE(WIFSIGNALED(status));

    std::string first_done;
    std::ifstream(sentinel) >> first_done;
    ASSERT_EQ(first_done, apps[0]);

    // Reference: the same apps uninterrupted on a fresh store; then the
    // killed run's rerun against its own store.
    std::string ref_dir = freshDir("flow_resume_ref");
    BespokeFlow reference(fastOpts(ref_dir));
    BespokeFlow resumed(fastOpts(dir));
    for (const char *app : apps) {
        SCOPED_TRACE(app);
        const Workload &w = workloadByName(app);
        BespokeDesign want, got;
        std::string err;
        ASSERT_TRUE(reference.tryTailor(w, &want, &err)) << err;
        size_t hits = resumed.checkpoints().hits();
        size_t misses = resumed.checkpoints().misses();
        ASSERT_TRUE(resumed.tryTailor(w, &got, &err)) << err;
        expectSameDesign(want, got);
        // The app finished before the kill replays purely from the
        // store: analysis, design and metrics all hit.
        if (app == first_done) {
            EXPECT_EQ(resumed.checkpoints().hits() - hits, 3u);
            EXPECT_EQ(resumed.checkpoints().misses() - misses, 0u);
        }
    }

    fs::remove_all(dir);
    fs::remove_all(ref_dir);
    fs::remove(sentinel);
}

} // namespace
} // namespace bespoke
