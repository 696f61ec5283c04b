#include "src/bespoke/checkpoint.hh"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "src/bespoke/flow.hh"
#include "src/io/netlist_json.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

constexpr uint64_t kFnvPrime = 1099511628211ull;

/** Incremental FNV-1a over typed fields. */
struct Fnv
{
    uint64_t h = kHashBasis;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= kFnvPrime;
    }
    void bytes(const uint8_t *p, size_t n)
    {
        for (size_t i = 0; i < n; i++)
            byte(p[i]);
    }
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; i++)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

std::string
hashHex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Common artifact envelope. */
JsonValue
stageDoc(const char *stage)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::str("bespoke-checkpoint"));
    doc.set("version", JsonValue::number(1));
    doc.set("stage", JsonValue::str(stage));
    return doc;
}

bool
checkEnvelope(const JsonValue &doc, const char *stage, std::string *err)
{
    if (!doc.isObject()) {
        *err = "artifact is not a JSON object";
        return false;
    }
    const JsonValue *fmt = doc.find("format");
    if (!fmt || !fmt->isString() ||
        fmt->asString() != "bespoke-checkpoint") {
        *err = "not a bespoke-checkpoint document";
        return false;
    }
    const JsonValue *ver = doc.find("version");
    if (!ver || !ver->isNumber() || ver->asNumber() != 1) {
        *err = "unsupported checkpoint version";
        return false;
    }
    const JsonValue *st = doc.find("stage");
    if (!st || !st->isString() || st->asString() != stage) {
        *err = std::string("expected stage \"") + stage + "\"";
        return false;
    }
    return true;
}

/** Fetch a non-negative integral number field. */
bool
getCount(const JsonValue &doc, const char *name, uint64_t *out,
         std::string *err)
{
    const JsonValue *v = doc.find(name);
    if (!v || !v->isNumber() || v->asNumber() < 0) {
        *err = std::string("missing or malformed \"") + name + "\"";
        return false;
    }
    *out = static_cast<uint64_t>(v->asNumber());
    return true;
}

bool
getDouble(const JsonValue &doc, const char *name, double *out,
          std::string *err)
{
    const JsonValue *v = doc.find(name);
    if (!v || !v->isNumber()) {
        *err = std::string("missing or malformed \"") + name + "\"";
        return false;
    }
    *out = v->asNumber();
    return true;
}

JsonValue
powerToJson(const PowerReport &p)
{
    JsonValue jp = JsonValue::object();
    jp.set("switching_uw", JsonValue::number(p.switchingUW));
    jp.set("clock_uw", JsonValue::number(p.clockUW));
    jp.set("leakage_uw", JsonValue::number(p.leakageUW));
    return jp;
}

bool
powerFromJson(const JsonValue &doc, const char *name, PowerReport *out,
              std::string *err)
{
    const JsonValue *jp = doc.find(name);
    if (!jp || !jp->isObject()) {
        *err = std::string("missing \"") + name + "\" object";
        return false;
    }
    return getDouble(*jp, "switching_uw", &out->switchingUW, err) &&
           getDouble(*jp, "clock_uw", &out->clockUW, err) &&
           getDouble(*jp, "leakage_uw", &out->leakageUW, err);
}

} // namespace

CheckpointStore::CheckpointStore(const std::string &dir) : dir_(dir)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        bespoke_warn("checkpoint dir '", dir_,
                     "' cannot be created (", ec.message(),
                     "); checkpointing disabled");
        dir_.clear();
    }
}

std::string
CheckpointStore::path(const CheckpointKey &key,
                      const std::string &stage) const
{
    return dir_ + "/" + hashHex(key.netlist) + "-" +
           hashHex(key.program) + "-" + hashHex(key.options) + "." +
           stage + ".json";
}

bool
CheckpointStore::load(const CheckpointKey &key, const std::string &stage,
                      JsonValue *doc) const
{
    if (!enabled())
        return false;
    std::ifstream in(path(key, stage), std::ios::binary);
    if (!in) {
        misses_++;
        return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string err;
    if (!JsonValue::parse(text, *doc, err)) {
        bespoke_warn("checkpoint ", path(key, stage), ": ", err);
        misses_++;
        return false;
    }
    hits_++;
    return true;
}

void
CheckpointStore::save(const CheckpointKey &key, const std::string &stage,
                      const JsonValue &doc) const
{
    if (!enabled())
        return;
    std::string final_path = path(key, stage);
    // Writer-unique temp name: two concurrent savers of the same key
    // must each write their own complete file, not interleave into a
    // shared one that a racing rename would expose half-written.
    static std::atomic<uint64_t> save_seq{0};
    std::string tmp_path = final_path + ".tmp." +
                           std::to_string(static_cast<long>(::getpid())) +
                           "." + std::to_string(save_seq.fetch_add(1));
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (!out) {
            bespoke_warn("checkpoint ", tmp_path, ": cannot write");
            return;
        }
        out << doc.dump(1) << "\n";
        if (!out) {
            bespoke_warn("checkpoint ", tmp_path, ": write failed");
            std::error_code rmec;
            std::filesystem::remove(tmp_path, rmec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        bespoke_warn("checkpoint ", final_path, ": rename failed (",
                     ec.message(), ")");
        return;
    }
}

uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    Fnv f;
    f.h = h;
    f.u64(v);
    return f.h;
}

uint64_t
hashProgram(const AsmProgram &prog)
{
    Fnv f;
    f.u64(prog.rom.size());
    f.bytes(prog.rom.data(), prog.rom.size());
    return f.h;
}

uint64_t
hashAnalysisOptions(const AnalysisOptions &opts)
{
    Fnv f;
    f.u64(static_cast<uint64_t>(opts.concreteVisits));
    f.u64(opts.maxTotalCycles);
    f.u64(opts.maxPaths);
    f.byte(opts.irqLineUnknown ? 1 : 0);
    return f.h;
}

uint64_t
hashFlowOptions(const FlowOptions &opts)
{
    Fnv f;
    f.u64(hashAnalysisOptions(opts.analysis));
    f.u64(static_cast<uint64_t>(opts.powerInputsPerWorkload));
    f.u64(opts.powerSeed);
    const TimingParams &t = opts.timing;
    f.f64(t.wireCapPerFanout);
    f.f64(t.outputPortCap);
    f.f64(t.clkToQ);
    f.f64(t.setup);
    f.f64(t.x2LoadThreshold);
    f.f64(t.x4LoadThreshold);
    f.f64(t.vNominal);
    f.f64(t.vThreshold);
    f.f64(t.alpha);
    f.f64(t.vMinFloor);
    f.f64(t.pvtMargin);
    const PowerParams &p = opts.power;
    f.f64(p.frequencyMHz);
    f.f64(p.voltage);
    f.f64(p.clockPinCap);
    f.f64(p.clockTreeFactor);
    f.u64(hashPassPipelineOptions(opts.passes));
    return f.h;
}

JsonValue
analysisToJson(const AnalysisResult &r)
{
    bespoke_assert(r.completed && r.activity &&
                       r.activity->initialCaptured(),
                   "only completed analyses are checkpointed");
    const Netlist &nl = r.activity->netlist();

    JsonValue doc = stageDoc("analysis");
    std::string initial(nl.size(), '?');
    std::string toggled(nl.size(), '?');
    for (GateId i = 0; i < nl.size(); i++) {
        Logic v = r.activity->initialValue(i);
        initial[i] = v == Logic::Zero ? '0' : v == Logic::One ? '1' : 'x';
        toggled[i] = r.activity->toggled(i) ? '1' : '0';
    }
    doc.set("gates", JsonValue::number(static_cast<double>(nl.size())));
    doc.set("initial", JsonValue::str(std::move(initial)));
    doc.set("toggled", JsonValue::str(std::move(toggled)));

    doc.set("paths", JsonValue::number(
                         static_cast<double>(r.pathsExplored)));
    doc.set("cycles", JsonValue::number(
                          static_cast<double>(r.cyclesSimulated)));
    doc.set("merges",
            JsonValue::number(static_cast<double>(r.merges)));
    doc.set("forks", JsonValue::number(static_cast<double>(r.forks)));
    doc.set("seconds", JsonValue::number(r.seconds));
    doc.set("frontier_peak",
            JsonValue::number(static_cast<double>(r.frontierPeak)));
    doc.set("max_fork_depth",
            JsonValue::number(static_cast<double>(r.maxForkDepth)));
    return doc;
}

bool
analysisFromJson(const JsonValue &doc, const Netlist &netlist,
                 AnalysisResult *out, std::string *err)
{
    if (!checkEnvelope(doc, "analysis", err))
        return false;

    uint64_t gates = 0;
    if (!getCount(doc, "gates", &gates, err))
        return false;
    if (gates != netlist.size()) {
        *err = "artifact is for a " + std::to_string(gates) +
               "-gate netlist, this one has " +
               std::to_string(netlist.size());
        return false;
    }

    const JsonValue *initial = doc.find("initial");
    const JsonValue *toggled = doc.find("toggled");
    if (!initial || !initial->isString() || !toggled ||
        !toggled->isString() ||
        initial->asString().size() != netlist.size() ||
        toggled->asString().size() != netlist.size()) {
        *err = "malformed \"initial\"/\"toggled\" state strings";
        return false;
    }
    std::vector<uint8_t> init_v(netlist.size());
    std::vector<uint8_t> tog_v(netlist.size());
    for (GateId i = 0; i < netlist.size(); i++) {
        char c = initial->asString()[i];
        if (c == '0')
            init_v[i] = static_cast<uint8_t>(Logic::Zero);
        else if (c == '1')
            init_v[i] = static_cast<uint8_t>(Logic::One);
        else if (c == 'x')
            init_v[i] = static_cast<uint8_t>(Logic::X);
        else {
            *err = "bad character in \"initial\"";
            return false;
        }
        char t = toggled->asString()[i];
        if (t != '0' && t != '1') {
            *err = "bad character in \"toggled\"";
            return false;
        }
        // An X initial value has no proven constant; it must be marked
        // toggleable or the cut would tie it to a bogus constant.
        if (c == 'x' && t != '1') {
            *err = "gate with X initial value not marked toggled";
            return false;
        }
        tog_v[i] = t == '1' ? 1 : 0;
    }

    AnalysisResult r;
    if (!getCount(doc, "paths", &r.pathsExplored, err) ||
        !getCount(doc, "cycles", &r.cyclesSimulated, err) ||
        !getCount(doc, "merges", &r.merges, err) ||
        !getCount(doc, "forks", &r.forks, err) ||
        !getDouble(doc, "seconds", &r.seconds, err) ||
        !getCount(doc, "frontier_peak", &r.frontierPeak, err))
        return false;
    // Artifacts written while the analysis had worker threads also
    // carry "threads" and "workers"; neither affects the design, so
    // both are ignored.
    uint64_t depth = 0;
    if (!getCount(doc, "max_fork_depth", &depth, err))
        return false;
    r.maxForkDepth = static_cast<uint32_t>(depth);
    r.completed = true;
    r.activity = std::make_unique<ActivityTracker>(netlist);
    r.activity->restore(std::move(init_v), std::move(tog_v));
    *out = std::move(r);
    return true;
}

namespace
{

JsonValue
pipelineToJson(const PipelineReport &rep)
{
    JsonValue jp = JsonValue::object();
    JsonValue passes = JsonValue::array();
    for (const PassStats &s : rep.passes) {
        JsonValue js = JsonValue::array();
        js.push(JsonValue::str(s.name));
        js.push(JsonValue::number(static_cast<double>(s.changes)));
        js.push(JsonValue::number(static_cast<double>(s.gatesBefore)));
        js.push(JsonValue::number(static_cast<double>(s.gatesAfter)));
        js.push(JsonValue::number(s.powerBeforeUW));
        js.push(JsonValue::number(s.powerAfterUW));
        js.push(JsonValue::number(s.depthBeforePs));
        js.push(JsonValue::number(s.depthAfterPs));
        js.push(JsonValue::number(s.wallMs));
        passes.push(std::move(js));
    }
    jp.set("passes", std::move(passes));
    jp.set("rewritten",
           JsonValue::number(static_cast<double>(rep.rewrittenInstances)));
    JsonValue jg = JsonValue::object();
    jg.set("candidate_banks",
           JsonValue::number(
               static_cast<double>(rep.gating.candidateBanks)));
    jg.set("cycles", JsonValue::number(static_cast<double>(
                         rep.gating.cyclesObserved)));
    jg.set("saved_uw", JsonValue::number(rep.gating.savedClockUW));
    JsonValue banks = JsonValue::array();
    for (const GatedBank &b : rep.gating.banks) {
        JsonValue jb = JsonValue::array();
        jb.push(JsonValue::number(static_cast<double>(b.enable)));
        jb.push(JsonValue::number(static_cast<double>(b.flops)));
        jb.push(JsonValue::number(b.duty));
        jb.push(JsonValue::number(b.savedUW));
        banks.push(std::move(jb));
    }
    jg.set("banks", std::move(banks));
    jp.set("gating", std::move(jg));
    return jp;
}

bool
pipelineFromJson(const JsonValue &jp, PipelineReport *out,
                 std::string *err)
{
    if (!jp.isObject()) {
        *err = "\"pipeline\" is not an object";
        return false;
    }
    PipelineReport rep;
    const JsonValue *passes = jp.find("passes");
    if (!passes || !passes->isArray()) {
        *err = "pipeline: missing \"passes\" array";
        return false;
    }
    for (const JsonValue &js : passes->items()) {
        if (!js.isArray() || js.items().size() != 9 ||
            !js.items()[0].isString()) {
            *err = "pipeline: malformed pass entry";
            return false;
        }
        for (size_t i = 1; i < 9; i++) {
            if (!js.items()[i].isNumber()) {
                *err = "pipeline: malformed pass entry";
                return false;
            }
        }
        PassStats s;
        s.name = js.items()[0].asString();
        s.changes = static_cast<size_t>(js.items()[1].asNumber());
        s.gatesBefore = static_cast<size_t>(js.items()[2].asNumber());
        s.gatesAfter = static_cast<size_t>(js.items()[3].asNumber());
        s.powerBeforeUW = js.items()[4].asNumber();
        s.powerAfterUW = js.items()[5].asNumber();
        s.depthBeforePs = js.items()[6].asNumber();
        s.depthAfterPs = js.items()[7].asNumber();
        s.wallMs = js.items()[8].asNumber();
        rep.passes.push_back(std::move(s));
    }
    uint64_t rewritten = 0;
    if (!getCount(jp, "rewritten", &rewritten, err))
        return false;
    rep.rewrittenInstances = static_cast<size_t>(rewritten);
    const JsonValue *jg = jp.find("gating");
    if (!jg || !jg->isObject()) {
        *err = "pipeline: missing \"gating\" object";
        return false;
    }
    uint64_t cand = 0, cycles = 0;
    if (!getCount(*jg, "candidate_banks", &cand, err) ||
        !getCount(*jg, "cycles", &cycles, err) ||
        !getDouble(*jg, "saved_uw", &rep.gating.savedClockUW, err))
        return false;
    rep.gating.candidateBanks = static_cast<size_t>(cand);
    rep.gating.cyclesObserved = cycles;
    const JsonValue *banks = jg->find("banks");
    if (!banks || !banks->isArray()) {
        *err = "pipeline: missing \"banks\" array";
        return false;
    }
    for (const JsonValue &jb : banks->items()) {
        if (!jb.isArray() || jb.items().size() != 4) {
            *err = "pipeline: malformed bank entry";
            return false;
        }
        for (const JsonValue &v : jb.items()) {
            if (!v.isNumber()) {
                *err = "pipeline: malformed bank entry";
                return false;
            }
        }
        GatedBank b;
        b.enable = static_cast<GateId>(jb.items()[0].asNumber());
        b.flops = static_cast<size_t>(jb.items()[1].asNumber());
        b.duty = jb.items()[2].asNumber();
        b.savedUW = jb.items()[3].asNumber();
        rep.gating.banks.push_back(b);
    }
    *out = std::move(rep);
    return true;
}

} // namespace

JsonValue
designToJson(const Netlist &sized, const CutStats &cut,
             const PipelineReport *pipeline)
{
    JsonValue doc = stageDoc("design");
    JsonValue jc = JsonValue::object();
    jc.set("gates_before",
           JsonValue::number(static_cast<double>(cut.gatesBefore)));
    jc.set("gates_cut_direct",
           JsonValue::number(static_cast<double>(cut.gatesCutDirect)));
    jc.set("gates_after",
           JsonValue::number(static_cast<double>(cut.gatesAfter)));
    doc.set("cut", std::move(jc));
    if (pipeline)
        doc.set("pipeline", pipelineToJson(*pipeline));
    doc.set("netlist", netlistToJson(sized));
    return doc;
}

bool
designFromJson(const JsonValue &doc, Netlist *netlist, CutStats *cut,
               std::string *err, PipelineReport *pipeline)
{
    if (!checkEnvelope(doc, "design", err))
        return false;
    const JsonValue *jc = doc.find("cut");
    if (!jc || !jc->isObject()) {
        *err = "missing \"cut\" object";
        return false;
    }
    uint64_t before = 0, direct = 0, after = 0;
    if (!getCount(*jc, "gates_before", &before, err) ||
        !getCount(*jc, "gates_cut_direct", &direct, err) ||
        !getCount(*jc, "gates_after", &after, err))
        return false;
    // Pre-pipeline artifacts have no "pipeline" section: restore an
    // empty report rather than failing the load.
    PipelineReport rep;
    const JsonValue *jp = doc.find("pipeline");
    if (jp && !pipelineFromJson(*jp, &rep, err))
        return false;
    const JsonValue *jn = doc.find("netlist");
    if (!jn) {
        *err = "missing \"netlist\"";
        return false;
    }
    NetlistJsonResult res = netlistFromJson(*jn);
    if (!res.ok) {
        *err = res.error;
        return false;
    }
    cut->gatesBefore = static_cast<size_t>(before);
    cut->gatesCutDirect = static_cast<size_t>(direct);
    cut->gatesAfter = static_cast<size_t>(after);
    if (pipeline)
        *pipeline = std::move(rep);
    *netlist = std::move(res.netlist);
    return true;
}

JsonValue
metricsToJson(const DesignMetrics &m)
{
    JsonValue doc = stageDoc("metrics");
    doc.set("gates", JsonValue::number(static_cast<double>(m.gates)));
    doc.set("flops", JsonValue::number(static_cast<double>(m.flops)));
    doc.set("area_um2", JsonValue::number(m.areaUm2));
    doc.set("critical_path_ps", JsonValue::number(m.criticalPathPs));
    doc.set("slack_fraction", JsonValue::number(m.slackFraction));
    doc.set("power_nominal", powerToJson(m.powerNominal));
    doc.set("vmin", JsonValue::number(m.vmin));
    doc.set("power_at_vmin", powerToJson(m.powerAtVmin));
    return doc;
}

bool
metricsFromJson(const JsonValue &doc, DesignMetrics *out,
                std::string *err)
{
    if (!checkEnvelope(doc, "metrics", err))
        return false;
    DesignMetrics m;
    uint64_t gates = 0, flops = 0;
    if (!getCount(doc, "gates", &gates, err) ||
        !getCount(doc, "flops", &flops, err) ||
        !getDouble(doc, "area_um2", &m.areaUm2, err) ||
        !getDouble(doc, "critical_path_ps", &m.criticalPathPs, err) ||
        !getDouble(doc, "slack_fraction", &m.slackFraction, err) ||
        !powerFromJson(doc, "power_nominal", &m.powerNominal, err) ||
        !getDouble(doc, "vmin", &m.vmin, err) ||
        !powerFromJson(doc, "power_at_vmin", &m.powerAtVmin, err))
        return false;
    m.gates = static_cast<size_t>(gates);
    m.flops = static_cast<size_t>(flops);
    *out = m;
    return true;
}

} // namespace bespoke
