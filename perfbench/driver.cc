/**
 * @file
 * Benchmark driver: one closed-loop client, one op in flight.
 *
 *   perfbench --workload tailor|prove|verify --seed N --seconds S
 *             --trace 0|1 --goldens FILE
 *
 * Sets the workload up a fixed number of times (setup_s is the median),
 * runs one untimed warm-up op, then runs the whole seeded draw
 * (perfbench/draw.hh) once, and again while less than S seconds have
 * gone by: a run only stops at the end of a pass over the draw, so
 * every run measures the same programs, however fast the host or the
 * code. Every op's output is checked: base programs against the
 * committed goldens, verify ops against the one-way rules, and, in a
 * traced run, each traced op against the same op run untraced. After
 * every op a fixed reference loop is timed; setup_s and programs_per_s
 * are scaled by its median (see RefLoop).
 *
 * Earlier stdout lines name the drawn programs, the resolved execution
 * settings and every failed op; the last line is the result object.
 * With --trace 0 it holds the end-to-end metrics, with --trace 1 the
 * per-layer ones (per-op means over the traced ops).
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/draw.hh"
#include "perfbench/ops.hh"
#include "src/util/json.hh"
#include "src/util/logging.hh"
#include "src/util/table.hh"

extern char **environ;

using namespace bespoke;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Set-ups timed before the loop; setup_s is their median. The tailor
 * and prove set-ups build one core in milliseconds, verify's also
 * tailors the 15 base designs (seconds), so it gets the fewest that
 * still make a median.
 */
int
setupReps(const std::string &workload)
{
    return workload == "verify" ? 3 : 15;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (q in (0, 1]). */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * v.size() + 0.999999);
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/**
 * The host-speed reference. On a shared VM a whole run is fast or slow,
 * every op up to 25% slower or faster together, and a set-up up to
 * 1.6x. A fixed loop timed between ops is slow in the same runs: it
 * evaluates a fixed pseudo-random three-valued netlist of 16 k gates
 * (an L2-resident table walk, like the flow's gate-level simulation),
 * but it is the driver's own code, so a change to the library does not
 * move it. A memory-latency loop over 8 MB did not follow the ops'
 * slowdowns; this one mostly does.
 */
class RefLoop
{
  public:
    /** The loop's time on the host the benchmark was written on (a
     *  4-core x86 VM); setup_s and programs_per_s are scaled to that
     *  speed. */
    static constexpr double kReferenceS = 0.010;

    RefLoop() : gates_(kGates), values_(kGates, 0)
    {
        uint64_t x = 12345;
        for (uint32_t i = kInputs; i < kGates; i++) {
            x = next(x);
            gates_[i] = {static_cast<uint32_t>((x >> 20) % i),
                         static_cast<uint32_t>((x >> 40) % i),
                         static_cast<uint8_t>(x >> 62)};
        }
    }

    /** Time one run of the loop and keep the sample. */
    void
    sample()
    {
        // Two-input AND, OR, XOR and NAND over {0, 1, X = 2}.
        static const uint8_t kTable[4][3][3] = {
            {{0, 0, 0}, {0, 1, 2}, {0, 2, 2}},
            {{0, 1, 2}, {1, 1, 1}, {2, 1, 2}},
            {{0, 1, 2}, {1, 0, 2}, {2, 2, 2}},
            {{1, 1, 1}, {1, 0, 2}, {1, 2, 2}}};
        auto t0 = Clock::now();
        uint64_t x = 99;
        for (int sweep = 0; sweep < kSweeps; sweep++) {
            for (uint32_t i = 0; i < kInputs; i++) {
                x = next(x);
                values_[i] = static_cast<uint8_t>((x >> 33) % 3);
            }
            for (uint32_t i = kInputs; i < kGates; i++) {
                const Gate &g = gates_[i];
                uint8_t v = kTable[g.op][values_[g.a]][values_[g.b]];
                // A data-dependent branch, as in the simulators' X
                // handling; it also keeps the loop's result live.
                if (v == 2 && (i & 7) == 0)
                    xCount_++;
                values_[i] = v;
            }
        }
        seconds_.push_back(secondsSince(t0));
    }

    /** Median sample over kReferenceS: above 1 on a slower host. */
    double
    slowdown() const
    {
        return median(seconds_) / kReferenceS;
    }

  private:
    static constexpr uint32_t kGates = 16384;
    static constexpr uint32_t kInputs = 64;
    static constexpr int kSweeps = 80;

    struct Gate
    {
        uint32_t a = 0, b = 0;
        uint8_t op = 0;
    };

    static uint64_t
    next(uint64_t x)
    {
        return x * 6364136223846793005ull + 1442695040888963407ull;
    }

    std::vector<Gate> gates_;
    std::vector<uint8_t> values_;
    std::vector<double> seconds_;
    uint64_t xCount_ = 0;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "tailor|prove|verify --seed N --seconds S --trace 0|1 "
                 "--goldens FILE\n",
                 msg);
    return 2;
}

/** The BESPOKE_* variables that would override library defaults. */
std::vector<std::string>
bespokeOverrides()
{
    std::vector<std::string> set;
    for (char **e = environ; *e; e++) {
        if (std::strncmp(*e, "BESPOKE_", 8) == 0)
            set.push_back(std::string(*e).substr(0, std::strcspn(*e, "=")));
    }
    return set;
}

/** "" if a base program's result matches its golden row. */
std::string
goldenMismatch(const std::string &workload, const JsonValue &row,
               const OpResult &r)
{
    auto field = [&](const char *key) -> std::string {
        const JsonValue *v = row.find(key);
        return v && v->isString() ? v->asString() : "<missing>";
    };
    auto num = [](double v, int digits) { return formatFixed(v, digits); };
    std::ostringstream diff;
    auto expect = [&](const char *key, const std::string &got) {
        if (field(key) != got)
            diff << key << " " << got << " != golden " << field(key)
                 << "; ";
    };
    if (!r.ok)
        return "op failed: " + r.error;
    if (workload == "tailor") {
        expect("gates", num(r.cells, 0));
        expect("power_uw", num(r.powerUW, 1));
    } else if (workload == "prove") {
        expect("candidates", num(r.satCandidates, 0));
        expect("recovered", num(r.satProven, 0));
        expect("refuted", num(r.satRefuted, 0));
        expect("unknown", num(r.satUnknown, 0));
        expect("cells_sat", num(r.cells, 0));
        expect("conflicts", num(r.satConflicts, 0));
        expect("props", num(r.satPropagations, 0));
    } else {
        expect("equiv_ok", r.symEquivalent ? "yes" : "NO");
    }
    return diff.str();
}

struct Metric
{
    const char *name;
    double value;
    const char *unit;
};

JsonValue
metricsJson(const std::vector<Metric> &metrics)
{
    JsonValue m = JsonValue::object();
    for (const Metric &x : metrics) {
        JsonValue v = JsonValue::object();
        v.set("value", JsonValue::number(x.value));
        v.set("unit", JsonValue::str(x.unit));
        m.set(x.name, std::move(v));
    }
    return m;
}

/** One drawn program's ops in the timed loop. */
struct ProgramLog
{
    size_t app = 0;
    double seconds = 0.0;  ///< summed over the program's ops
    int ops = 0;
    double cells = 0.0;
    bool ok = false;
};

/** What the timed loop saw, op by op. */
struct RunLog
{
    std::vector<double> opSeconds;
    std::map<std::string, ProgramLog> programs;
    size_t attempted = 0;
    size_t ok = 0;
    size_t supported = 0;
    double powerUW = 0.0;
    /** RefLoop::slowdown() over the run. */
    double slowdown = 1.0;
    /** Traced runs: summed traced and untraced op seconds. */
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;
};

/**
 * Per-app medians of a run. Op costs are dominated by which app a
 * program belongs to (ms for tea8, seconds for viterbi), and the draw
 * holds at most seven programs per app, so pooled percentiles and plain
 * ops-per-second move with every mutant a seed draws. The apps' medians
 * are combined by their geometric mean, in which every app weighs the
 * same: in a sum, viterbi's median would be half the figure, and a seed
 * that draws four or more of its 14 mutants that run into the cycle
 * guard would quarter it. A program's time is the mean over its ops
 * when the run went round the draw more than once.
 */
struct SuiteStats
{
    /** 1 / geometric mean of the per-app median program times: the
     *  rate of a typical program, as timed. */
    double programsPerS = 0.0;
    double slowestAppSeconds = 0.0; ///< largest app median
    double cells = 0.0;             ///< sum of per-app median cells
};

SuiteStats
suiteStats(const RunLog &log)
{
    std::vector<std::vector<double>> app_s(workloads().size());
    std::vector<std::vector<double>> app_cells(workloads().size());
    for (const auto &[name, p] : log.programs) {
        app_s[p.app].push_back(p.seconds / p.ops);
        if (p.ok)
            app_cells[p.app].push_back(p.cells);
    }
    SuiteStats st;
    double log_sum = 0.0;
    size_t apps = 0;
    for (size_t a = 0; a < app_s.size(); a++) {
        if (app_s[a].empty())
            continue;
        double m = median(app_s[a]);
        apps++;
        log_sum += std::log(m);
        st.slowestAppSeconds = std::max(st.slowestAppSeconds, m);
        if (!app_cells[a].empty())
            st.cells += median(app_cells[a]);
    }
    st.programsPerS = std::exp(-log_sum / static_cast<double>(apps));
    return st;
}

std::vector<Metric>
endToEndMetrics(const RunLog &log, double setup_s)
{
    SuiteStats st = suiteStats(log);
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"setup_s", setup_s / log.slowdown, "s"},
        {"programs_per_s", st.programsPerS * log.slowdown, "1/s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"ops_ok_pct",
         100.0 * static_cast<double>(log.ok) /
             static_cast<double>(log.attempted),
         "%"},
        {"bespoke_cells", st.cells, "cells"},
    };
}

/** Per-layer metrics: per-op means over the traced ops. */
std::vector<Metric>
layerMetrics(const Trace &trace, const RunLog &log, double build_s)
{
    double ops = static_cast<double>(log.attempted);
    double okd = std::max<double>(1.0, static_cast<double>(log.ok));
    std::map<std::string, double> self = trace.selfSeconds();
    const std::map<std::string, double> &c = trace.counters();
    auto s = [&](const char *k) {
        auto it = self.find(k);
        return it == self.end() ? 0.0 : it->second;
    };
    auto n = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    std::vector<Metric> m;
    for (const char *k :
         {"analysis.s", "verify.replay_s", "power.model_s", "sat.s",
          "sat.miter_s", "bespoke.equiv_s", "mutation.support_s",
          "transform.s", "timing.size_s", "timing.sta_s",
          "isa.assemble_s"}) {
        m.push_back({k, s(k) / ops, "s/op"});
    }
    for (const char *k :
         {"analysis.paths", "analysis.cycles", "analysis.gate_evals",
          "analysis.lane_sweeps", "analysis.merges", "verify.replay_runs",
          "verify.replay_cycles", "sat.candidates", "sat.proven",
          "sat.refuted", "sat.unknown", "sat.conflicts",
          "sat.propagations", "sat.restarts", "sat.miter_vars",
          "sat.miter_props", "sat.miter_queries",
          "bespoke.equiv_paths", "bespoke.equiv_cycles",
          "bespoke.equiv_outputs", "transform.cells_cut"}) {
        m.push_back({k, n(k) / ops, "count/op"});
    }
    m.push_back({"analysis.gate_evals_per_s",
                 ratio(n("analysis.gate_evals"), s("analysis.s")), "1/s"});
    m.push_back({"sat.props_per_s",
                 ratio(n("sat.propagations"), s("sat.s")), "1/s"});
    m.push_back({"sat.proven_ratio",
                 ratio(n("sat.proven"), n("sat.candidates")), "ratio"});
    m.push_back({"verify.replay_halted_ratio",
                 ratio(n("verify.replay_halted"), n("verify.replay_runs")),
                 "ratio"});
    m.push_back({"power.design_uw", log.powerUW / okd, "uW"});
    m.push_back({"mutation.supported_pct",
                 100.0 * static_cast<double>(log.supported) / okd, "%"});
    m.push_back({"cpu.build_s", build_s, "s"});
    // Timing statistics of the plain ops that are too noisy for a
    // bound: the pooled ones move with the seed's draw (see
    // suiteStats), the per-app ones with the host's load.
    SuiteStats st = suiteStats(log);
    m.push_back({"e2e.program_s_slowest_app", st.slowestAppSeconds, "s"});
    m.push_back({"e2e.programs_per_s_unscaled", st.programsPerS, "1/s"});
    m.push_back({"host.slowdown", log.slowdown, "ratio"});
    m.push_back({"e2e.programs_per_s_pooled",
                 ops / log.untracedSeconds, "1/s"});
    m.push_back({"e2e.program_s_p50", percentile(log.opSeconds, 0.5),
                 "s"});
    m.push_back({"e2e.program_s_p90", percentile(log.opSeconds, 0.9),
                 "s"});
    double root = trace.rootSeconds();
    m.push_back({"trace.op_s", root / ops, "s/op"});
    m.push_back({"trace.accounted_pct",
                 100.0 * (1.0 - ratio(s("op.other_s"), root)), "%"});
    m.push_back({"trace.overhead_pct",
                 100.0 * ratio(log.tracedSeconds - log.untracedSeconds,
                               log.untracedSeconds),
                 "%"});
    return m;
}

bool
readJson(const std::string &path, JsonValue *out)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    if (in && JsonValue::parse(text.str(), *out, err))
        return true;
    std::fprintf(stderr, "perfbench: cannot read %s %s\n", path.c_str(),
                 err.c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, goldens_path;
    long long seed = -1;
    double seconds = -1;
    int trace_on = -1;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--goldens") {
            goldens_path = v;
        } else if (a == "--seed") {
            seed = std::strtoll(v.c_str(), &end, 10);
            if (*end || seed < 0)
                return usage("--seed must be a non-negative integer");
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (*end || !(seconds > 0))
                return usage("--seconds must be a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace must be 0 or 1");
            trace_on = v == "1";
        } else {
            return usage(("unknown flag " + a).c_str());
        }
    }

    // Library defaults only: an environment override would measure a
    // different configuration than the one the goldens pin.
    std::vector<std::string> overrides = bespokeOverrides();
    if (!overrides.empty()) {
        std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                     overrides.front().c_str());
        return 2;
    }
    setVerbose(false);
    // Keep freed memory in the process. With glibc's defaults every
    // large vector is a fresh mmap, so each core build faults in ~160
    // new pages, and on a shared VM their cost made the tailor and
    // prove set-up medians differ by 1.4x from one run to the next.
    // Reusing the heap leaves the library's own work to be timed.
    if (!mallopt(M_MMAP_THRESHOLD, 32 << 20) ||
        !mallopt(M_TRIM_THRESHOLD, 1 << 30)) {
        std::fprintf(stderr, "perfbench: mallopt failed\n");
        return 2;
    }

    if (workload.empty() || goldens_path.empty() || seed < 0 ||
        seconds < 0 || trace_on < 0)
        return usage("every flag is required");
    if (!makeBench(workload))
        return usage(("unknown workload " + workload).c_str());
    JsonValue goldens;
    if (!readJson(goldens_path, &goldens))
        return 2;
    const JsonValue *golden_rows = goldens.find(workload);
    if (!golden_rows) {
        std::fprintf(stderr, "perfbench: %s has no rows for %s\n",
                     goldens_path.c_str(), workload.c_str());
        return 2;
    }
    std::vector<DrawnProgram> draw =
        drawPrograms(static_cast<uint64_t>(seed));

    // The first set-up serves the ops; the others are only timed.
    std::vector<double> setup_s, build_s;
    std::string err;
    auto set_up = [&](std::unique_ptr<Bench> *out) {
        std::unique_ptr<Bench> b = makeBench(workload);
        Trace setup_trace;
        auto t0 = Clock::now();
        if (!b->setup(trace_on ? &setup_trace : nullptr, &err)) {
            std::fprintf(stderr, "perfbench: setup failed: %s\n",
                         err.c_str());
            return false;
        }
        setup_s.push_back(secondsSince(t0));
        build_s.push_back(setup_trace.selfSeconds()["cpu.build_s"]);
        if (out)
            *out = std::move(b);
        return true;
    };
    std::unique_ptr<Bench> bench;
    if (!set_up(&bench))
        return 1;
    for (int rep = 1; rep < setupReps(workload); rep++) {
        if (!set_up(nullptr))
            return 1;
    }

    ResolvedExec ex = bench->exec();
    JsonValue info = JsonValue::object();
    info.set("workload", JsonValue::str(workload));
    info.set("seed", JsonValue::number(static_cast<double>(seed)));
    JsonValue exec = JsonValue::object();
    exec.set("analysis_threads", JsonValue::number(ex.analysisThreads));
    exec.set("analysis_lanes", JsonValue::number(ex.analysisLanes));
    exec.set("plane_bits", JsonValue::number(ex.planeBits));
    exec.set("sat_threads", JsonValue::number(ex.satThreads));
    info.set("exec", std::move(exec));
    JsonValue names = JsonValue::array();
    for (const DrawnProgram &p : draw)
        names.push(JsonValue::str(p.name));
    info.set("draw", std::move(names));
    std::printf("%s\n", info.dump().c_str());
    std::fflush(stdout);

    bench->run(draw.front(), nullptr);  // untimed warm-up

    std::vector<std::string> failures, problems;
    RunLog log;
    Trace trace;
    RefLoop ref;
    auto t_start = Clock::now();
    do {
        for (const DrawnProgram &p : draw) {
            OpResult r, traced;
            // Traced runs time each op both ways, alternating which
            // goes first, to measure the tracing overhead.
            bool traced_first = trace_on && log.attempted % 2;
            if (traced_first) {
                auto t0 = Clock::now();
                traced = bench->run(p, &trace);
                log.tracedSeconds += secondsSince(t0);
            }
            auto t0 = Clock::now();
            r = bench->run(p, nullptr);
            double dt = secondsSince(t0);
            if (trace_on && !traced_first) {
                auto t1 = Clock::now();
                traced = bench->run(p, &trace);
                log.tracedSeconds += secondsSince(t1);
            }
            log.untracedSeconds += dt;
            log.opSeconds.push_back(dt);
            ProgramLog &pl = log.programs[p.name];
            pl.app = p.app;
            pl.seconds += dt;
            pl.ops++;
            log.attempted++;

            std::string problem;
            if (r.ok) {
                log.ok++;
                pl.ok = true;
                pl.cells = static_cast<double>(r.cells);
                log.powerUW += r.powerUW;
                log.supported += r.supported;
            } else {
                failures.push_back(p.name + ": " + r.error);
            }
            if (p.base) {
                const JsonValue *row = golden_rows->find(p.name);
                problem = row ? goldenMismatch(workload, *row, r)
                              : "no golden row";
            }
            if (problem.empty() && workload == "verify" && r.ok)
                problem = verifyRuleViolation(r);
            if (problem.empty() && trace_on)
                problem = fidelityMismatch(r, traced);
            if (!problem.empty())
                problems.push_back(p.name + ": " + problem);
            ref.sample();
        }
    } while (secondsSince(t_start) < seconds);
    log.slowdown = ref.slowdown();

    JsonValue fails = JsonValue::array();
    for (const std::string &f : failures)
        fails.push(JsonValue::str(f));
    JsonValue probs = JsonValue::array();
    for (const std::string &f : problems)
        probs.push(JsonValue::str(f));
    JsonValue checks = JsonValue::object();
    checks.set("failed_ops", std::move(fails));
    checks.set("check_failures", std::move(probs));
    std::printf("%s\n", checks.dump().c_str());

    std::vector<Metric> metrics =
        trace_on ? layerMetrics(trace, log, median(build_s))
                 : endToEndMetrics(log, median(setup_s));
    JsonValue result = JsonValue::object();
    result.set("correct", JsonValue::boolean(problems.empty()));
    result.set("attempted",
               JsonValue::number(static_cast<double>(log.attempted)));
    result.set("failed", JsonValue::number(
                             static_cast<double>(log.attempted - log.ok)));
    result.set("metrics", metricsJson(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
