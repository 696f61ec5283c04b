/**
 * @file
 * Shared helpers for the per-figure/table benchmark harnesses. Each
 * binary regenerates one table or figure of the paper (see DESIGN.md's
 * per-experiment index) and prints the corresponding rows/series.
 *
 * Flags (also see EXPERIMENTS.md "Golden baselines"):
 *   --quick          fewer inputs/samples
 *   --json PATH      also write results as machine-readable JSON
 *   --check [PATH]   diff results against a golden baseline JSON and
 *                    exit nonzero on mismatch; without PATH the file is
 *                    $BESPOKE_BASELINE_DIR/<bench>.<mode>.json
 *
 * Execution flags, accepted only by the benches that read them (each
 * bench names its set when it constructs its BenchIO; any other flag
 * exits 2, naming the flag and the bench):
 *   --threads N      width of the bench's worker pool, which fans out
 *                    one task per application or mutant (0 = all
 *                    cores, default 1). Each analysis runs on its own
 *                    task, so table values are the same at any width.
 *
 * Every bench analyses and tailors at the library defaults
 * (AnalysisOptions{}, FlowOptions{}, plus what the bench itself pins);
 * the reference lane evaluator is reached through
 * AnalysisOptions::laneWidth in the tests, not from the command line.
 *
 * Table values are compared exactly (they are deterministic); wall
 * clock is compared against a tolerance band (current must stay below
 * BESPOKE_BENCH_WALL_TOL x baseline, default 5x, 0 disables) so a
 * gross simulator perf regression fails CI without machine-speed
 * flakiness. Columns registered as volatile (e.g. measured seconds
 * inside a table) are recorded in the JSON but excluded from the diff.
 */

#ifndef BESPOKE_BENCH_BENCH_COMMON_HH
#define BESPOKE_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/util/flag_value.hh"
#include "src/util/json.hh"
#include "src/util/logging.hh"
#include "src/util/table.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{

/** Percentage reduction of `value` relative to `base`. */
inline double
savingsPct(double base, double value)
{
    return 100.0 * (base - value) / base;
}

/** Standard banner so bench output is self-describing. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("(reproduces %s of 'Bespoke Processors', ISCA 2017)\n",
                paper_ref.c_str());
    std::printf("==============================================================\n");
}

/**
 * Per-binary result recorder: prints tables as before, collects them
 * (plus scalar metrics and wall clock) into a JSON document, and in
 * --check mode diffs the document against a committed golden baseline.
 */
class BenchIO
{
  public:
    /** Execution flags a bench reads, or-ed into BenchIO's `reads`. */
    enum Reads : unsigned
    {
        Threads = 1u << 0,  ///< --threads
    };

    BenchIO(int argc, char **argv, std::string name, unsigned reads = 0)
        : name_(std::move(name)), reads_(reads),
          start_(std::chrono::steady_clock::now())
    {
        for (int i = 1; i < argc; i++) {
            std::string arg = argv[i];
            auto take_path = [&](const char *flag,
                                 std::string &dst) -> bool {
                std::string eq = std::string(flag) + "=";
                if (arg.rfind(eq, 0) == 0) {
                    dst = arg.substr(eq.size());
                    return true;
                }
                if (arg != flag)
                    return false;
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    dst = argv[++i];
                else
                    dst = kAutoPath;
                return true;
            };
            if (arg == "--quick") {
                quick_ = true;
                continue;
            }
            if (take_path("--json", jsonPath_)) {
                if (jsonPath_ == kAutoPath)
                    die("--json requires a path");
                continue;
            }
            if (take_path("--check", checkPath_)) {
                checkMode_ = true;
                continue;
            }
            std::string text;
            if (take_path("--threads", text)) {
                if (!(reads_ & Threads))
                    die(name_ + " does not read --threads");
                std::string error;
                std::optional<uint64_t> v = parseFlagValue(
                    "--threads", text == kAutoPath ? "" : text,
                    std::numeric_limits<int>::max(), error);
                if (!v)
                    die(error);
                threads_ = static_cast<int>(*v);
            } else {
                die("unknown bench flag '" + arg + "' (" + name_ +
                    " reads --quick, --json PATH, --check [PATH]" +
                    (reads_ & Threads ? ", --threads N" : "") + ")");
            }
        }
        if (checkMode_ && checkPath_ == kAutoPath) {
            const char *dir = std::getenv("BESPOKE_BASELINE_DIR");
            if (!dir) {
                die("--check without a path needs "
                    "BESPOKE_BASELINE_DIR to be set");
            }
            checkPath_ = std::string(dir) + "/" + name_ + "." + mode() +
                         ".json";
        }
    }

    bool quick() const { return quick_; }
    const std::string &name() const { return name_; }
    /** --threads value: the bench's worker-pool width (default 1). */
    int threads() const
    {
        requireRead(Threads);
        return threads_;
    }
    /**
     * Print a table and record it under `key`. Columns listed in
     * `volatile_cols` (0-based) hold machine-dependent measurements;
     * they are emitted to JSON but skipped by --check.
     */
    void
    table(const std::string &key, const Table &t,
          const std::string &title = "",
          std::vector<int> volatile_cols = {})
    {
        t.print(title);
        JsonValue jt = JsonValue::object();
        JsonValue headers = JsonValue::array();
        for (const std::string &h : t.headers())
            headers.push(JsonValue::str(h));
        jt.set("headers", std::move(headers));
        JsonValue rows = JsonValue::array();
        for (const auto &row : t.rows()) {
            JsonValue jr = JsonValue::array();
            for (const std::string &cell : row)
                jr.push(JsonValue::str(cell));
            rows.push(std::move(jr));
        }
        jt.set("rows", std::move(rows));
        if (!volatile_cols.empty()) {
            JsonValue vc = JsonValue::array();
            for (int c : volatile_cols)
                vc.push(JsonValue::number(c));
            jt.set("volatile_cols", std::move(vc));
        }
        bespoke_assert(!tables_.find(key), "duplicate bench table key ",
                       key);
        tables_.set(key, std::move(jt));
        volatileCols_.emplace_back(key, std::move(volatile_cols));
    }

    /** Record a scalar result compared exactly by --check. */
    void
    metric(const std::string &key, double value)
    {
        metrics_.set(key, JsonValue::number(value));
    }

    /**
     * Record an informational counter (work done, not results
     * computed: gate evaluations, lane utilization, ...). Counters go
     * to the JSON document but are never compared by --check.
     */
    void
    counter(const std::string &key, double value)
    {
        counters_.set(key, JsonValue::number(value));
    }

    /**
     * Write JSON / run the baseline diff as requested; returns the
     * process exit code (0 ok, 1 baseline mismatch).
     */
    int
    finish()
    {
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        JsonValue doc = JsonValue::object();
        doc.set("bench", JsonValue::str(name_));
        doc.set("mode", JsonValue::str(mode()));
        doc.set("wall_seconds", JsonValue::number(wall));
        doc.set("tables", std::move(tables_));
        doc.set("metrics", std::move(metrics_));
        doc.set("counters", std::move(counters_));

        if (!jsonPath_.empty()) {
            std::ofstream os(jsonPath_);
            if (!os)
                die("cannot write " + jsonPath_);
            os << doc.dump(2);
        }
        if (!checkMode_)
            return 0;
        return check(doc) ? 0 : 1;
    }

  private:
    static constexpr const char *kAutoPath = "\x01auto";

    [[noreturn]] static void
    die(const std::string &msg)
    {
        std::fprintf(stderr, "bench: %s\n", msg.c_str());
        std::exit(2);
    }

    std::string mode() const { return quick_ ? "quick" : "full"; }

    /** A bench must name every execution flag whose value it uses. */
    void
    requireRead(unsigned flags) const
    {
        bespoke_assert((reads_ & flags) == flags, "bench '", name_,
                       "' uses an execution flag it does not accept");
    }

    void
    mismatch(const std::string &what)
    {
        std::fprintf(stderr, "BASELINE MISMATCH [%s]: %s\n",
                     name_.c_str(), what.c_str());
        ok_ = false;
    }

    bool
    checkTable(const std::string &key, const JsonValue &cur,
               const JsonValue &base)
    {
        std::set<int> vol;
        for (const auto &[k, cols] : volatileCols_) {
            if (k == key) {
                vol.insert(cols.begin(), cols.end());
                break;
            }
        }
        const JsonValue *ch = cur.find("headers");
        const JsonValue *bh = base.find("headers");
        if (!bh || bh->dump() != ch->dump()) {
            mismatch("table '" + key + "' headers differ");
            return false;
        }
        const JsonValue *cr = cur.find("rows");
        const JsonValue *br = base.find("rows");
        if (!br || br->items().size() != cr->items().size()) {
            mismatch("table '" + key + "': baseline has " +
                     std::to_string(br ? br->items().size() : 0) +
                     " rows, current run has " +
                     std::to_string(cr->items().size()));
            return false;
        }
        bool table_ok = true;
        for (size_t r = 0; r < cr->items().size(); r++) {
            const auto &crow = cr->items()[r].items();
            const auto &brow = br->items()[r].items();
            size_t ncols = std::max(crow.size(), brow.size());
            for (size_t c = 0; c < ncols; c++) {
                if (vol.count(static_cast<int>(c)))
                    continue;
                std::string cv =
                    c < crow.size() ? crow[c].asString() : "<missing>";
                std::string bv =
                    c < brow.size() ? brow[c].asString() : "<missing>";
                if (cv == bv)
                    continue;
                std::string col =
                    c < ch->items().size() ? ch->items()[c].asString()
                                           : std::to_string(c);
                mismatch("table '" + key + "' row " + std::to_string(r) +
                         " col '" + col + "': baseline='" + bv +
                         "' current='" + cv + "'");
                table_ok = false;
            }
        }
        return table_ok;
    }

    bool
    check(const JsonValue &doc)
    {
        std::ifstream is(checkPath_);
        if (!is) {
            die("baseline file '" + checkPath_ +
                "' not found; regenerate it with --json (see "
                "EXPERIMENTS.md)");
        }
        std::stringstream buf;
        buf << is.rdbuf();
        JsonValue base;
        std::string err;
        if (!JsonValue::parse(buf.str(), base, err))
            die("cannot parse baseline " + checkPath_ + ": " + err);

        auto base_str = [&](const char *key) -> std::string {
            const JsonValue *v = base.find(key);
            return v && v->isString() ? v->asString() : "";
        };
        if (base_str("bench") != name_)
            mismatch("baseline is for bench '" + base_str("bench") + "'");
        if (base_str("mode") != mode()) {
            mismatch("baseline was recorded in '" + base_str("mode") +
                     "' mode but this run is '" + mode() +
                     "' (pass/drop --quick to match)");
        }

        const JsonValue *btabs = base.find("tables");
        const JsonValue *ctabs = doc.find("tables");
        for (const auto &[key, cur] : ctabs->members()) {
            const JsonValue *b = btabs ? btabs->find(key) : nullptr;
            if (!b) {
                mismatch("table '" + key + "' missing from baseline");
                continue;
            }
            checkTable(key, cur, *b);
        }
        if (btabs) {
            for (const auto &[key, unused] : btabs->members()) {
                (void)unused;
                if (!ctabs->find(key))
                    mismatch("baseline table '" + key +
                             "' not produced by this run");
            }
        }

        const JsonValue *bmet = base.find("metrics");
        const JsonValue *cmet = doc.find("metrics");
        for (const auto &[key, cur] : cmet->members()) {
            const JsonValue *b = bmet ? bmet->find(key) : nullptr;
            if (!b) {
                mismatch("metric '" + key + "' missing from baseline");
            } else if (b->asNumber() != cur.asNumber()) {
                mismatch("metric '" + key + "': baseline=" +
                         std::to_string(b->asNumber()) + " current=" +
                         std::to_string(cur.asNumber()));
            }
        }

        double tol = 5.0;
        if (const char *env = std::getenv("BESPOKE_BENCH_WALL_TOL"))
            tol = std::strtod(env, nullptr);
        const JsonValue *bwall = base.find("wall_seconds");
        double cwall = doc.find("wall_seconds")->asNumber();
        if (tol > 0 && bwall && bwall->isNumber()) {
            // Floor tiny baselines so scheduler noise cannot trip the
            // band on sub-100ms benches.
            double limit = std::max(bwall->asNumber(), 0.1) * tol;
            if (cwall > limit) {
                mismatch("wall clock " + formatFixed(cwall, 2) +
                         "s exceeds tolerance band " +
                         formatFixed(limit, 2) + "s (baseline " +
                         formatFixed(bwall->asNumber(), 2) + "s x " +
                         formatFixed(tol, 1) + ")");
            }
        }

        if (ok_) {
            std::printf("\nbaseline check OK against %s "
                        "(wall %.2fs)\n", checkPath_.c_str(), cwall);
        }
        return ok_;
    }

    std::string name_;
    unsigned reads_;
    bool quick_ = false;
    int threads_ = 1;
    bool checkMode_ = false;
    bool ok_ = true;
    std::string jsonPath_, checkPath_;
    JsonValue tables_ = JsonValue::object();
    JsonValue metrics_ = JsonValue::object();
    JsonValue counters_ = JsonValue::object();
    std::vector<std::pair<std::string, std::vector<int>>> volatileCols_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace bespoke

#endif // BESPOKE_BENCH_BENCH_COMMON_HH
