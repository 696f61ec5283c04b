/**
 * @file
 * Netlist interchange command-line tool.
 *
 * Moves gate-level netlists across the system boundary in both
 * directions and runs the bespoke transformation on imported ones:
 *
 *   bespoke_io export  [--core default|extended] -o FILE
 *       Build the baseline core and write it (.v or .json by file
 *       extension).
 *   bespoke_io convert -i FILE -o FILE
 *       Import (validating), then re-export in the other format.
 *   bespoke_io hash    -i FILE | --core default|extended
 *       Print the canonical content hash.
 *   bespoke_io tailor  -i FILE --app NAME -o FILE
 *                      [--checkpoint-dir DIR] [--verify]
 *                      [--passes LIST] [--status-json FILE]
 *                      [--sat-depth N]
 *       Import an external netlist and run BespokeFlow on it as the
 *       baseline core (drive-sized, and every design held to its
 *       clock): activity analysis for the application, the tailoring
 *       pass pipeline, re-sizing, and power replay. Exports the
 *       bespoke result, printing one summary line per pass (changes,
 *       gates, delta power, delta depth, wall time) and one metrics
 *       line (area, critical path, power nominal and at Vmin).
 *       --passes selects pipeline passes ("default", "rewrite-search",
 *       "clock-gating", "sat-never-toggle", "all", comma-separated;
 *       "all" does NOT include the opt-in SAT pass); --status-json
 *       writes the per-pass stats, rewrite count, clock-gating plan,
 *       and SAT never-toggle verdict counts plus solver counters
 *       (conflicts, propagations, learned/kept clauses, DB
 *       reductions) as JSON; --sat-depth bounds the SAT pass's
 *       unrolling envelope (0 = the analysis horizon).
 *       --verify additionally proves the result symbolically
 *       equivalent to the imported original for the application and
 *       cross-checks with a bounded CDCL miter (fixed shallow depth
 *       and conflict budget — use `prove` for deeper miters).
 *       --checkpoint-dir is the flow's checkpoint store: analysis,
 *       design and metrics, keyed by (sized netlist hash, program
 *       hash, options hash).
 *   bespoke_io check   -i FILE --app NAME [--against FILE]
 *       Symbolic equivalence of an imported netlist against a freshly
 *       built baseline core (or a second imported file) for one
 *       application.
 *   bespoke_io prove   -i FILE --app NAME [--against FILE]
 *                      [--sat-depth N]
 *       Independent SAT equivalence check (src/sat/): bounded miter
 *       over the CNF unrolling, incrementally deepened on one CDCL
 *       solver, with any witness confirmed by concrete 3-valued
 *       replay. Complements `check` — a completely separate prover
 *       over a different value domain. Prints solver counters
 *       (conflicts, propagations, learned/kept clauses, DB
 *       reductions) and the winning portfolio config.
 *   bespoke_io export-cnf --app NAME -o FILE[.cnf|.smt2]
 *                      [-i FILE] [--miter [--against FILE]]
 *                      [--sat-depth N]
 *       Dump the Tseitin CNF of the unrolled design (or, with
 *       --miter, of the equivalence miter between -i and the
 *       reference) as DIMACS or bit-blasted SMT2 for external
 *       solvers.
 *
 * Exit codes: 0 success, 1 validation/equivalence failure, 2 usage.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/bespoke/equiv_check.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/cdcl.hh"
#include "src/sat/equiv_prover.hh"
#include "src/io/netlist_json.hh"
#include "src/io/verilog_import.hh"
#include "src/netlist/verilog_export.hh"
#include "src/timing/sta.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/flag_value.hh"
#include "src/util/logging.hh"
#include "src/workloads/workload.hh"

using namespace bespoke;

namespace
{

[[noreturn]] void
usage(const std::string &msg = "")
{
    if (!msg.empty())
        std::fprintf(stderr, "bespoke_io: %s\n", msg.c_str());
    std::fprintf(
        stderr,
        "usage:\n"
        "  bespoke_io export  [--core default|extended] -o FILE\n"
        "  bespoke_io convert -i FILE -o FILE\n"
        "  bespoke_io hash    -i FILE | --core default|extended\n"
        "  bespoke_io tailor  -i FILE --app NAME -o FILE\n"
        "                     [--checkpoint-dir DIR] [--verify]\n"
        "                     [--passes LIST] [--status-json FILE]"
        " [--sat-depth N]\n"
        "  bespoke_io check   -i FILE --app NAME [--against FILE]\n"
        "  bespoke_io prove   -i FILE --app NAME [--against FILE]"
        " [--sat-depth N]\n"
        "  bespoke_io export-cnf --app NAME -o FILE [-i FILE]"
        " [--miter]\n"
        "                     [--against FILE] [--sat-depth N]\n"
        "formats are chosen by file extension: .v structural Verilog,"
        " .json canonical JSON\n");
    std::exit(2);
}

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "bespoke_io: %s\n", msg.c_str());
    std::exit(1);
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail("cannot read '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Import a netlist from .v or .json, hard-failing with diagnostics. */
Netlist
importFile(const std::string &path)
{
    std::string text = readFile(path);
    if (endsWith(path, ".v")) {
        VerilogImportResult res = importVerilog(text);
        if (!res.ok)
            fail(res.format(path));
        return std::move(res.netlist);
    }
    NetlistJsonResult res = netlistFromJsonText(text);
    if (!res.ok)
        fail(path + ": " + res.error);
    return std::move(res.netlist);
}

void
exportFile(const Netlist &nl, const std::string &path,
           const std::string &module_name)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fail("cannot write '" + path + "'");
    if (endsWith(path, ".v"))
        exportVerilog(nl, module_name, out);
    else
        out << netlistToJsonText(nl) << "\n";
    if (!out)
        fail("write to '" + path + "' failed");
}

void
printStats(const char *label, const Netlist &nl)
{
    NetlistStats s = nl.stats();
    std::printf("%s: %zu cells (%zu flops), %.0f um^2, hash %016llx\n",
                label, s.numCells, s.numSequential, s.area,
                static_cast<unsigned long long>(nl.contentHash()));
}

struct Args
{
    std::string in;
    std::string out;
    std::string against;
    std::string app;
    std::string core;
    std::string checkpointDir;
    std::string statusJson;
    std::string passes;
    bool verify = false;
    bool miter = false;
    int satDepth = 0;  ///< 0 = per-command default
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("flag '" + arg + "' needs a value");
            return argv[++i];
        };
        auto number = [&](FlagKind kind) -> uint64_t {
            std::string error;
            std::optional<uint64_t> v =
                parseFlagValue(arg, value(), kind, error);
            if (!v)
                usage(error);
            return *v;
        };
        auto count = [&] {
            return static_cast<int>(number(FlagKind::Count));
        };
        if (arg == "-i" || arg == "--in")
            a.in = value();
        else if (arg == "-o" || arg == "--out")
            a.out = value();
        else if (arg == "--against")
            a.against = value();
        else if (arg == "--app")
            a.app = value();
        else if (arg == "--core")
            a.core = value();
        else if (arg == "--checkpoint-dir")
            a.checkpointDir = value();
        else if (arg == "--status-json")
            a.statusJson = value();
        else if (arg == "--passes")
            a.passes = value();
        else if (arg == "--verify")
            a.verify = true;
        else if (arg == "--miter")
            a.miter = true;
        else if (arg == "--sat-depth")
            a.satDepth = count();
        else
            usage("unknown flag '" + arg + "'");
    }
    return a;
}

Netlist
buildCore(const std::string &core)
{
    CpuConfig cfg;
    if (core == "extended")
        cfg = CpuConfig::extended();
    else if (!core.empty() && core != "default")
        usage("--core must be 'default' or 'extended'");
    Netlist nl = buildBsp430(nullptr, cfg);
    sizeForLoads(nl);
    return nl;
}

int
cmdExport(const Args &a)
{
    if (a.out.empty())
        usage("export needs -o FILE");
    Netlist nl = buildCore(a.core);
    exportFile(nl, a.out, "bsp430_core");
    printStats(a.out.c_str(), nl);
    return 0;
}

int
cmdConvert(const Args &a)
{
    if (a.in.empty() || a.out.empty())
        usage("convert needs -i FILE and -o FILE");
    Netlist nl = importFile(a.in);
    exportFile(nl, a.out, "bespoke_core");
    printStats(a.out.c_str(), nl);
    return 0;
}

int
cmdHash(const Args &a)
{
    Netlist nl = a.in.empty() ? buildCore(a.core) : importFile(a.in);
    std::printf("%016llx\n",
                static_cast<unsigned long long>(nl.contentHash()));
    return 0;
}

/** One human-readable summary line per pipeline pass. */
void
printPassSummary(const PipelineReport &report)
{
    for (const PassStats &s : report.passes) {
        char dpower[32] = "-";
        char ddepth[32] = "-";
        if (s.powerBeforeUW >= 0 && s.powerAfterUW >= 0) {
            std::snprintf(dpower, sizeof(dpower), "%+.2f uW",
                          s.powerAfterUW - s.powerBeforeUW);
        }
        if (s.depthBeforePs >= 0 && s.depthAfterPs >= 0) {
            std::snprintf(ddepth, sizeof(ddepth), "%+.0f ps",
                          s.depthAfterPs - s.depthBeforePs);
        }
        std::printf("pass %-14s %5zu changes, %zu -> %zu gates,"
                    " dpower %s, ddepth %s, %.1f ms\n",
                    s.name.c_str(), s.changes, s.gatesBefore,
                    s.gatesAfter, dpower, ddepth, s.wallMs);
    }
    if (report.rewrittenInstances > 0) {
        std::printf("rewrite-search: %zu datapath instance(s)"
                    " restructured\n",
                    report.rewrittenInstances);
    }
    if (report.gating.candidateBanks > 0) {
        std::printf("clock-gating: %zu of %zu bank(s) gated"
                    " (%zu flops), %.2f uW clock power saved\n",
                    report.gating.banks.size(),
                    report.gating.candidateBanks,
                    report.gating.gatedFlops(),
                    report.gating.savedClockUW);
    }
    if (report.satCandidates > 0) {
        std::printf("sat never-toggle: %zu candidate(s), %zu proven,"
                    " %zu refuted, %zu undecided\n",
                    report.satCandidates, report.satProven,
                    report.satRefuted, report.satUnknown);
        std::printf("sat never-toggle: %zu shard(s), %llu conflicts,"
                    " %llu propagations, %llu learned (%llu kept),"
                    " %llu db reduction(s)\n",
                    report.satShards,
                    static_cast<unsigned long long>(report.satConflicts),
                    static_cast<unsigned long long>(
                        report.satPropagations),
                    static_cast<unsigned long long>(report.satLearned),
                    static_cast<unsigned long long>(report.satKept),
                    static_cast<unsigned long long>(
                        report.satReductions));
    }
}

/** The tailor run's per-pass stats and gating plan as JSON. */
JsonValue
tailorStatusJson(const Args &a, const CutStats &cut,
                 const PipelineReport &report, bool verified)
{
    JsonValue doc = JsonValue::object();
    doc.set("app", JsonValue::str(a.app));
    JsonValue jc = JsonValue::object();
    jc.set("gates_before",
           JsonValue::number(static_cast<double>(cut.gatesBefore)));
    jc.set("gates_cut_direct",
           JsonValue::number(static_cast<double>(cut.gatesCutDirect)));
    jc.set("gates_after",
           JsonValue::number(static_cast<double>(cut.gatesAfter)));
    doc.set("cut", std::move(jc));
    JsonValue passes = JsonValue::array();
    for (const PassStats &s : report.passes) {
        JsonValue jp = JsonValue::object();
        jp.set("name", JsonValue::str(s.name));
        jp.set("changes",
               JsonValue::number(static_cast<double>(s.changes)));
        jp.set("gates_before",
               JsonValue::number(static_cast<double>(s.gatesBefore)));
        jp.set("gates_after",
               JsonValue::number(static_cast<double>(s.gatesAfter)));
        jp.set("power_before_uw", JsonValue::number(s.powerBeforeUW));
        jp.set("power_after_uw", JsonValue::number(s.powerAfterUW));
        jp.set("depth_before_ps", JsonValue::number(s.depthBeforePs));
        jp.set("depth_after_ps", JsonValue::number(s.depthAfterPs));
        jp.set("wall_ms", JsonValue::number(s.wallMs));
        passes.push(std::move(jp));
    }
    doc.set("passes", std::move(passes));
    doc.set("rewritten_instances",
            JsonValue::number(
                static_cast<double>(report.rewrittenInstances)));
    JsonValue jg = JsonValue::object();
    jg.set("candidate_banks",
           JsonValue::number(
               static_cast<double>(report.gating.candidateBanks)));
    jg.set("gated_banks",
           JsonValue::number(
               static_cast<double>(report.gating.banks.size())));
    jg.set("gated_flops",
           JsonValue::number(
               static_cast<double>(report.gating.gatedFlops())));
    jg.set("saved_clock_uw",
           JsonValue::number(report.gating.savedClockUW));
    doc.set("gating", std::move(jg));
    JsonValue js = JsonValue::object();
    js.set("candidates",
           JsonValue::number(
               static_cast<double>(report.satCandidates)));
    js.set("proven",
           JsonValue::number(static_cast<double>(report.satProven)));
    js.set("refuted",
           JsonValue::number(static_cast<double>(report.satRefuted)));
    js.set("unknown",
           JsonValue::number(static_cast<double>(report.satUnknown)));
    js.set("shards",
           JsonValue::number(static_cast<double>(report.satShards)));
    js.set("conflicts",
           JsonValue::number(static_cast<double>(report.satConflicts)));
    js.set("propagations",
           JsonValue::number(
               static_cast<double>(report.satPropagations)));
    js.set("learned_clauses",
           JsonValue::number(static_cast<double>(report.satLearned)));
    js.set("kept_clauses",
           JsonValue::number(static_cast<double>(report.satKept)));
    js.set("db_reductions",
           JsonValue::number(
               static_cast<double>(report.satReductions)));
    js.set("restarts",
           JsonValue::number(static_cast<double>(report.satRestarts)));
    doc.set("sat_never_toggle", std::move(js));
    doc.set("verified", JsonValue::boolean(verified));
    return doc;
}

int
cmdTailor(const Args &a)
{
    if (a.in.empty() || a.out.empty() || a.app.empty())
        usage("tailor needs -i FILE, --app NAME, and -o FILE");
    FlowOptions fopts;
    std::string perr;
    if (!parsePassList(a.passes, &fopts.passes, &perr))
        usage("--passes: " + perr);
    fopts.passes.collectMetrics = true;
    if (a.satDepth > 0)
        fopts.passes.sat.depth = a.satDepth;
    fopts.checkpointDir = a.checkpointDir;
    Netlist original = importFile(a.in);
    printStats("imported", original);

    const Workload &app = workloadByName(a.app);
    BespokeFlow flow(fopts, original);
    BespokeDesign d;
    std::string err;
    if (!flow.tryTailor(app, &d, &err))
        fail(err + "; the toggle set is incomplete");
    const AnalysisResult &r = d.analysis;
    std::printf("analysis: %llu paths, %llu cycles, %zu cells provably"
                " untoggled\n",
                static_cast<unsigned long long>(r.pathsExplored),
                static_cast<unsigned long long>(r.cyclesSimulated),
                r.untoggledCells());
    std::printf("cut: %zu -> %zu cells\n", d.cut.gatesBefore,
                d.cut.gatesAfter);
    printPassSummary(d.pipeline);
    const DesignMetrics &m = d.metrics;
    std::printf("metrics: %.0f um^2, %.0f ps critical at a %.0f ps"
                " clock, %.2f uW nominal, %.2f uW at vmin %.2f V\n",
                m.areaUm2, m.criticalPathPs, flow.clockPeriodPs(),
                m.powerNominal.totalUW(), m.powerAtVmin.totalUW(),
                m.vmin);

    if (a.verify) {
        AsmProgram prog = app.assembleProgram();
        EquivResult eq = checkSymbolicEquivalence(
            original, d.netlist, prog, flow.options().analysis);
        if (!eq.equivalent || !eq.completed)
            fail("equivalence check failed: " + eq.firstMismatch);
        std::printf("verified: %llu outputs compared across %llu"
                    " paths\n",
                    static_cast<unsigned long long>(eq.outputsCompared),
                    static_cast<unsigned long long>(eq.pathsExplored));
        // Independent cross-check: the CDCL miter shares no code with
        // the symbolic engine. A confirmed SAT witness here means one
        // of the two provers is wrong — fail loudly. The miter stays
        // at its own shallow default depth with a finite conflict
        // budget: --sat-depth steers the pass's unrolling envelope,
        // and a deep miter over an aggressively cut design can be
        // intractable. Budget exhaustion degrades to Unknown, which
        // is reported but non-fatal — the symbolic proof above is
        // authoritative; `prove` exists for deeper explicit miters.
        sat::SatEquivOptions so;
        so.conflictBudget = 200000;
        sat::SatEquivResult sr =
            sat::proveEquivalentSat(original, d.netlist, prog, so);
        if (sr.verdict == sat::SatEquivVerdict::NotEquivalent)
            fail("SAT cross-check disagrees with the symbolic prover: " +
                 sr.detail);
        std::printf("sat cross-check (depth %d): %s\n", sr.depth,
                    sr.verdict == sat::SatEquivVerdict::Equivalent
                        ? "equivalent"
                        : sr.detail.c_str());
    }

    if (!a.statusJson.empty()) {
        std::ofstream os(a.statusJson);
        if (!os)
            fail("cannot write '" + a.statusJson + "'");
        os << tailorStatusJson(a, d.cut, d.pipeline, a.verify).dump(2)
           << "\n";
        if (!os)
            fail("write to '" + a.statusJson + "' failed");
    }

    exportFile(d.netlist, a.out, "bespoke_" + a.app);
    printStats(a.out.c_str(), d.netlist);
    return 0;
}

int
cmdCheck(const Args &a)
{
    if (a.in.empty() || a.app.empty())
        usage("check needs -i FILE and --app NAME");
    Netlist candidate = importFile(a.in);
    Netlist reference =
        a.against.empty() ? buildCore(a.core) : importFile(a.against);

    const Workload &app = workloadByName(a.app);
    AsmProgram prog = app.assembleProgram();
    EquivResult eq = checkSymbolicEquivalence(reference, candidate, prog);
    if (!eq.equivalent || !eq.completed)
        fail("NOT equivalent for '" + a.app + "': " + eq.firstMismatch);
    std::printf("equivalent for '%s': %llu outputs compared across"
                " %llu paths\n",
                a.app.c_str(),
                static_cast<unsigned long long>(eq.outputsCompared),
                static_cast<unsigned long long>(eq.pathsExplored));
    return 0;
}

int
cmdProve(const Args &a)
{
    if (a.in.empty() || a.app.empty())
        usage("prove needs -i FILE and --app NAME");
    Netlist candidate = importFile(a.in);
    Netlist reference =
        a.against.empty() ? buildCore(a.core) : importFile(a.against);

    const Workload &app = workloadByName(a.app);
    AsmProgram prog = app.assembleProgram();
    sat::SatEquivOptions so;
    if (a.satDepth > 0)
        so.depth = a.satDepth;
    // Finite (if generous) budget so a pathological miter fails with
    // an "undecided" diagnosis instead of spinning forever.
    so.conflictBudget = 5000000;
    sat::SatEquivResult sr =
        sat::proveEquivalentSat(reference, candidate, prog, so);
    std::printf("sat prove (depth %d): %llu vars, %llu conflicts\n",
                sr.depth, static_cast<unsigned long long>(sr.vars),
                static_cast<unsigned long long>(sr.conflicts));
    std::printf("sat prove: %llu chunk quer%s, %llu propagations,"
                " %llu learned (%llu kept), %llu db reduction(s),"
                " %llu restarts, config %d\n",
                static_cast<unsigned long long>(sr.queries),
                sr.queries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(sr.propagations),
                static_cast<unsigned long long>(sr.learnedClauses),
                static_cast<unsigned long long>(sr.keptClauses),
                static_cast<unsigned long long>(sr.dbReductions),
                static_cast<unsigned long long>(sr.restarts),
                sr.config);
    if (sr.verdict == sat::SatEquivVerdict::Equivalent) {
        std::printf("equivalent for '%s': %s\n", a.app.c_str(),
                    sr.detail.c_str());
        return 0;
    }
    if (sr.verdict == sat::SatEquivVerdict::NotEquivalent)
        fail("NOT equivalent for '" + a.app + "': " + sr.detail);
    fail("undecided for '" + a.app + "': " + sr.detail);
}

int
cmdExportCnf(const Args &a)
{
    if (a.app.empty() || a.out.empty())
        usage("export-cnf needs --app NAME and -o FILE");
    if (a.miter && a.in.empty())
        usage("export-cnf --miter needs -i FILE (the candidate)");
    const Workload &app = workloadByName(a.app);
    AsmProgram prog = app.assembleProgram();
    int depth = a.satDepth > 0 ? a.satDepth : 8;

    sat::Cnf cnf;
    Netlist leader;
    Netlist follower;
    if (a.miter) {
        leader = a.against.empty() ? buildCore(a.core)
                                   : importFile(a.against);
        follower = importFile(a.in);
    } else {
        leader = a.in.empty() ? buildCore(a.core) : importFile(a.in);
    }
    sat::SocUnroller un(leader, prog, cnf);
    if (a.miter) {
        un.attachFollower(follower);
        sat::Lit bad = sat::encodeMiter(un, leader, follower, depth);
        cnf.comment("miter: reference vs '" + a.in + "' for app '" +
                    a.app + "', depth " +
                    std::to_string(depth));
        cnf.comment("satisfiable iff a shared output can diverge");
        cnf.unit(bad);
    } else {
        for (int f = 0; f < depth; f++)
            un.addFrame();
        cnf.comment("unrolling of app '" + a.app + "', depth " +
                    std::to_string(depth) + " (no property asserted)");
    }
    // Name the free variables so witnesses are readable.
    for (const sat::FreeVarInfo &fv : un.freeVars()) {
        const char *kind = nullptr;
        switch (fv.kind) {
          case sat::FreeVarInfo::Kind::GpioIn:   kind = "gpio_in"; break;
          case sat::FreeVarInfo::Kind::IrqExt:   kind = "irq_ext"; break;
          case sat::FreeVarInfo::Kind::RamInit:  kind = "ram_init"; break;
          case sat::FreeVarInfo::Kind::InitRdata: kind = "rdata0"; break;
          default: break;  // scratch kinds stay unnamed
        }
        if (!kind)
            continue;
        cnf.nameVar(fv.var, std::string(kind) + "[f" +
                                std::to_string(fv.frame) + ",i" +
                                std::to_string(fv.index) + ",b" +
                                std::to_string(fv.bit) + "]");
    }

    std::ofstream os(a.out, std::ios::binary);
    if (!os)
        fail("cannot write '" + a.out + "'");
    if (endsWith(a.out, ".smt2"))
        cnf.writeSmt2(os);
    else
        cnf.writeDimacs(os);
    if (!os)
        fail("write to '" + a.out + "' failed");
    std::printf("%s: %zu vars, %zu clauses, depth %d%s\n",
                a.out.c_str(), cnf.numVars(), cnf.numClauses(), depth,
                a.miter ? " (miter)" : "");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string cmd = argv[1];
    Args a = parseArgs(argc, argv);
    if (cmd == "export")
        return cmdExport(a);
    if (cmd == "convert")
        return cmdConvert(a);
    if (cmd == "hash")
        return cmdHash(a);
    if (cmd == "tailor")
        return cmdTailor(a);
    if (cmd == "check")
        return cmdCheck(a);
    if (cmd == "prove")
        return cmdProve(a);
    if (cmd == "export-cnf")
        return cmdExportCnf(a);
    usage("unknown command '" + cmd + "'");
}
