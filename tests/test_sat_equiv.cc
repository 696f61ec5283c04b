/**
 * @file
 * SAT miter equivalence prover: self-equivalence must fold away at
 * encode time, a genuinely tailored design must prove Equivalent, a
 * corrupted design must be caught with a concretely confirmed witness
 * (never a bare abstract model), a budget-exhausted miter must answer
 * Unknown, and the exported DIMACS/SMT2 text of the identical miter
 * formula must be well-formed and consistent with the container's own
 * counts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/bespoke/flow.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/cnf.hh"
#include "src/sat/equiv_prover.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/workloads/workload.hh"

namespace bespoke
{
namespace
{

/** Corrupt a design by inverting the driver of one OUTPUT port. */
Netlist
invertOutput(const Netlist &nl, const std::string &port)
{
    Netlist bad = nl;
    GateId out = bad.port(port);
    GateId inv = bad.addGate(CellType::INV, Module::Glue,
                             bad.gate(out).in[0]);
    bad.setFanin(out, 0, inv);
    bad.validate();
    return bad;
}

TEST(SatEquiv, SelfEquivalenceFoldsAtEncodeTime)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("mult").assembleProgram();
    sat::SatEquivOptions opts;
    opts.depth = 8;
    sat::SatEquivResult res =
        sat::proveEquivalentSat(core, core, prog, opts);
    EXPECT_EQ(res.verdict, sat::SatEquivVerdict::Equivalent);
    // Identical designs share every encoded node: the miter never
    // reaches the solver.
    EXPECT_NE(res.detail.find("folded"), std::string::npos);
}

TEST(SatEquiv, TailoredDesignProvesEquivalent)
{
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    Netlist core = buildBsp430();
    AnalysisOptions aopts;
    AnalysisResult ar = analyzeActivity(core, app, aopts);
    ASSERT_TRUE(ar.completed);
    PassPipelineOptions popts;
    PassEnv env;
    Netlist bespoke_nl =
        runTailorPipeline(core, ar.activity.get(), popts, env);

    sat::SatEquivOptions opts;
    opts.depth = 24;
    sat::SatEquivResult res =
        sat::proveEquivalentSat(core, bespoke_nl, prog, opts);
    EXPECT_EQ(res.verdict, sat::SatEquivVerdict::Equivalent)
        << res.detail;
    EXPECT_GT(res.vars, 0u);
}

TEST(SatEquiv, CorruptedDesignRefutedWithConfirmedWitness)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("mult").assembleProgram();
    // Find an output port whose inversion is concretely observable;
    // gpio_out bits are register-driven (known from reset), so the
    // first one always is.
    std::vector<std::string> outs;
    for (const auto &[name, id] : core.ports()) {
        if (core.gate(id).type == CellType::OUTPUT)
            outs.push_back(name);
    }
    ASSERT_FALSE(outs.empty());
    std::sort(outs.begin(), outs.end());
    bool caught = false;
    for (const std::string &port : outs) {
        Netlist bad = invertOutput(core, port);
        sat::SatEquivOptions opts;
        opts.depth = 8;
        sat::SatEquivResult res =
            sat::proveEquivalentSat(core, bad, prog, opts);
        ASSERT_NE(res.verdict, sat::SatEquivVerdict::Equivalent)
            << "inverted '" << port << "' proved equivalent";
        if (res.verdict == sat::SatEquivVerdict::NotEquivalent) {
            // The verdict must rest on a concrete replay, and the
            // witness must be well-formed for the requested bound.
            EXPECT_TRUE(res.witnessConfirmed);
            EXPECT_EQ(res.witnessGpio.size(),
                      static_cast<size_t>(opts.depth));
            EXPECT_NE(res.detail.find("witness replay"),
                      std::string::npos);
            caught = true;
            break;
        }
        // Unknown is tolerable for an output the three-valued replay
        // cannot pin down (X never confirms a mismatch) — but at
        // least one port must be caught concretely.
    }
    EXPECT_TRUE(caught)
        << "no output inversion produced a confirmed witness";
}

/**
 * A miter whose conflict budget runs out answers Unknown after its one
 * session: never Equivalent, and no retry under another search order.
 * The counters pin that exactly one chunk query ran, under the
 * solver's single configuration.
 */
TEST(SatEquiv, BudgetExhaustedMiterAnswersUnknown)
{
    const Workload &app = workloadByName("irq");
    BespokeFlow flow;
    BespokeDesign d = flow.tailor(app);
    AsmProgram prog = app.assembleProgram();

    sat::SatEquivOptions opts;
    opts.conflictBudget = 1;
    sat::SatEquivResult res =
        sat::proveEquivalentSat(flow.baseline(), d.netlist, prog, opts);
    EXPECT_EQ(res.verdict, sat::SatEquivVerdict::Unknown);
    EXPECT_EQ(res.detail, "conflict budget exhausted");
    EXPECT_EQ(res.conflicts, 2u);
    EXPECT_EQ(res.queries, 1u);
    EXPECT_EQ(res.propagations, 54773u);
}

TEST(SatEquiv, DimacsAndSmt2ExportsAreWellFormed)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("mult").assembleProgram();
    Netlist bad = invertOutput(core, [&] {
        std::vector<std::string> outs;
        for (const auto &[name, id] : core.ports())
            if (core.gate(id).type == CellType::OUTPUT)
                outs.push_back(name);
        std::sort(outs.begin(), outs.end());
        return outs.front();
    }());

    sat::Cnf cnf;
    sat::SocUnroller un(core, prog, cnf);
    un.attachFollower(bad);
    sat::Lit miter = sat::encodeMiter(un, core, bad, 4);
    ASSERT_NE(miter, sat::kFalse);
    cnf.unit(miter);

    std::ostringstream dimacs;
    cnf.writeDimacs(dimacs);
    std::istringstream in(dimacs.str());
    std::string line;
    size_t clause_lines = 0;
    bool header = false;
    size_t hdr_vars = 0, hdr_clauses = 0;
    long long max_var = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == 'c')
            continue;
        if (line[0] == 'p') {
            ASSERT_FALSE(header) << "duplicate DIMACS header";
            header = true;
            std::istringstream hs(line);
            std::string p, fmt;
            hs >> p >> fmt >> hdr_vars >> hdr_clauses;
            EXPECT_EQ(fmt, "cnf");
            continue;
        }
        ASSERT_TRUE(header) << "clause before header";
        std::istringstream cs(line);
        long long litv = 0, last = -1;
        while (cs >> litv) {
            last = litv;
            if (litv < 0)
                litv = -litv;
            max_var = std::max(max_var, litv);
        }
        EXPECT_EQ(last, 0) << "clause line not zero-terminated";
        clause_lines++;
    }
    ASSERT_TRUE(header);
    EXPECT_EQ(clause_lines, hdr_clauses);
    EXPECT_EQ(clause_lines, cnf.numClauses());
    EXPECT_LE(static_cast<size_t>(max_var), hdr_vars);
    EXPECT_EQ(hdr_vars, cnf.numVars());

    std::ostringstream smt;
    cnf.writeSmt2(smt);
    const std::string s = smt.str();
    EXPECT_NE(s.find("(check-sat)"), std::string::npos);
    EXPECT_NE(s.find("declare-const"), std::string::npos);
    EXPECT_NE(s.find("(assert"), std::string::npos);
}

} // namespace
} // namespace bespoke
