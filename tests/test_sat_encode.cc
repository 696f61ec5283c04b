/**
 * @file
 * CNF encoder differentials: the Tseitin combinational encoding and the
 * sequential SoC unroller must agree, value for value, with the gate
 * simulator they model.
 *
 *  - Combinational: random netlists, every gate compared between the
 *    encoder (constants folded at encode time, and separately a
 *    symbolic encoding pinned by assumptions) and GateSim.
 *  - Sequential: the real core unrolled from reset; every free
 *    variable of the unrolling is pinned to a concrete value by
 *    assumptions, and the unique resulting trace is compared frame by
 *    frame against a concrete Soc replay of the same stimulus — known
 *    simulator values must match the model exactly; X values (the
 *    simulator's unknowns) are exactly where the model is allowed to
 *    pick any refinement.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/activity_analysis.hh"
#include "src/builder/net_builder.hh"
#include "src/cpu/bsp430.hh"
#include "src/sat/cdcl.hh"
#include "src/sat/encode.hh"
#include "src/sat/equiv_prover.hh"
#include "src/sim/gate_sim.hh"
#include "src/sim/soc.hh"
#include "src/transform/pass_pipeline.hh"
#include "src/util/rng.hh"
#include "src/workloads/workload.hh"

namespace bespoke::sat
{
namespace
{

/** Random sequential netlist (same shape the pipeline tests use). */
Netlist
randomNetlist(Rng &rng, int num_inputs, int num_gates, int num_flops)
{
    Netlist nl;
    NetBuilder b(nl);
    std::vector<GateId> pool;
    for (int i = 0; i < num_inputs; i++)
        pool.push_back(nl.addInput("in[" + std::to_string(i) + "]"));
    pool.push_back(b.tie0());
    pool.push_back(b.tie1());
    std::vector<GateId> flop_d;
    for (int i = 0; i < num_flops; i++) {
        GateId ph = b.buf(b.tie0());
        flop_d.push_back(ph);
        pool.push_back(b.dff(ph, rng.chance(1, 2)));
    }
    auto pick = [&]() {
        return pool[rng.below(static_cast<uint32_t>(pool.size()))];
    };
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
        nl.setFanin(ph, 0,
                    pool[rng.below(
                        static_cast<uint32_t>(pool.size()))]);
    for (int i = 0; i < 4; i++)
        nl.addOutput("out[" + std::to_string(i) + "]", pick());
    nl.validate();
    return nl;
}

/** Both gate evaluators: the SAT encoding is crossed with each. */
constexpr GateSim::EvalMode kEvalModes[] = {GateSim::EvalMode::EventDriven,
                                            GateSim::EvalMode::FullEval};

const char *
evalModeName(GateSim::EvalMode mode)
{
    return mode == GateSim::EvalMode::FullEval ? "FullEval"
                                               : "EventDriven";
}

bool
isSource(const Gate &g)
{
    return g.type == CellType::INPUT || g.type == CellType::DFF ||
           g.type == CellType::DFFE;
}

TEST(SatEncode, FoldedCombFrameMatchesGateSim)
{
    // All sources constant: the encoder must fold every gate to
    // kTrue/kFalse and agree with the simulator bit for bit.
    for (GateSim::EvalMode mode : kEvalModes) {
        SCOPED_TRACE(evalModeName(mode));
        for (uint64_t seed = 0; seed < 200; seed++) {
            Rng rng(0xc0de + seed);
            Netlist nl = randomNetlist(rng, 6, 60, 4);
            std::vector<GateId> order = nl.levelize();

            GateSim sim(nl, mode);
            sim.reset();
            std::vector<Lit> vals(nl.size(), kFalse);
            for (GateId i = 0; i < nl.size(); i++) {
                const Gate &g = nl.gate(i);
                if (g.type == CellType::INPUT) {
                    bool v = rng.chance(1, 2);
                    sim.setInput(i, v ? Logic::One : Logic::Zero);
                    vals[i] = v ? kTrue : kFalse;
                } else if (g.type == CellType::DFF ||
                           g.type == CellType::DFFE) {
                    // reset() loaded the flop's reset value.
                    vals[i] = nl.gate(i).resetValue ? kTrue : kFalse;
                }
            }
            sim.evalComb();

            CdclSolver solver;
            Tseitin ts(solver);
            encodeCombFrame(nl, order, ts, &vals);
            ASSERT_EQ(solver.numVars(), 1u)
                << "seed " << seed << ": constants must fold, not encode";
            for (GateId i = 0; i < nl.size(); i++) {
                Logic v = sim.value(i);
                ASSERT_TRUE(isKnown(v)) << "seed " << seed;
                ASSERT_EQ(vals[i], v == Logic::One ? kTrue : kFalse)
                    << "seed " << seed << " gate " << i << " ("
                    << cellName(nl.gate(i).type, nl.gate(i).drive) << ")";
            }
        }
    }
}

TEST(SatEncode, SymbolicCombFrameMatchesGateSim)
{
    // Symbolic inputs, pinned by assumptions at solve time: exercises
    // the clause emission path of every cell shape.
    for (GateSim::EvalMode mode : kEvalModes) {
        SCOPED_TRACE(evalModeName(mode));
        for (uint64_t seed = 0; seed < 200; seed++) {
            Rng rng(0x5eed + seed);
            Netlist nl = randomNetlist(rng, 6, 60, 4);
            std::vector<GateId> order = nl.levelize();

            CdclSolver solver;
            Tseitin ts(solver);
            std::vector<Lit> vals(nl.size(), kFalse);
            std::vector<GateId> sources;
            for (GateId i = 0; i < nl.size(); i++) {
                if (isSource(nl.gate(i))) {
                    vals[i] = ts.fresh();
                    sources.push_back(i);
                }
            }
            encodeCombFrame(nl, order, ts, &vals);

            for (int trial = 0; trial < 4; trial++) {
                GateSim sim(nl, mode);
                sim.reset();
                // Flop outputs are sequential state, not combinational
                // nets: pin them through the state-restore interface (a
                // force() would only stick on gates the comb sweep
                // evaluates).
                SeqState seq = sim.seqState();
                std::vector<Lit> assumps;
                for (GateId i : sources) {
                    bool v = rng.chance(1, 2);
                    assumps.push_back(v ? vals[i] : ~vals[i]);
                    Logic lv = v ? Logic::One : Logic::Zero;
                    if (nl.gate(i).type == CellType::INPUT) {
                        sim.setInput(i, lv);
                    } else {
                        const std::vector<GateId> &ids = sim.seqIds();
                        for (size_t k = 0; k < ids.size(); k++)
                            if (ids[k] == i)
                                seq[k] = static_cast<uint8_t>(lv);
                    }
                }
                sim.restoreSeqState(seq);
                sim.evalComb();
                ASSERT_EQ(solver.solve(assumps), SolveResult::Sat)
                    << "seed " << seed;
                for (GateId i = 0; i < nl.size(); i++) {
                    Logic v = sim.value(i);
                    ASSERT_TRUE(isKnown(v));
                    ASSERT_EQ(solver.modelValue(vals[i]),
                              v == Logic::One)
                        << "seed " << seed << " trial " << trial
                        << " gate " << i << " ("
                        << cellName(nl.gate(i).type, nl.gate(i).drive)
                        << ")";
                }
            }
        }
    }
}

TEST(SatEncode, UnrolledCoreMatchesSocReplay)
{
    const int kDepth = 24;
    Netlist core = buildBsp430();
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();

    CdclSolver solver;
    SocUnroller un(core, prog, solver);
    for (int f = 0; f < kDepth; f++)
        un.addFrame();

    // Pin every free variable to a concrete value chosen by a seeded
    // RNG: the formula then has exactly one trace.
    Rng rng(0xfeedface);
    std::vector<Lit> assumps;
    std::vector<uint16_t> gpio(kDepth, 0);
    std::vector<bool> irq(kDepth, false);
    std::vector<std::pair<uint32_t, uint16_t>> ram_init;
    uint16_t rdata_init = 0;
    for (const FreeVarInfo &fv : un.freeVars()) {
        bool v = rng.chance(1, 2);
        assumps.push_back(mkLit(fv.var, !v));
        switch (fv.kind) {
          case FreeVarInfo::Kind::GpioIn:
            if (v)
                gpio[fv.frame] |= uint16_t(1u << fv.bit);
            break;
          case FreeVarInfo::Kind::IrqExt:
            irq[fv.frame] = v;
            break;
          case FreeVarInfo::Kind::InitRdata:
            if (v)
                rdata_init |= uint16_t(1u << fv.bit);
            break;
          case FreeVarInfo::Kind::RamInit:
            if (ram_init.empty() || ram_init.back().first != fv.index)
                ram_init.push_back({fv.index, 0});
            if (v)
                ram_init.back().second |= uint16_t(1u << fv.bit);
            break;
          default:
            break;  // MemFresh etc: unconstrained either way
        }
    }
    ASSERT_EQ(solver.solve(assumps), SolveResult::Sat);

    // Concrete replay of the same stimulus.
    for (GateSim::EvalMode mode : kEvalModes) {
        SCOPED_TRACE(evalModeName(mode));
        Soc soc(core, prog, /*ram_unknown=*/true, mode);
        soc.reset();
        EnvState env = soc.envState();
        for (const auto &[widx, val] : ram_init)
            env.ram[widx] = SWord::of(val);
        env.rdata = SWord::of(rdata_init);
        soc.restoreEnvState(env);

        size_t compared = 0;
        for (int f = 0; f < kDepth; f++) {
            soc.setGpioIn(SWord::of(gpio[f]));
            soc.setIrqExt(irq[f] ? Logic::One : Logic::Zero);
            soc.evalOnly();
            for (GateId i = 0; i < core.size(); i++) {
                Logic v = soc.sim().value(i);
                if (!isKnown(v))
                    continue;  // model may refine X either way
                ASSERT_EQ(solver.modelValue(un.gateAt(i, f)),
                          v == Logic::One)
                    << "frame " << f << " gate " << i << " ("
                    << cellName(core.gate(i).type, core.gate(i).drive)
                    << ")";
                compared++;
            }
            soc.finishCycle();
        }
        // The replay must be almost fully known: the unroller is being
        // checked against real values, not vacuously against X.
        EXPECT_GT(compared, static_cast<size_t>(core.size()) * kDepth / 2);
    }
}

TEST(SatEncode, UnrollerVariableNumberingIsDeterministic)
{
    Netlist core = buildBsp430();
    const Workload &app = workloadByName("mult");
    AsmProgram prog = app.assembleProgram();
    auto build = [&](std::vector<FreeVarInfo> *fv) {
        Cnf cnf;
        SocUnroller un(core, prog, cnf);
        for (int f = 0; f < 6; f++)
            un.addFrame();
        *fv = un.freeVars();
        return std::pair<size_t, size_t>{cnf.numVars(),
                                         cnf.numClauses()};
    };
    std::vector<FreeVarInfo> fa, fb;
    auto a = build(&fa);
    auto b = build(&fb);
    EXPECT_EQ(a, b);
    ASSERT_EQ(fa.size(), fb.size());
    for (size_t i = 0; i < fa.size(); i++) {
        EXPECT_EQ(fa[i].var, fb[i].var);
        EXPECT_EQ(static_cast<int>(fa[i].kind),
                  static_cast<int>(fb[i].kind));
    }
}

/**
 * FNV-1a over a whole clause stream: the variable count, then every
 * clause in order as its size followed by its literal codes.
 */
uint64_t
clauseStreamHash(const Cnf &cnf)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(cnf.numVars());
    for (size_t c = 0; c < cnf.numClauses(); c++) {
        mix(cnf.clauseSize(c));
        const Lit *ls = cnf.clauseLits(c);
        for (size_t j = 0; j < cnf.clauseSize(c); j++)
            mix(ls[j].code);
    }
    return h;
}

// The encodings below are pinned clause for clause: variable numbering,
// clause order and every literal. Encoder rewrites must reproduce them
// exactly, since the CDCL search (and so every SAT counter and
// verdict) follows the clause stream. irq is the app whose free
// interrupt line keeps the core symbolic; on most apps both encodings
// fold to a few hundred clauses.

TEST(SatEncode, MiterClauseStreamIsPinned)
{
    Netlist core = buildBsp430();
    const Workload &app = workloadByName("irq");
    AsmProgram prog = app.assembleProgram();
    AnalysisResult ar = analyzeActivity(core, prog);
    ASSERT_TRUE(ar.completed);
    Netlist tailored = runTailorPipeline(core, ar.activity.get());

    Cnf cnf;
    SocUnroller un(core, prog, cnf);
    un.attachFollower(tailored);
    Lit miter = encodeMiter(un, core, tailored, 24);
    EXPECT_EQ(miter.code, 81181u);
    EXPECT_EQ(cnf.numVars(), 40591u);
    EXPECT_EQ(cnf.numClauses(), 136800u);
    EXPECT_EQ(clauseStreamHash(cnf), 6401646133211970909ull);
}

TEST(SatEncode, NeverToggleUnrollingClauseStreamIsPinned)
{
    Netlist core = buildBsp430();
    AsmProgram prog = workloadByName("irq").assembleProgram();
    Cnf cnf;
    SocUnroller un(core, prog, cnf);
    for (int f = 0; f < 30; f++)
        un.addFrame();
    EXPECT_EQ(cnf.numVars(), 53886u);
    EXPECT_EQ(cnf.numClauses(), 184060u);
    EXPECT_EQ(clauseStreamHash(cnf), 6259663330737128700ull);
}

} // namespace
} // namespace bespoke::sat
