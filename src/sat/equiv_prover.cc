#include "src/sat/equiv_prover.hh"

#include <algorithm>
#include <sstream>

#include "src/sat/cdcl.hh"
#include "src/sat/encode.hh"
#include "src/sim/soc.hh"
#include "src/util/logging.hh"

namespace bespoke::sat
{

namespace
{

/** Shared OUTPUT ports, by name, present in both designs. */
std::vector<std::pair<GateId, GateId>>
sharedOutputs(const Netlist &a, const Netlist &b,
              std::vector<std::string> *names = nullptr)
{
    // Sorted by name: variable numbering (and so solver behavior) must
    // not depend on hash-map iteration order.
    std::vector<std::string> sorted;
    for (const auto &[name, id] : a.ports()) {
        if (a.gate(id).type == CellType::OUTPUT && b.hasPort(name))
            sorted.push_back(name);
    }
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::pair<GateId, GateId>> out;
    for (const std::string &name : sorted) {
        out.emplace_back(a.port(name), b.port(name));
        if (names)
            names->push_back(name);
    }
    return out;
}

} // namespace

/**
 * One bounded-miter session: the frame chain is extended chunk by
 * chunk on a single solver, each chunk's "some shared output differs
 * in these frames" disjunction solved as an assumption (so an UNSAT
 * chunk does not poison later ones). A SAT chunk short-circuits with a
 * witness at the shallowest depth that has one — the common
 * inequivalent case never pays for the full-depth encoding. A chunk
 * that exhausts the conflict budget ends the session with Unknown.
 */
SatEquivResult
proveEquivalentSat(const Netlist &original, const Netlist &bespoke_nl,
                   const AsmProgram &prog, const SatEquivOptions &opts)
{
    SatEquivResult res;
    res.depth = opts.depth;

    CdclSolver solver;
    SocUnroller un(original, prog, solver);
    un.attachFollower(bespoke_nl);
    auto ports = sharedOutputs(original, bespoke_nl);
    Tseitin ts(solver);

    auto finish_stats = [&] {
        res.vars = solver.numVars();
        res.conflicts = solver.conflicts();
        res.propagations = solver.propagations();
        res.learnedClauses = solver.learnedClauses();
        res.keptClauses = solver.keptClauses();
        res.dbReductions = solver.dbReductions();
        res.restarts = solver.restarts();
    };

    int encoded = 0;
    bool sat_at = false;
    int sat_depth = 0;
    for (int target : deepeningSchedule(opts.depth)) {
        std::vector<Lit> bad;
        while (encoded < target) {
            un.addFrame();
            for (const auto &[ida, idb] : ports) {
                Lit x = ts.xorL(un.gateAt(ida, encoded),
                                un.followerGateAt(idb, encoded));
                if (x != kFalse)
                    bad.push_back(x);
            }
            encoded++;
        }
        Lit chunk_bad = ts.orL(bad);
        if (chunk_bad == kFalse)
            continue;  // these frames folded identical at encode time
        res.queries++;
        SolveResult r = solver.solve({chunk_bad}, opts.conflictBudget);
        if (r == SolveResult::Unsat)
            continue;
        if (r == SolveResult::Unknown) {
            finish_stats();
            res.verdict = SatEquivVerdict::Unknown;
            res.detail = "conflict budget exhausted";
            return res;
        }
        sat_at = true;
        sat_depth = target;
        break;
    }
    finish_stats();
    if (!sat_at) {
        res.verdict = SatEquivVerdict::Equivalent;
        std::ostringstream os;
        os << "UNSAT: no output divergence within " << opts.depth
           << " cycles of reset";
        if (res.queries == 0)
            res.detail = "miter folded to constant-false at encode time";
        else
            res.detail = os.str();
        return res;
    }

    // --- SAT: extract the input witness from the model. ---
    res.witnessGpio.assign(opts.depth, 0);
    res.witnessIrq.assign(opts.depth, false);
    std::vector<std::pair<uint32_t, uint16_t>> ramInit;  // word idx, val
    uint16_t rdataInit = 0;
    for (const FreeVarInfo &fv : un.freeVars()) {
        bool v = solver.modelValue(mkLit(fv.var));
        switch (fv.kind) {
          case FreeVarInfo::Kind::GpioIn:
            if (v && fv.frame < opts.depth) {
                res.witnessGpio[fv.frame] = static_cast<uint16_t>(
                    res.witnessGpio[fv.frame] | (1u << fv.bit));
            }
            break;
          case FreeVarInfo::Kind::IrqExt:
            if (fv.frame < opts.depth)
                res.witnessIrq[fv.frame] = v;
            break;
          case FreeVarInfo::Kind::RamInit:
            if (ramInit.empty() || ramInit.back().first != fv.index)
                ramInit.emplace_back(fv.index, 0);
            if (v) {
                ramInit.back().second = static_cast<uint16_t>(
                    ramInit.back().second | (1u << fv.bit));
            }
            break;
          case FreeVarInfo::Kind::InitRdata:
            if (v)
                rdataInit = static_cast<uint16_t>(rdataInit
                                                  | (1u << fv.bit));
            break;
          default:
            break;  // MemFresh and OtherInput bits are not replayed
        }
    }

    // --- Confirm by concrete replay on the three-valued simulator. ---
    std::vector<std::string> names;
    auto named_ports = sharedOutputs(original, bespoke_nl, &names);
    Soc socA(original, prog, /*ram_unknown=*/true);
    Soc socB(bespoke_nl, prog, /*ram_unknown=*/true);
    socA.reset();
    socB.reset();
    {
        // Seed the witness's choice of initial RAM image and held
        // rdata; everything else stays X and the known-and-differ rule
        // below filters any output it reaches.
        EnvState ea = socA.envState(), eb = socB.envState();
        for (const auto &[wi, val] : ramInit)
            ea.ram[wi] = eb.ram[wi] = SWord::of(val);
        ea.rdata = eb.rdata = SWord::of(rdataInit);
        socA.restoreEnvState(ea);
        socB.restoreEnvState(eb);
    }
    for (int f = 0; f < sat_depth && !res.witnessConfirmed; f++) {
        socA.setGpioIn(SWord::of(res.witnessGpio[f]));
        socB.setGpioIn(SWord::of(res.witnessGpio[f]));
        Logic irq = res.witnessIrq[f] ? Logic::One : Logic::Zero;
        socA.setIrqExt(irq);
        socB.setIrqExt(irq);
        socA.evalOnly();
        socB.evalOnly();
        for (size_t p = 0; p < named_ports.size(); p++) {
            Logic va = socA.sim().value(named_ports[p].first);
            Logic vb = socB.sim().value(named_ports[p].second);
            if (isKnown(va) && isKnown(vb) && va != vb) {
                res.witnessConfirmed = true;
                std::ostringstream os;
                os << "witness replay: output '" << names[p]
                   << "' differs at cycle " << f << " (original="
                   << logicChar(va) << " bespoke=" << logicChar(vb)
                   << ")";
                res.detail = os.str();
                break;
            }
        }
        socA.finishCycle();
        socB.finishCycle();
    }
    if (res.witnessConfirmed) {
        res.verdict = SatEquivVerdict::NotEquivalent;
    } else {
        res.verdict = SatEquivVerdict::Unknown;
        res.detail = "SAT under the abstract memory envelope, but the "
                     "witness did not reproduce on concrete replay";
    }
    return res;
}

Lit
encodeMiter(SocUnroller &un, const Netlist &original,
            const Netlist &bespoke_nl, int depth)
{
    bespoke_assert(depth >= 1);
    auto ports = sharedOutputs(original, bespoke_nl);
    Tseitin ts(un.sink());
    std::vector<Lit> bad;
    for (int f = 0; f < depth; f++) {
        un.addFrame();
        for (const auto &[ida, idb] : ports) {
            Lit x = ts.xorL(un.gateAt(ida, f), un.followerGateAt(idb, f));
            if (x != kFalse)
                bad.push_back(x);
        }
    }
    return ts.orL(bad);
}

} // namespace bespoke::sat
