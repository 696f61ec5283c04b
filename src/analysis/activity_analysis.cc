#include "src/analysis/activity_analysis.hh"

#include <chrono>

#include "src/analysis/path_explorer.hh"
#include "src/util/logging.hh"

namespace bespoke
{

namespace
{

uint64_t
mixHash(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

bool
MachineState::substateOf(const MachineState &c) const
{
    if (lastFetchPc != c.lastFetchPc)
        return false;
    if (seq.size() != c.seq.size())
        return false;
    for (size_t i = 0; i < seq.size(); i++) {
        if (c.seq[i] == static_cast<uint8_t>(Logic::X))
            continue;
        if (seq[i] != c.seq[i])
            return false;
    }
    return env.substateOf(c.env);
}

MachineState
MachineState::merge(const MachineState &a, const MachineState &b)
{
    bespoke_assert(a.seq.size() == b.seq.size());
    MachineState m;
    m.lastFetchPc = a.lastFetchPc;
    m.seq.resize(a.seq.size());
    for (size_t i = 0; i < a.seq.size(); i++) {
        m.seq[i] = a.seq[i] == b.seq[i]
                       ? a.seq[i]
                       : static_cast<uint8_t>(Logic::X);
    }
    m.env = EnvState::merge(a.env, b.env);
    return m;
}

uint64_t
MachineState::hash() const
{
    uint64_t h = lastFetchPc;
    for (size_t i = 0; i < seq.size(); i++)
        h = mixHash(h, seq[i] + 3 * i);
    for (const SWord &w : env.ram)
        h = mixHash(h, (static_cast<uint64_t>(w.val) << 16) | w.known);
    h = mixHash(h, (static_cast<uint64_t>(env.rdata.val) << 16) |
                       env.rdata.known);
    return h;
}

bool
PairState::substateOf(const PairState &c) const
{
    return a.substateOf(c.a) && b.substateOf(c.b);
}

PairState
PairState::merge(const PairState &x, const PairState &y)
{
    return {MachineState::merge(x.a, y.a), MachineState::merge(x.b, y.b)};
}

uint64_t
PairState::hash() const
{
    return a.hash() * 0x9e3779b97f4a7c15ull + b.hash();
}

int
resolveAnalysisThreads(const AnalysisOptions &)
{
    return 1;
}

int
resolveAnalysisLanes(const AnalysisOptions &opts)
{
    return opts.laneWidth == 1 ? 1 : 64;
}

std::vector<MachineState>
SocCore::pcCandidates(SWord pc, const MachineState &base) const
{
    const std::vector<int> &pc_seq_index = ctx_->pcSeqIndex;
    for (int b = 0; b < 16; b++) {
        bespoke_assert(pc.bit(b) != Logic::X || pc_seq_index[b] >= 0,
                       "X PC bit ", b,
                       " is not a flop output; cannot enumerate");
    }
    // Every instruction head consistent with the known bits, in address
    // order (e.g. a merged return address on the stack).
    std::vector<MachineState> out;
    for (const auto &[addr, line] : prog_.addrToLine) {
        if ((addr & 1) || ((addr ^ pc.val) & pc.known))
            continue;
        MachineState s = base;
        for (int b = 0; b < 16; b++) {
            s.seq[pc_seq_index[b]] = static_cast<uint8_t>(
                (addr >> b) & 1 ? Logic::One : Logic::Zero);
        }
        s.lastFetchPc = addr;
        out.push_back(std::move(s));
    }
    return out;
}

AnalysisResult
analyzeActivity(const Netlist &netlist, const AsmProgram &prog,
                const AnalysisOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();
    AnalysisResult res;
    res.activity = std::make_unique<ActivityTracker>(netlist);
    PathExplorer<SocCore> explorer(SocContext::make(netlist), prog, opts,
                                   *res.activity);
    explorer.run();

    const Frontier<MachineState> &frontier = explorer.frontier();
    res.pathsExplored = frontier.pathsExplored();
    res.cyclesSimulated = frontier.cycles();
    res.merges = frontier.merges();
    res.forks = explorer.forks();
    res.completed = !frontier.capped();
    res.lanesUsed = explorer.lanes();
    res.gatesEvaluated = explorer.gatesEvaluated();
    res.laneSweeps = explorer.laneSweeps();
    res.laneCycles = explorer.laneCycles();
    res.frontierPeak = frontier.frontierPeak();
    res.maxForkDepth = frontier.maxForkDepth();
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (!res.completed)
        bespoke_warn("activity analysis hit exploration cap");
    bespoke_inform("activity analysis: ", res.pathsExplored, " paths, ",
                   res.cyclesSimulated, " cycles, ", res.forks,
                   " forks, ", res.merges, " merges in ", res.seconds,
                   " s (frontier peak ", res.frontierPeak,
                   ", max fork depth ", res.maxForkDepth,
                   res.completed ? ")" : ", CAPPED)");
    return res;
}

AnalysisResult
analyzeActivity(const Netlist &netlist, const Workload &w,
                const AnalysisOptions &opts)
{
    AsmProgram prog = w.assembleProgram();
    return analyzeActivity(netlist, prog, opts);
}

} // namespace bespoke
