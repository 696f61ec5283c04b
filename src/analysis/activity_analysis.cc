#include "src/analysis/activity_analysis.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "src/analysis/path_explorer.hh"
#include "src/util/logging.hh"
#include "src/util/worker_pool.hh"

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

int
resolveAnalysisThreads(const AnalysisOptions &opts)
{
    int threads = opts.threads;
    if (threads <= 0)
        threads = WorkerPool::defaultThreadCount();
    // More workers than this would only contend on the frontier.
    return std::min(threads, 256);
}

int
resolveAnalysisLanes(const AnalysisOptions &opts)
{
    return opts.laneWidth == 1 ? 1 : 64;
}

AnalysisResult
analyzeActivity(const Netlist &netlist, const AsmProgram &prog,
                const AnalysisOptions &opts)
{
    auto t0 = std::chrono::steady_clock::now();
    const int threads = resolveAnalysisThreads(opts);

    ExplorationContext ctx(netlist, prog, opts);
    Frontier frontier(opts);

    std::vector<std::unique_ptr<PathExplorer>> workers;
    workers.reserve(threads);
    for (int i = 0; i < threads; i++)
        workers.push_back(
            std::make_unique<PathExplorer>(ctx, frontier, i));
    for (auto &w : workers)
        w->prepare();

    frontier.push(workers[0]->initialItem());
    if (threads == 1) {
        // Run inline: deterministic, with no pool threads to perturb
        // timing-sensitive callers.
        workers[0]->run();
    } else {
        WorkerPool pool(threads);
        pool.runPerWorker([&](int i) { workers[i]->run(); });
    }

    // Toggle observations are commutative ORs, so merging the
    // per-worker trackers in any order yields the same result.
    for (int i = 1; i < threads; i++)
        workers[0]->tracker().mergeFrom(workers[i]->tracker());

    AnalysisResult res;
    res.activity = std::make_unique<ActivityTracker>(
        std::move(workers[0]->tracker()));
    res.pathsExplored = frontier.pathsExplored();
    res.cyclesSimulated = frontier.cycles();
    res.merges = frontier.merges();
    res.completed = !frontier.capped();
    res.threadsUsed = threads;
    res.lanesUsed = ctx.lanes;
    res.frontierPeak = frontier.frontierPeak();
    res.maxForkDepth = frontier.maxForkDepth();
    res.workerStats.reserve(threads);
    for (auto &w : workers) {
        res.forks += w->forks();
        res.gatesEvaluated += w->gatesEvaluated();
        res.laneSweeps += w->laneSweeps();
        res.laneCycles += w->laneCycles();
        res.workerStats.push_back(
            WorkerStats{w->pathsExplored(), w->cyclesSimulated()});
    }
    res.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    bespoke_inform("activity analysis: ", res.pathsExplored, " paths, ",
                   res.cyclesSimulated, " cycles, ", res.forks,
                   " forks, ", res.merges, " merges on ", threads,
                   " thread(s) in ", res.seconds,
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
