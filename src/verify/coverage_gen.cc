#include "src/verify/coverage_gen.hh"

#include <set>

#include "src/util/logging.hh"

namespace bespoke
{

CoverageInputs
generateCoverageInputs(const Workload &w, int max_inputs, int plateau,
                       uint64_t seed)
{
    AsmProgram prog = w.assembleProgram();

    // Total line / branch universe.
    std::set<int> all_lines;
    for (const auto &[addr, line] : prog.addrToLine)
        all_lines.insert(line);
    size_t total_branches = prog.condBranchAddrs.size();

    std::set<int> covered_lines;
    std::set<uint16_t> covered_branches;
    std::set<uint32_t> covered_dirs;  // addr*2 + taken?

    CoverageInputs result;
    Rng rng(seed);
    int since_progress = 0;

    while (result.totalGenerated < max_inputs) {
        WorkloadInput input = w.genInput(rng);
        result.totalGenerated++;
        IssRun run = runWorkloadIss(w, input);
        if (run.result != StepResult::Halted) {
            bespoke_warn("coverage input did not halt for ", w.name);
            continue;
        }

        size_t before = covered_lines.size() + covered_dirs.size();
        for (uint16_t pc : run.executedPCs) {
            auto it = prog.addrToLine.find(pc);
            if (it != prog.addrToLine.end())
                covered_lines.insert(it->second);
        }
        for (const auto &[addr, dirs] : run.branchDirs) {
            covered_branches.insert(addr);
            if (dirs.first)
                covered_dirs.insert(addr * 2u);
            if (dirs.second)
                covered_dirs.insert(addr * 2u + 1u);
        }
        size_t after = covered_lines.size() + covered_dirs.size();
        if (after > before || result.inputs.empty()) {
            result.inputs.push_back(std::move(input));
            since_progress = 0;
        } else if (++since_progress >= plateau) {
            break;
        }
    }

    result.linePct = all_lines.empty()
                         ? 100.0
                         : 100.0 * static_cast<double>(
                               covered_lines.size()) /
                               static_cast<double>(all_lines.size());
    result.branchPct =
        total_branches == 0
            ? 100.0
            : 100.0 * static_cast<double>(covered_branches.size()) /
                  static_cast<double>(total_branches);
    result.branchDirPct =
        total_branches == 0
            ? 100.0
            : 100.0 * static_cast<double>(covered_dirs.size()) /
                  static_cast<double>(2 * total_branches);
    return result;
}

} // namespace bespoke
