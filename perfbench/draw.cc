#include "perfbench/draw.hh"

#include <algorithm>
#include <utility>

#include "src/mutation/mutation.hh"
#include "src/util/rng.hh"

namespace perfbench
{

std::vector<DrawnProgram>
drawPrograms(uint64_t seed)
{
    const std::vector<bespoke::Workload> &apps = bespoke::workloads();
    bespoke::Rng rng(seed);
    std::vector<std::vector<DrawnProgram>> per(apps.size());
    for (size_t a = 0; a < apps.size(); a++) {
        per[a].push_back({apps[a].name, a, 0, true, apps[a]});
        std::vector<bespoke::Mutant> mutants =
            bespoke::generateMutants(apps[a]);
        size_t m = mutants.size();
        size_t take = std::min(m, static_cast<size_t>(kMutantsPerApp));
        // Partial Fisher-Yates: the first `take` slots become the picks.
        for (size_t j = 0; j < take; j++) {
            size_t i = j + rng.below(static_cast<uint32_t>(m - j));
            std::swap(mutants[j], mutants[i]);
            bespoke::Workload &w = mutants[j].workload;
            per[a].push_back({w.name, a, j + 1, false, std::move(w)});
        }
    }
    std::vector<DrawnProgram> draw;
    for (size_t round = 0;; round++) {
        bool any = false;
        for (std::vector<DrawnProgram> &list : per) {
            if (round < list.size()) {
                draw.push_back(std::move(list[round]));
                any = true;
            }
        }
        if (!any)
            break;
    }
    return draw;
}

} // namespace perfbench
