/**
 * @file
 * The benchmark's seeded program draw.
 *
 * Every Table-1 application contributes its base program plus
 * kMutantsPerApp of its generateMutants() mutants (all of them when it
 * has fewer), picked without replacement by a generator seeded with the
 * workload seed: the draw is a pure function of the seed.
 *
 * Programs come out in rounds: round 0 is the 15 base programs, round
 * j >= 1 holds every app's j-th pick, apps in Table-1 order. A slow
 * spell of the host thus hits a few programs of every app rather than
 * all programs of one.
 */

#ifndef PERFBENCH_DRAW_HH
#define PERFBENCH_DRAW_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/workloads/workload.hh"

namespace perfbench
{

struct DrawnProgram
{
    std::string name;          ///< base app name or mutant name
    size_t app = 0;            ///< index into bespoke::workloads()
    size_t round = 0;          ///< 0 for the base program
    bool base = false;
    bespoke::Workload workload;
};

/** Mutants per app in the benchmark's draw (15 bases + 86 mutants). */
constexpr int kMutantsPerApp = 6;

std::vector<DrawnProgram> drawPrograms(uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DRAW_HH
