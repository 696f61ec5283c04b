/**
 * @file
 * The benchmark's own tests: the draw is a pure function of the seed,
 * and a traced (decomposed) op reproduces the plain library call.
 */

#include <gtest/gtest.h>

#include <set>

#include "perfbench/draw.hh"
#include "perfbench/ops.hh"
#include "src/util/logging.hh"

using namespace perfbench;

namespace
{

std::vector<std::string>
names(const std::vector<DrawnProgram> &draw)
{
    std::vector<std::string> n;
    for (const DrawnProgram &p : draw)
        n.push_back(p.name);
    return n;
}

/** One base program and the first mutant the draw picked for it. */
std::vector<DrawnProgram>
sample(const std::vector<DrawnProgram> &draw, const std::string &app)
{
    std::vector<DrawnProgram> out;
    for (const DrawnProgram &p : draw) {
        if (bespoke::workloads()[p.app].name == app && p.round <= 1)
            out.push_back(p);
    }
    return out;
}

void
expectTracedMatchesPlain(const std::string &workload,
                         const std::vector<std::string> &apps)
{
    bespoke::setVerbose(false);
    std::unique_ptr<Bench> bench = makeBench(workload);
    std::string err;
    ASSERT_TRUE(bench->setup(nullptr, &err)) << err;
    std::vector<DrawnProgram> d = drawPrograms(7);
    for (const std::string &app : apps) {
        for (const DrawnProgram &p : sample(d, app)) {
            OpResult plain = bench->run(p, nullptr);
            Trace trace;
            OpResult traced = bench->run(p, &trace);
            EXPECT_EQ(fidelityMismatch(plain, traced), "") << p.name;
            EXPECT_GT(trace.rootSeconds(), 0.0);
        }
    }
}

} // namespace

TEST(PerfbenchDraw, SameSeedSameList)
{
    EXPECT_EQ(names(drawPrograms(1)), names(drawPrograms(1)));
    EXPECT_EQ(names(drawPrograms(12345)), names(drawPrograms(12345)));
    EXPECT_NE(names(drawPrograms(1)), names(drawPrograms(2)));
}

TEST(PerfbenchDraw, EveryAppInRoundsAndLargeEnoughForP90)
{
    std::vector<DrawnProgram> d = drawPrograms(3);
    // >= 100 ops leaves >= 10 samples beyond the 90th percentile.
    EXPECT_GE(d.size(), 100u);
    std::set<std::string> unique;
    std::vector<size_t> per_app(bespoke::workloads().size());
    for (size_t i = 0; i < d.size(); i++) {
        unique.insert(d[i].name);
        per_app[d[i].app]++;
        // Round 0 holds every base program, in Table-1 order.
        EXPECT_EQ(d[i].base, d[i].round == 0);
        if (i < per_app.size()) {
            EXPECT_EQ(d[i].app, i);
        }
    }
    EXPECT_EQ(unique.size(), d.size());
    for (size_t n : per_app) {
        EXPECT_GE(n, 1u + 4u);  // irq has the fewest mutants: 4
        EXPECT_LE(n, 1u + static_cast<size_t>(kMutantsPerApp));
    }
}

TEST(PerfbenchFidelity, TailorTracedMatchesTryTailor)
{
    expectTracedMatchesPlain("tailor", {"binSearch", "tea8"});
}

TEST(PerfbenchFidelity, ProveTracedMatchesUntraced)
{
    expectTracedMatchesPlain("prove", {"binSearch", "dbg"});
}

TEST(PerfbenchFidelity, VerifyTracedMatchesUntraced)
{
    expectTracedMatchesPlain("verify", {"div"});
}
