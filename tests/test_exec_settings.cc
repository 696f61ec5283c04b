/**
 * @file
 * Execution settings come only from explicit options. The gate
 * evaluator mode and the analysis lane width are fields; the analysis
 * runs on the calling thread and the lane-plane width is fixed at 64.
 * No environment variable changes them, so a library result depends
 * only on what the caller passes in.
 */

#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/activity_analysis.hh"
#include "src/builder/net_builder.hh"
#include "src/verify/runner.hh"

namespace bespoke
{
namespace
{

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(ExecSettings, EnvironmentDoesNotOverrideOptions)
{
    ScopedEnv full_eval("BESPOKE_FULL_EVAL", "1");
    ScopedEnv threads("BESPOKE_ANALYSIS_THREADS", "5");
    ScopedEnv lanes("BESPOKE_ANALYSIS_LANES", "1");
    ScopedEnv plane_bits("BESPOKE_PLANE_BITS", "512");

    Netlist nl;
    NetBuilder b(nl);
    Bus in = b.inputBus("in", 2);
    nl.addOutput("o", b.and2(in[0], in[1]));
    nl.validate();
    EXPECT_EQ(GateSim(nl).mode(), GateSim::EvalMode::EventDriven);
    EXPECT_EQ(AnalysisOptions{}.simMode, GateSim::EvalMode::EventDriven);

    AnalysisOptions opts;
    EXPECT_EQ(resolveAnalysisThreads(opts), 1);

    EXPECT_EQ(resolveAnalysisLanes(opts), 64);
    opts.laneWidth = 1;
    EXPECT_EQ(resolveAnalysisLanes(opts), 1);
    opts.laneWidth = 7;  // any width but 1 selects the planes
    EXPECT_EQ(resolveAnalysisLanes(opts), 64);

    EXPECT_EQ(resolvePlaneBits(0), 64);
    EXPECT_EQ(resolvePlaneBits(128), 64);
}

} // namespace
} // namespace bespoke
