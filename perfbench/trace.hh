/**
 * @file
 * In-memory spans and counters recorded by the benchmark around its
 * calls into the library's layers.
 *
 * A span names the layer whose public function it wraps; spans nest
 * (a power replay issued from inside the tailoring pipeline is a child
 * of the pipeline's span). A layer's self time is its spans' durations
 * minus the time their child spans cover. Counters are the work counts
 * the wrapped calls return, summed by name.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

class Trace
{
  public:
    /** Open a span for `layer` on `trace`; a null trace records nothing. */
    class Scope
    {
      public:
        Scope(Trace *trace, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Trace *trace_;
    };

    /** Add `v` to counter `name` on `trace` (no-op when null). */
    static void count(Trace *trace, const std::string &name, double v);

    /**
     * Move `seconds` of self time from layer `from` to layer `to`: for
     * a layer that runs inside a library call and reports its own wall
     * time in the call's result instead of being a span.
     */
    static void shift(Trace *trace, const std::string &from,
                      const std::string &to, double seconds);
    /** Summed duration of the closed spans of `layer` (0 when null). */
    static double total(const Trace *trace, const std::string &layer);

    /** Self seconds per layer over every closed span. */
    std::map<std::string, double> selfSeconds() const;
    const std::map<std::string, double> &counters() const
    {
        return counters_;
    }
    /** Sum of the durations of spans that have no parent. */
    double rootSeconds() const;

  private:
    using Clock = std::chrono::steady_clock;
    struct Span
    {
        std::string layer;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
    };

    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> shifted_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
