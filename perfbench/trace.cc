#include "perfbench/trace.hh"

namespace perfbench
{

namespace
{

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // namespace

Trace::Scope::Scope(Trace *trace, const char *layer) : trace_(trace)
{
    if (!trace_)
        return;
    int parent = trace_->open_.empty() ? -1 : trace_->open_.back();
    trace_->open_.push_back(static_cast<int>(trace_->spans_.size()));
    trace_->spans_.push_back({layer, Clock::now(), {}, parent});
}

Trace::Scope::~Scope()
{
    if (!trace_)
        return;
    trace_->spans_[trace_->open_.back()].end = Clock::now();
    trace_->open_.pop_back();
}

void
Trace::count(Trace *trace, const std::string &name, double v)
{
    if (trace)
        trace->counters_[name] += v;
}

void
Trace::shift(Trace *trace, const std::string &from, const std::string &to,
             double seconds)
{
    if (!trace)
        return;
    trace->shifted_[from] -= seconds;
    trace->shifted_[to] += seconds;
}

double
Trace::total(const Trace *trace, const std::string &layer)
{
    double sum = 0.0;
    if (trace) {
        for (const Span &s : trace->spans_) {
            if (s.layer == layer && s.end != Clock::time_point())
                sum += seconds(s.end - s.start);
        }
    }
    return sum;
}

std::map<std::string, double>
Trace::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++)
        self[i] = seconds(spans_[i].end - spans_[i].start);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= seconds(s.end - s.start);
    }
    std::map<std::string, double> by_layer;
    for (size_t i = 0; i < spans_.size(); i++)
        by_layer[spans_[i].layer] += self[i];
    for (const auto &[layer, s] : shifted_)
        by_layer[layer] += s;
    return by_layer;
}

double
Trace::rootSeconds() const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.parent < 0)
            total += seconds(s.end - s.start);
    }
    return total;
}

} // namespace perfbench
