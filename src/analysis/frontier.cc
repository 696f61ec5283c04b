#include "src/analysis/frontier.hh"

namespace bespoke
{

template <class State>
Frontier<State>::Frontier(const AnalysisOptions &opts)
    : maxPaths_(opts.maxPaths), maxTotalCycles_(opts.maxTotalCycles),
      concreteVisits_(opts.concreteVisits)
{
}

template <class State>
void
Frontier<State>::push(WorkItem<State> item)
{
    if (item.depth > maxDepth_)
        maxDepth_ = item.depth;
    stack_.push_back(std::move(item));
    if (stack_.size() > peak_)
        peak_ = stack_.size();
}

template <class State>
size_t
Frontier<State>::pop(size_t max, std::vector<WorkItem<State>> &out)
{
    size_t n = 0;
    while (n < max && !stack_.empty() && !capped_ && !stopped_) {
        if (paths_ >= maxPaths_ || cycleBudgetSpent()) {
            capped_ = true;
            break;
        }
        out.push_back(std::move(stack_.back()));
        stack_.pop_back();
        paths_++;
        n++;
    }
    return n;
}

template <class State>
bool
Frontier<State>::mergePoint(uint32_t key, State &cur, bool &widened)
{
    widened = false;
    KeyState &ks = keys_[key];

    if (!ks.exactSeen.insert(cur.hash()).second)
        return true;  // exact state already explored here

    ks.visits++;
    if (ks.visits <= concreteVisits_)
        return false;  // still in the concrete-exploration budget

    if (!ks.hasConservative) {
        ks.conservative = cur;
        ks.hasConservative = true;
        return false;
    }
    if (cur.substateOf(ks.conservative))
        return true;
    merges_++;
    ks.conservative = State::merge(ks.conservative, cur);
    cur = ks.conservative;
    widened = true;
    return false;
}

template class Frontier<MachineState>;
template class Frontier<PairState>;

} // namespace bespoke
