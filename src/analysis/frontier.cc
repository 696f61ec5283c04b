#include "src/analysis/frontier.hh"

#include "src/util/logging.hh"

namespace bespoke
{

Frontier::Frontier(const AnalysisOptions &opts)
    : maxPaths_(opts.maxPaths), maxTotalCycles_(opts.maxTotalCycles),
      concreteVisits_(opts.concreteVisits)
{
}

void
Frontier::push(WorkItem item)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        if (item.depth > maxDepth_)
            maxDepth_ = item.depth;
        stack_.push_back(std::move(item));
        if (stack_.size() > peak_)
            peak_ = stack_.size();
    }
    cv_.notify_one();
}

bool
Frontier::popBatch(size_t max, std::vector<WorkItem> &out)
{
    out.clear();
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        // Quiescence first (budgets only matter while work remains):
        // all pushed work explored and nobody left to push more means
        // a clean finish.
        if (stack_.empty() && active_ == 0) {
            cv_.notify_all();
            return false;
        }
        if (stopped_)
            return false;
        if (!stack_.empty()) {
            if (paths_ >= maxPaths_ ||
                cycles_.load(std::memory_order_relaxed) >=
                    maxTotalCycles_) {
                bespoke_warn("activity analysis hit exploration cap");
                capped_.store(true, std::memory_order_relaxed);
                stopped_ = true;
                cv_.notify_all();
                return false;
            }
            while (out.size() < max && !stack_.empty() &&
                   paths_ < maxPaths_) {
                out.push_back(std::move(stack_.back()));
                stack_.pop_back();
                paths_++;
                active_++;
            }
            return true;
        }
        cv_.wait(lk);
    }
}

size_t
Frontier::popMore(size_t max, std::vector<WorkItem> &out)
{
    std::lock_guard<std::mutex> lk(m_);
    size_t n = 0;
    while (n < max && !stack_.empty() && !stopped_ &&
           paths_ < maxPaths_ &&
           cycles_.load(std::memory_order_relaxed) < maxTotalCycles_) {
        out.push_back(std::move(stack_.back()));
        stack_.pop_back();
        paths_++;
        active_++;
        n++;
    }
    return n;
}

void
Frontier::declareCycleCap()
{
    std::lock_guard<std::mutex> lk(m_);
    if (!stopped_)
        bespoke_warn("activity analysis hit exploration cap");
    capped_.store(true, std::memory_order_relaxed);
    stopped_ = true;
    cv_.notify_all();
}

void
Frontier::finishItem()
{
    std::lock_guard<std::mutex> lk(m_);
    bespoke_assert(active_ > 0, "finishItem() without a popped item");
    active_--;
    if (active_ == 0)
        cv_.notify_all();
}

bool
Frontier::mergePoint(uint32_t key, MachineState &cur, bool &widened)
{
    widened = false;
    uint64_t h = cur.hash();

    Shard &shard = shards_[key % kShards];
    std::lock_guard<std::mutex> lk(shard.m);
    KeyState &ks = shard.keys[key];

    if (!ks.exactSeen.insert(h).second)
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
    merges_.fetch_add(1, std::memory_order_relaxed);
    ks.conservative = MachineState::merge(ks.conservative, cur);
    cur = ks.conservative;
    widened = true;
    return false;
}

} // namespace bespoke
