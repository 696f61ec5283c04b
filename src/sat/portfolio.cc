#include "src/sat/portfolio.hh"

#include <algorithm>

namespace bespoke::sat
{

std::vector<std::pair<size_t, size_t>>
shardRanges(size_t n, size_t min_per_shard, size_t max_shards)
{
    std::vector<std::pair<size_t, size_t>> out;
    if (n == 0)
        return out;
    if (min_per_shard == 0)
        min_per_shard = 1;
    size_t shards = (n + min_per_shard - 1) / min_per_shard;
    shards = std::max<size_t>(1, std::min(shards, max_shards));
    size_t base = n / shards, extra = n % shards;
    size_t begin = 0;
    for (size_t s = 0; s < shards; s++) {
        size_t len = base + (s < extra ? 1 : 0);
        out.emplace_back(begin, begin + len);
        begin += len;
    }
    return out;
}

std::vector<int>
deepeningSchedule(int depth)
{
    std::vector<int> out;
    int d = std::min(depth, 8);
    for (;;) {
        out.push_back(d);
        if (d >= depth)
            break;
        d = std::min(depth, d * 2);
    }
    return out;
}

} // namespace bespoke::sat
