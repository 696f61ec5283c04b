#include "src/sat/portfolio.hh"

#include <algorithm>

namespace bespoke::sat
{

CdclConfig
portfolioConfig(int index)
{
    CdclConfig cfg;
    switch (index & 3) {
    case 0:
        break;  // the default search order
    case 1:
        cfg.restartFirst = 50;
        cfg.initPhase = true;
        cfg.orderSeed = 0x9e3779b9u;
        break;
    case 2:
        cfg.restartFirst = 200;
        cfg.orderSeed = 0x85ebca6bu;
        cfg.varDecay = 0.85;
        break;
    default:
        cfg.restartFirst = 150;
        cfg.initPhase = true;
        cfg.orderSeed = 0xc2b2ae35u;
        cfg.varDecay = 0.99;
        break;
    }
    // Indices past the base table keep permuting the branching order.
    if (index >= 4)
        cfg.orderSeed ^= 0x27d4eb2fu * static_cast<uint32_t>(index);
    return cfg;
}

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

int
runPortfolio(int attempts, const std::function<bool(int)> &try_one)
{
    for (int i = 0; i < attempts; i++) {
        if (try_one(i))
            return i;
    }
    return -1;
}

} // namespace bespoke::sat
