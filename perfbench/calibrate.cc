#include "calibrate.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/** Keeps the kernel's results alive so the optimizer cannot drop it. */
volatile double gSink = 0.0;

/** One pass: a fixed amount of simulator-like work, the same every
 * time. */
void
calibrationPass()
{
    constexpr int kServers = 1000;
    constexpr int kArrivals = 40000;
    constexpr int kTableOps = 40000;
    constexpr std::uint64_t kKeys = 100000;

    std::mt19937_64 rng(20140614);
    std::exponential_distribution<double> exp(1.0);
    std::vector<double> busy(kServers, 0.0);
    std::vector<double> energy(kServers, 0.0);
    std::priority_queue<std::pair<double, int>,
                        std::vector<std::pair<double, int>>, std::greater<>>
        finishing;
    double now = 0.0;
    for (int i = 0; i < kArrivals; ++i) {
        now += exp(rng) / 800.0;
        while (!finishing.empty() && finishing.top().first <= now)
            finishing.pop();
        const auto server = static_cast<std::size_t>(rng() % kServers);
        const double start = std::max(now, busy[server]);
        const double size = exp(rng);
        energy[server] += (start - busy[server]) * 0.3 + size * 1.2;
        busy[server] = start + size;
        finishing.emplace(busy[server], static_cast<int>(server));
    }

    std::unordered_map<std::uint64_t, double> table;
    for (int i = 0; i < kTableOps; ++i) {
        const std::uint64_t key = rng() % kKeys;
        table[key] += static_cast<double>(key & 7);
        if ((key & 3) == 0)
            table.erase(rng() % kKeys);
    }

    double total = static_cast<double>(table.size());
    for (double joules : energy)
        total += joules;
    gSink = gSink + total;
}

} // namespace

double
calibrationPassSeconds(double budgetSeconds)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> passes;
    const auto start = Clock::now();
    do {
        const auto pass_start = Clock::now();
        calibrationPass();
        passes.push_back(
            std::chrono::duration<double>(Clock::now() - pass_start)
                .count());
    } while (std::chrono::duration<double>(Clock::now() - start).count() <
             budgetSeconds);
    std::sort(passes.begin(), passes.end());
    const std::size_t n = passes.size();
    return n % 2 ? passes[n / 2] : 0.5 * (passes[n / 2 - 1] + passes[n / 2]);
}

} // namespace perfbench
