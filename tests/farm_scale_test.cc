/**
 * @file
 * Scale tests for the event-driven farm core (docs/FARM_SCALE.md):
 * the IdleSet / BusyCalendar / RankedSet index structures, faulty-farm
 * routing against a brute-force eligible-scan reference, bit-identical
 * results at every shard-pool width, bounded calendar memory over a
 * long streaming run, and the 10k-server million-job smoke run with
 * the conservation invariant checked at every epoch close.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_calendar.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/rng.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

TEST(IdleSet, TracksLowestMemberAcrossWordBoundaries)
{
    IdleSet set(200);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.lowest(), 200u);

    // Members straddling 64-bit word boundaries: lowest() must walk
    // the summary hierarchy, not just the first word.
    set.insert(130);
    EXPECT_EQ(set.lowest(), 130u);
    set.insert(64);
    EXPECT_EQ(set.lowest(), 64u);
    set.insert(63);
    EXPECT_EQ(set.lowest(), 63u);
    EXPECT_EQ(set.count(), 3u);

    // Idempotent mutation.
    set.insert(64);
    EXPECT_EQ(set.count(), 3u);
    set.erase(63);
    set.erase(63);
    EXPECT_EQ(set.count(), 2u);
    EXPECT_EQ(set.lowest(), 64u);
    EXPECT_FALSE(set.contains(63));
    EXPECT_TRUE(set.contains(130));

    set.erase(64);
    set.erase(130);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.lowest(), 200u);
}

TEST(IdleSet, FullConstructionMatchesNaiveSetAtHundredThousand)
{
    // Three bitmap levels at this size; a fresh farm is all idle.
    const std::size_t size = 100000;
    IdleSet set(size, /*full=*/true);
    EXPECT_EQ(set.count(), size);
    EXPECT_EQ(set.lowest(), 0u);

    // Knock out a prefix and spot-check against the naive answer.
    for (std::size_t i = 0; i < 4097; ++i)
        set.erase(i);
    EXPECT_EQ(set.lowest(), 4097u);
    set.insert(70);
    EXPECT_EQ(set.lowest(), 70u);
    set.erase(70);
    EXPECT_EQ(set.lowest(), 4097u);
    EXPECT_EQ(set.count(), size - 4097);
}

TEST(BusyCalendar, DrainsDueEventsAndDiscardsStaleOnes)
{
    BusyCalendar calendar;
    std::vector<double> next_free = {5.0, 3.0, 9.0};

    // Server 0 was first scheduled to free at 2.0, then an admission
    // extended it to 5.0: the 2.0 entry is stale and must not fire.
    calendar.push(2.0, 0);
    calendar.push(5.0, 0);
    calendar.push(3.0, 1);
    calendar.push(9.0, 2);
    EXPECT_EQ(calendar.pendingEntries(), 4u);

    std::vector<std::size_t> idled;
    calendar.drainDue(5.0, next_free,
                      [&](std::size_t server) { idled.push_back(server); });
    // Time order: stale 2.0 discarded, then 3.0 (server 1), 5.0
    // (server 0); server 2 is still due in the future.
    ASSERT_EQ(idled.size(), 2u);
    EXPECT_EQ(idled[0], 1u);
    EXPECT_EQ(idled[1], 0u);
    EXPECT_EQ(calendar.pendingEntries(), 1u);
    EXPECT_EQ(calendar.earliestBusy(next_free), 2u);
}

TEST(BusyCalendar, EarliestBusyBreaksTiesToLowestServer)
{
    BusyCalendar calendar;
    std::vector<double> next_free = {7.0, 7.0, 4.0};
    calendar.push(7.0, 1);
    calendar.push(7.0, 0);
    calendar.push(4.0, 2);

    // Valid earliest is server 2; after invalidating it (the mirror
    // moved on), the 7.0 tie must resolve to server 0.
    EXPECT_EQ(calendar.earliestBusy(next_free), 2u);
    next_free[2] = 11.0;
    EXPECT_EQ(calendar.earliestBusy(next_free), 0u);

    next_free[0] = 8.0;
    next_free[1] = 8.0;
    EXPECT_EQ(calendar.earliestBusy(next_free), BusyCalendar::none);
    EXPECT_TRUE(calendar.empty());
}

TEST(RankedSet, RankAndSelectMatchNaiveScanUnderChurn)
{
    for (const std::size_t size : {std::size_t{1}, std::size_t{64},
                                   std::size_t{200}, std::size_t{4097}}) {
        RankedSet set(size, /*full=*/true);
        std::vector<bool> naive(size, true);
        Rng rng(size);
        for (int step = 0; step < 600; ++step) {
            const std::size_t index = rng.uniformInt(size);
            if (rng.uniform() < 0.55) {
                set.erase(index);
                naive[index] = false;
            } else {
                set.insert(index);
                naive[index] = true;
            }
            // Check select and rank at evenly spaced ranks, and rank
            // at size itself.
            std::vector<std::size_t> members;
            for (std::size_t i = 0; i < size; ++i) {
                if (naive[i])
                    members.push_back(i);
            }
            ASSERT_EQ(set.count(), members.size());
            for (std::size_t k = 0; k < members.size();
                 k += 1 + members.size() / 16) {
                EXPECT_EQ(set.select(k), members[k]) << size << "/" << k;
                EXPECT_EQ(set.rank(members[k]), k) << size;
                EXPECT_TRUE(set.contains(members[k]));
            }
            EXPECT_EQ(set.rank(size), members.size());
        }
    }
    RankedSet empty(70);
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.rank(70), 0u);
    empty.insert(69);
    EXPECT_EQ(empty.select(0), 69u);
}

/**
 * Brute-force model of failover routing: a farm of plain ServerSims
 * whose dispatcher sees a ServerSnapshot vector of exactly the servers
 * accepting work at the arrival instant, in index order, and whose
 * choice maps back through that eligible list.
 */
class ReferenceFarm
{
  public:
    ReferenceFarm(const PlatformModel &platform, const Policy &policy,
                  std::size_t size, std::unique_ptr<Dispatcher> dispatcher)
        : _acceptFrom(size, 0.0), _dispatcher(std::move(dispatcher))
    {
        for (std::size_t i = 0; i < size; ++i)
            _servers.emplace_back(platform, ServiceScaling::cpuBound(),
                                  policy);
    }

    void fail(std::size_t server) { _acceptFrom[server] = infinity; }

    void restore(std::size_t server, double t, double recovery)
    {
        if (_acceptFrom[server] == infinity)
            _acceptFrom[server] = t + recovery;
    }

    std::size_t offer(const Job &job)
    {
        std::vector<std::size_t> eligible;
        std::vector<ServerSnapshot> view;
        for (std::size_t i = 0; i < _servers.size(); ++i) {
            if (job.arrival >= _acceptFrom[i]) {
                eligible.push_back(i);
                view.push_back({_servers[i].backlog(job.arrival),
                                _servers[i].idleAt(job.arrival)});
            }
        }
        if (eligible.empty())
            return ServerFarm::noServer;
        const std::size_t pick = eligible.at(_dispatcher->route(job, view));
        _servers[pick].offerJob(job);
        return pick;
    }

    void advanceTo(double t)
    {
        for (ServerSim &server : _servers)
            server.advanceTo(t);
    }

  private:
    static constexpr double infinity =
        std::numeric_limits<double>::infinity();
    std::vector<ServerSim> _servers;
    std::vector<double> _acceptFrom;
    std::unique_ptr<Dispatcher> _dispatcher;
};

// ServerFarm routes faulty farms through the same rank-space FarmView
// as healthy ones. Replays random crash / restore / arrival sequences
// against the brute-force eligible-scan model and demands the same pick
// for every job, for all four dispatchers. The random dispatcher makes
// one draw per routed job on both sides, so equal picks across the
// whole sequence also pin equal RNG consumption.
TEST(FarmScale, FaultyRoutingMatchesEligibleScanReference)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const Policy policy{1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)};
    std::size_t busy_recoveries = 0;
    std::size_t recovery_crashes = 0;
    std::size_t outages = 0;
    for (const char *dispatcher : {"random", "round-robin", "JSQ", "packing"}) {
        for (const std::size_t size :
             {std::size_t{3}, std::size_t{70}, std::size_t{150}}) {
            for (const double recovery : {0.0, 0.4}) {
                const std::string context = std::string(dispatcher) + "/" +
                                            std::to_string(size) + "/" +
                                            std::to_string(recovery);
                ServerFarm farm(xeon, ServiceScaling::cpuBound(), policy,
                                size, makeDispatcher(dispatcher, 17, 0.3));
                farm.setRecoverySeconds(recovery);
                ReferenceFarm reference(xeon, policy, size,
                                        makeDispatcher(dispatcher, 17, 0.3));
                Rng rng(size * 31 + (recovery > 0.0 ? 1 : 0));
                // Mean service 0.05 s against a 0.25 s mean gap per
                // server keeps queues short but nonempty.
                const double gap = 0.25 / static_cast<double>(size);
                double t = 1.0;
                std::vector<Job> retries;
                for (int step = 0; step < 6000; ++step) {
                    t += rng.exponential(gap);
                    const double roll = rng.uniform();
                    const std::size_t server = rng.uniformInt(size);
                    if (roll < 0.04) {
                        // Crash, sometimes mid-recovery or mid-drain.
                        if (farm.lifecycle(server, t) ==
                            ServerLifecycle::Recovering)
                            ++recovery_crashes;
                        farm.failServer(server, t);
                        reference.fail(server);
                    } else if (roll < 0.08) {
                        // Count restores whose recovery completes
                        // before the server's queue drains.
                        if (!farm.accepting(server, t) && recovery > 0.0 &&
                            farm.backlog(server, t) > recovery)
                            ++busy_recoveries;
                        farm.restoreServer(server, t);
                        reference.restore(server, t, recovery);
                    } else if (roll < 0.081) {
                        // Full outage: every arrival bounces until a
                        // server comes back, then its retry routes.
                        for (std::size_t i = 0; i < size; ++i) {
                            farm.failServer(i, t);
                            reference.fail(i);
                        }
                        ++outages;
                    } else if (roll < 0.09) {
                        farm.advanceTo(t);
                        reference.advanceTo(t);
                    } else {
                        Job job{t, rng.exponential(0.05)};
                        if (!retries.empty() && rng.uniform() < 0.5) {
                            job = retries.back();
                            job.arrival = t;
                            retries.pop_back();
                        }
                        const std::size_t got = farm.tryOfferJob(job);
                        ASSERT_EQ(got, reference.offer(job))
                            << context << " step " << step;
                        if (got == ServerFarm::noServer)
                            retries.push_back(job);
                    }
                    // Keep the farm from staying dark for long.
                    if (farm.acceptingCount(t) == 0 && rng.uniform() < 0.2) {
                        farm.restoreServer(server, t);
                        reference.restore(server, t, recovery);
                    }
                }
            }
        }
    }
    // The sequences really reached the regimes under test.
    EXPECT_GT(busy_recoveries, 0u);
    EXPECT_GT(recovery_crashes, 0u);
    EXPECT_GT(outages, 0u);
}

FarmRuntimeConfig
scaleConfig(std::size_t size, const std::string &control)
{
    FarmRuntimeConfig config;
    config.farmSize = size;
    config.dispatcher = "JSQ";
    config.control = control;
    config.perServer.epochMinutes = 5;
    return config;
}

FarmRuntimeResult
runScale(const FarmRuntimeConfig &config, const std::vector<Job> &jobs,
         const UtilizationTrace &trace)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const FarmRuntime runtime(xeon, dns, config);
    OfflinePredictor predictor(trace.values());
    VectorSource source = VectorSource::view(jobs);
    return runtime.run(source, trace, predictor);
}

void
expectBitIdentical(const FarmRuntimeResult &got,
                   const FarmRuntimeResult &expect,
                   const std::string &context)
{
    // Exact equality on doubles on purpose: sharding must change the
    // schedule of the accounting work, never its arithmetic.
    EXPECT_EQ(got.total.completions, expect.total.completions) << context;
    EXPECT_EQ(got.total.arrivals, expect.total.arrivals) << context;
    EXPECT_EQ(got.total.energy, expect.total.energy) << context;
    EXPECT_EQ(got.total.busyTime, expect.total.busyTime) << context;
    EXPECT_EQ(got.total.response.mean(), expect.total.response.mean())
        << context;
    EXPECT_EQ(got.total.responsePercentile(0.95),
              expect.total.responsePercentile(0.95))
        << context;
    ASSERT_EQ(got.epochs.size(), expect.epochs.size()) << context;
    for (std::size_t e = 0; e < expect.epochs.size(); ++e) {
        EXPECT_EQ(got.epochs[e].policy.toString(),
                  expect.epochs[e].policy.toString())
            << context << " epoch " << e;
        EXPECT_EQ(got.epochs[e].stats.energy, expect.epochs[e].stats.energy)
            << context << " epoch " << e;
    }
    ASSERT_EQ(got.servers.size(), expect.servers.size()) << context;
    for (std::size_t i = 0; i < expect.servers.size(); ++i) {
        EXPECT_EQ(got.servers[i].total.completions,
                  expect.servers[i].total.completions)
            << context << " server " << i;
        EXPECT_EQ(got.servers[i].total.energy,
                  expect.servers[i].total.energy)
            << context << " server " << i;
    }
}

// The shard pool only changes which lane integrates which server's
// accounting; per-server state is untouched and the reduction runs in
// index order, so any lane count must be bit-identical to serial.
// Pinned at 1 (serial), 2, and 8 lanes over both control planes.
TEST(FarmScale, ShardCountIsBitIdentical)
{
    const UtilizationTrace trace("flat", std::vector<double>(20, 0.3));
    TraceDrivenSource source(dnsWorkload(), trace, 23, 96);
    const auto jobs = materialize(source);

    for (const std::string control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig serial = scaleConfig(96, control);
        serial.shards = 1;
        const FarmRuntimeResult baseline = runScale(serial, jobs, trace);

        for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
            FarmRuntimeConfig sharded = scaleConfig(96, control);
            sharded.shards = shards;
            const FarmRuntimeResult got = runScale(sharded, jobs, trace);
            expectBitIdentical(got, baseline,
                               control + " shards=" +
                                   std::to_string(shards));
        }
    }
}

// Dropping tail histograms must not move any scalar statistic: the
// streaming moments are kept either way, only percentile buckets go.
TEST(FarmScale, TailHistogramOptOutKeepsScalarStatsBitIdentical)
{
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.3));
    TraceDrivenSource source(dnsWorkload(), trace, 29, 16);
    const auto jobs = materialize(source);

    FarmRuntimeConfig with = scaleConfig(16, "farm-wide");
    FarmRuntimeConfig without = scaleConfig(16, "farm-wide");
    without.tailHistograms = false;
    const FarmRuntimeResult a = runScale(with, jobs, trace);
    const FarmRuntimeResult b = runScale(without, jobs, trace);

    EXPECT_EQ(a.total.completions, b.total.completions);
    EXPECT_EQ(a.total.energy, b.total.energy);
    EXPECT_EQ(a.total.response.mean(), b.total.response.mean());
    // The histogram really is off: percentile queries see no samples.
    EXPECT_GT(a.total.responsePercentile(0.95), 0.0);
    EXPECT_EQ(b.total.responsePercentile(0.95), 0.0);
}

// Long streaming run against a directly-driven farm: the calendar
// must stay bounded by the number of undrained admissions (no leak of
// stale entries) and drain to exactly zero once the farm goes idle.
TEST(FarmScale, CalendarStaysBoundedOverStreamingRun)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    const std::size_t size = 1000;
    ServerFarm farm(xeon, ServiceScaling::cpuBound(), policy, size,
                    makeDispatcher("JSQ", 5));
    farm.setRecordTail(false);

    Rng rng(11);
    double t = 0.0;
    std::size_t max_entries = 0;
    for (int burst = 0; burst < 200; ++burst) {
        for (int j = 0; j < 500; ++j) {
            t += rng.exponential(1.0 / 500.0);
            farm.offerJob(Job{t, rng.exponential(0.05)});
        }
        // Advancing drains every due event: what remains are future
        // queue-empties entries, at most a small multiple of the farm
        // size at this load.
        farm.advanceTo(t);
        max_entries = std::max(max_entries, farm.calendarEntries());
    }
    EXPECT_LE(max_entries, 4 * size);

    // Quiesce: every server idle again, calendar fully drained.
    farm.advanceTo(t + 3600.0);
    EXPECT_EQ(farm.calendarEntries(), 0u);
    const auto windows = farm.harvestWindows();
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    for (const SimStats &w : windows) {
        arrivals += w.arrivals;
        completions += w.completions;
    }
    EXPECT_EQ(arrivals, 100000u);
    EXPECT_EQ(completions, 100000u);
}

// The headline smoke run: 10k servers, a million-plus jobs, streamed
// through the event-driven core with auto sharding and no per-server
// tail histograms. Must finish in seconds (the event wheel makes the
// per-arrival cost O(log N)) and conserve jobs at every epoch close.
TEST(FarmScale, TenThousandServerMillionJobRunConserves)
{
    const std::size_t size = 10000;
    const UtilizationTrace trace("flat", std::vector<double>(2, 0.17));
    TraceDrivenSource source(dnsWorkload(), trace, 42, size);
    const auto jobs = materialize(source);
    ASSERT_GT(jobs.size(), 1000000u);

    FarmRuntimeConfig config = scaleConfig(size, "farm-wide");
    config.perServer.epochMinutes = 1;
    config.shards = 0;          // Auto: scale lanes with the farm.
    config.tailHistograms = false;
    config.serverEpochReports = false;
    const FarmRuntimeResult result = runScale(config, jobs, trace);

    // Everything offered is accounted for at every epoch close...
    ASSERT_FALSE(result.epochFaults.empty());
    for (const FarmFaultStats &s : result.epochFaults)
        EXPECT_EQ(s.offered, s.completed + s.dropped + s.inFlight)
            << "at elapsed " << s.elapsedSeconds;
    // ...and the final drain leaves nothing in flight or dropped.
    EXPECT_EQ(result.faults.inFlight, 0u);
    EXPECT_EQ(result.faults.dropped, 0u);
    EXPECT_EQ(result.total.completions, jobs.size());
    ASSERT_EQ(result.servers.size(), size);

    // Per-server totals still reconcile with the farm merge.
    std::uint64_t completions = 0;
    for (const FarmServerReport &server : result.servers)
        completions += server.total.completions;
    EXPECT_EQ(completions, result.total.completions);
}

} // namespace
} // namespace sleepscale
