/**
 * @file
 * Tests for the server-farm extension (dispatchers, ServerFarm,
 * FarmRuntime) — the paper's Section 7 scale-out direction.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "farm/dispatcher.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/job_stream.hh"

namespace sleepscale {
namespace {

// ------------------------------------------------------------ dispatchers

TEST(Dispatchers, RoundRobinCycles)
{
    RoundRobinDispatcher rr;
    const std::vector<ServerSnapshot> servers(3);
    EXPECT_EQ(rr.route({0.0, 1.0}, servers), 0u);
    EXPECT_EQ(rr.route({1.0, 1.0}, servers), 1u);
    EXPECT_EQ(rr.route({2.0, 1.0}, servers), 2u);
    EXPECT_EQ(rr.route({3.0, 1.0}, servers), 0u);
}

TEST(Dispatchers, RandomCoversAllServers)
{
    RandomDispatcher random(7);
    const std::vector<ServerSnapshot> servers(4);
    std::array<int, 4> counts{};
    for (int i = 0; i < 4000; ++i)
        ++counts[random.route({0.0, 1.0}, servers)];
    for (int count : counts)
        EXPECT_NEAR(count, 1000, 150);
}

TEST(Dispatchers, JsqPicksLeastBacklog)
{
    JsqDispatcher jsq;
    std::vector<ServerSnapshot> servers(3);
    servers[0].backlog = 2.0;
    servers[1].backlog = 0.5;
    servers[2].backlog = 1.0;
    EXPECT_EQ(jsq.route({0.0, 1.0}, servers), 1u);
}

TEST(Dispatchers, PackingPrefersBusyBelowSpill)
{
    PackingDispatcher packing(1.0);
    std::vector<ServerSnapshot> servers(3);
    servers[0].idle = true;
    servers[1].idle = false;
    servers[1].backlog = 0.4;
    servers[2].idle = true;
    // Busy server under the threshold keeps receiving work...
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 1u);
    // ...until it saturates, then an idle server is woken.
    servers[1].backlog = 1.5;
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 0u);
}

TEST(Dispatchers, PackingFallsBackToJsqWhenAllBusy)
{
    PackingDispatcher packing(0.5);
    std::vector<ServerSnapshot> servers(2);
    servers[0].idle = false;
    servers[0].backlog = 3.0;
    servers[1].idle = false;
    servers[1].backlog = 2.0;
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 1u);
}

// Tie-breaking is part of the dispatcher contract: the sharded
// event-driven core answers "least backlogged" and "first idle"
// queries from index structures instead of linear scans, so the rule
// those scans implied — exact ties go to the LOWEST server index —
// is pinned here explicitly. Any core that resolved ties by shard
// order, heap order, or arrival order would fail these.

TEST(Dispatchers, JsqTieBreaksToLowestIndex)
{
    JsqDispatcher jsq;
    std::vector<ServerSnapshot> servers(4);
    // All idle: every backlog is exactly 0.0.
    EXPECT_EQ(jsq.route({0.0, 1.0}, servers), 0u);
    // An exact busy tie (same committed seconds) also goes low.
    for (auto &server : servers) {
        server.idle = false;
        server.backlog = 1.5;
    }
    EXPECT_EQ(jsq.route({0.0, 1.0}, servers), 0u);
    // The tie group need not start at index 0.
    servers[0].backlog = 2.0;
    EXPECT_EQ(jsq.route({0.0, 1.0}, servers), 1u);
}

TEST(Dispatchers, PackingTieBreaksToLowestIndex)
{
    PackingDispatcher packing(1.0);
    std::vector<ServerSnapshot> servers(4);
    // Several idle servers: the first idle index wins the spill.
    servers[0].idle = false;
    servers[0].backlog = 2.0;
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 1u);
    // Exact busy tie below the spill threshold: lowest index.
    for (auto &server : servers) {
        server.idle = false;
        server.backlog = 0.25;
    }
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 0u);
    // Exact busy tie above the spill with no idle server: still the
    // least-backlogged scan's first minimum.
    for (auto &server : servers)
        server.backlog = 3.0;
    servers[0].backlog = 4.0;
    EXPECT_EQ(packing.route({0.0, 1.0}, servers), 1u);
}

TEST(Dispatchers, FactoryAndValidation)
{
    EXPECT_EQ(makeDispatcher("random")->name(), "random");
    EXPECT_EQ(makeDispatcher("round-robin")->name(), "round-robin");
    EXPECT_EQ(makeDispatcher("JSQ")->name(), "JSQ");
    EXPECT_EQ(makeDispatcher("packing")->name(), "packing");
    EXPECT_THROW(makeDispatcher("voodoo"), ConfigError);
    EXPECT_THROW(PackingDispatcher(0.0), ConfigError);
    RandomDispatcher random(1);
    EXPECT_THROW(random.route({0.0, 1.0}, {}), ConfigError);
}

// ------------------------------------------------------------- ServerFarm

class FarmTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    Policy idlePolicy{1.0,
                      SleepPlan::immediate(LowPowerState::C6S0Idle)};

    ServerFarm
    makeFarm(std::size_t size, const std::string &dispatcher = "JSQ")
    {
        return ServerFarm(xeon, ServiceScaling::cpuBound(), idlePolicy,
                          size, makeDispatcher(dispatcher));
    }
};

TEST_F(FarmTest, JobsConservedAcrossServers)
{
    ServerFarm farm = makeFarm(4, "random");
    Rng rng(3);
    ExponentialDist gaps(0.05), sizes(0.194);
    const auto jobs = generateJobs(rng, gaps, sizes, 5000);
    for (const Job &job : jobs)
        farm.offerJob(job);
    farm.advanceTo(farm.nextFreeTime());
    const SimStats stats = farm.harvestWindow();

    EXPECT_EQ(stats.arrivals, jobs.size());
    EXPECT_EQ(stats.completions, jobs.size());
    const auto &routed = farm.jobsPerServer();
    EXPECT_EQ(std::accumulate(routed.begin(), routed.end(), 0ull),
              jobs.size());
}

TEST_F(FarmTest, JsqFarmTieBreaksToLowestIndex)
{
    // Farm-level pin of the dispatcher tie-break rule: a fresh farm is
    // an exact all-zero-backlog tie, and equal jobs keep producing
    // exact ties, so the routed sequence is fully determined.
    ServerFarm farm = makeFarm(3, "JSQ");
    EXPECT_EQ(farm.offerJob({0.0, 0.5}), 0u); // all idle -> lowest.
    EXPECT_EQ(farm.offerJob({0.0, 0.5}), 1u); // 1 and 2 tie at zero.
    EXPECT_EQ(farm.offerJob({0.0, 0.5}), 2u);
    // All three backlogs are now byte-identical: lowest index again.
    EXPECT_EQ(farm.offerJob({0.0, 0.5}), 0u);
    EXPECT_EQ(farm.offerJob({0.0, 0.5}), 1u);
}

TEST_F(FarmTest, EligibleTieBreaksToLowestEligibleIndex)
{
    // The failover path filters to eligible servers in index order
    // before routing; ties then go to the lowest *eligible* index,
    // independent of how the unavailable servers are laid out.
    ServerFarm farm = makeFarm(4, "JSQ");
    farm.failServer(0, 0.0);
    farm.failServer(2, 0.0);
    EXPECT_EQ(farm.tryOfferJob({1.0, 0.5}), 1u);
    EXPECT_EQ(farm.tryOfferJob({1.0, 0.5}), 3u);
    EXPECT_EQ(farm.tryOfferJob({1.0, 0.5}), 1u);
    farm.restoreServer(0, 2.0);
    EXPECT_EQ(farm.tryOfferJob({2.0, 0.5}), 0u);
}

TEST_F(FarmTest, FarmEnergyIsSumOfServers)
{
    ServerFarm farm = makeFarm(2, "round-robin");
    farm.offerJob({1.0, 0.5});
    farm.offerJob({1.5, 0.5});
    farm.advanceTo(10.0);
    const SimStats merged = farm.harvestWindow();

    // Reconstruct by hand: two identical servers, one job each.
    ServerSim lone(xeon, ServiceScaling::cpuBound(), idlePolicy);
    lone.offerJob({1.0, 0.5});
    lone.advanceTo(10.0);
    ServerSim lone2(xeon, ServiceScaling::cpuBound(), idlePolicy);
    lone2.offerJob({1.5, 0.5});
    lone2.advanceTo(10.0);
    const double expected = lone.harvestWindow().energy +
                            lone2.harvestWindow().energy;
    EXPECT_NEAR(merged.energy, expected, 1e-9);
    // Farm power is reported over the shared wall clock.
    EXPECT_NEAR(merged.avgPower(), expected / 10.0, 1e-9);
}

TEST_F(FarmTest, JsqBeatsRandomOnResponse)
{
    Rng rng(11);
    ExponentialDist gaps(0.194 / (0.6 * 4)), sizes(0.194);
    const auto jobs = generateJobs(rng, gaps, sizes, 40000);

    auto run = [&](const std::string &dispatcher) {
        ServerFarm farm = makeFarm(4, dispatcher);
        for (const Job &job : jobs)
            farm.offerJob(job);
        farm.advanceTo(farm.nextFreeTime());
        return farm.harvestWindow();
    };
    const SimStats jsq = run("JSQ");
    const SimStats random = run("random");
    EXPECT_LT(jsq.meanResponse(), random.meanResponse());
}

TEST_F(FarmTest, PackingConcentratesLoad)
{
    // At low load the packing dispatcher should leave some servers
    // nearly untouched while random spreads work everywhere.
    Rng rng(13);
    ExponentialDist gaps(0.194 / (0.1 * 4)), sizes(0.194);
    const auto jobs = generateJobs(rng, gaps, sizes, 20000);

    ServerFarm packed = makeFarm(4, "packing");
    for (const Job &job : jobs)
        packed.offerJob(job);
    const auto &routed = packed.jobsPerServer();
    const auto minmax =
        std::minmax_element(routed.begin(), routed.end());
    EXPECT_GT(*minmax.second, 4 * std::max<std::uint64_t>(
                                      1, *minmax.first));
}

TEST_F(FarmTest, PackingSavesIdlePowerAtLowLoad)
{
    Rng rng(17);
    ExponentialDist gaps(0.194 / (0.1 * 4)), sizes(0.194);
    const auto jobs = generateJobs(rng, gaps, sizes, 20000);

    auto power = [&](const std::string &dispatcher) {
        ServerFarm farm = makeFarm(4, dispatcher);
        for (const Job &job : jobs)
            farm.offerJob(job);
        farm.advanceTo(farm.nextFreeTime());
        return farm.harvestWindow().avgPower();
    };
    EXPECT_LT(power("packing"), power("random"));
}

TEST_F(FarmTest, PerServerPolicyControl)
{
    ServerFarm farm = makeFarm(2, "round-robin");
    const Policy fast{1.0,
                      SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
    const Policy slow{0.5,
                      SleepPlan::immediate(LowPowerState::C6S3)};
    farm.setPolicy(0, fast, 0.0);
    farm.setPolicy(1, slow, 0.0);
    EXPECT_DOUBLE_EQ(farm.policy(0).frequency, 1.0);
    EXPECT_DOUBLE_EQ(farm.policy(1).frequency, 0.5);
    EXPECT_THROW(farm.policy(5), ConfigError);
    EXPECT_THROW(farm.setPolicy(5, fast, 0.0), ConfigError);
}

TEST_F(FarmTest, ValidationGuards)
{
    EXPECT_THROW(makeFarm(0), ConfigError);
    EXPECT_THROW(ServerFarm(xeon, ServiceScaling::cpuBound(), idlePolicy,
                            2, nullptr),
                 ConfigError);
    ServerFarm farm = makeFarm(2);
    farm.offerJob({5.0, 0.1});
    EXPECT_THROW(farm.offerJob({4.0, 0.1}), ConfigError);
}

// ------------------------------------------------------------ FarmRuntime

TEST(FarmRuntime, ConservesJobsAndMeetsSanityBounds)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(30, 0.3));
    Rng rng(21);
    const auto jobs = generateFarmJobs(rng, dns, trace, 4);

    FarmRuntimeConfig config;
    config.farmSize = 4;
    config.dispatcher = "JSQ";
    config.perServer.epochMinutes = 5;
    const FarmRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.3);
    const FarmRuntimeResult result = runtime.run(jobs, trace, predictor);

    EXPECT_EQ(result.total.completions, jobs.size());
    // Farm power must lie between 4 sleeping and 4 flat-out servers.
    EXPECT_GT(result.avgPower(),
              4.0 * xeon.lowPower(LowPowerState::C6S3, 1.0));
    EXPECT_LT(result.avgPower(), 4.0 * xeon.activePower(1.0));
    EXPECT_EQ(result.jobsPerServer.size(), 4u);
}

TEST(FarmRuntime, AggregateLoadMatchesTraceTimesSize)
{
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.25));
    Rng rng(23);
    const auto jobs = generateFarmJobs(rng, dns, trace, 8);
    const double load = offeredLoad(jobs, trace.duration());
    EXPECT_NEAR(load, 0.25 * 8.0, 0.25);
}

TEST(FarmRuntime, FixedPolicyFarmRunsRaceToHalt)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(20, 0.2));
    Rng rng(29);
    const auto jobs = generateFarmJobs(rng, dns, trace, 2);

    FarmRuntimeConfig config;
    config.farmSize = 2;
    config.perServer.fixedPolicy =
        raceToHalt(LowPowerState::C6S0Idle);
    const FarmRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.2);
    const FarmRuntimeResult result = runtime.run(jobs, trace, predictor);
    for (const EpochReport &epoch : result.epochs)
        EXPECT_DOUBLE_EQ(epoch.policy.frequency, 1.0);
}

TEST(FarmRuntime, SleepScaleFarmBeatsRaceToHaltFarm)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = dnsWorkload();
    const UtilizationTrace trace("flat",
                                 std::vector<double>(60, 0.15));
    Rng rng(31);
    const auto jobs = generateFarmJobs(rng, dns, trace, 4);

    FarmRuntimeConfig ss;
    ss.farmSize = 4;
    ss.perServer.epochMinutes = 5;
    FarmRuntimeConfig r2h = ss;
    r2h.perServer.fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);

    NaivePreviousPredictor p1(0.15), p2(0.15);
    const FarmRuntimeResult ss_result =
        FarmRuntime(xeon, dns, ss).run(jobs, trace, p1);
    const FarmRuntimeResult r2h_result =
        FarmRuntime(xeon, dns, r2h).run(jobs, trace, p2);
    EXPECT_LT(ss_result.avgPower(), r2h_result.avgPower());
}

TEST(FarmRuntime, ValidationGuards)
{
    const PlatformModel xeon = PlatformModel::xeon();
    FarmRuntimeConfig zero;
    zero.farmSize = 0;
    EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), zero), ConfigError);
    Rng rng(1);
    EXPECT_THROW(generateFarmJobs(rng, dnsWorkload(),
                                  UtilizationTrace("t", {0.1}), 0),
                 ConfigError);
    EXPECT_THROW(makeFarmSource(dnsWorkload(),
                                UtilizationTrace("t", {0.1}), 0, 1),
                 ConfigError);
}

TEST(FarmRuntime, ValidatesThePerServerKnobsLikeTheSingleServer)
{
    // Both runtimes validate RuntimeConfig with one rule; the farm
    // used to accept a negative α and a log cap below two jobs.
    const PlatformModel xeon = PlatformModel::xeon();
    for (const char *control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig negative_alpha;
        negative_alpha.control = control;
        negative_alpha.perServer.overProvision = -0.1;
        EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), negative_alpha),
                     ConfigError);
        FarmRuntimeConfig tiny_log;
        tiny_log.control = control;
        tiny_log.perServer.evalLogCap = 1;
        EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), tiny_log),
                     ConfigError);
        FarmRuntimeConfig no_history;
        no_history.control = control;
        no_history.perServer.historyEpochs = 0;
        EXPECT_THROW(FarmRuntime(xeon, dnsWorkload(), no_history),
                     ConfigError);
    }
}

TEST(FarmRuntime, MillionJobDayStreamsInBoundedMemory)
{
    // The acceptance bar for the streaming API: a seven-figure job
    // count flows through the farm without a full-trace
    // std::vector<Job> ever existing. The runtime holds one lookahead
    // job plus the (capped) decision log — with a fixed policy, not
    // even that — so peak job-buffer memory is bounded by the
    // epoch/history window regardless of run length.
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec google = googleWorkload();
    // 60 minutes at per-server load 0.35 across 4 servers with a
    // 4.2 ms mean service: ~1.2 million aggregate arrivals.
    const UtilizationTrace trace("flat",
                                 std::vector<double>(60, 0.35));
    const auto source = makeFarmSource(google, trace, 4, 47);

    FarmRuntimeConfig config;
    config.farmSize = 4;
    config.dispatcher = "JSQ";
    config.perServer.epochMinutes = 5;
    config.perServer.fixedPolicy =
        raceToHalt(LowPowerState::C6S0Idle);
    const FarmRuntime runtime(xeon, google, config);
    NaivePreviousPredictor predictor(0.35);
    const FarmRuntimeResult result =
        runtime.run(*source, trace, predictor);

    EXPECT_GE(result.total.arrivals, 1000000u);
    EXPECT_EQ(result.total.completions, result.total.arrivals);
    EXPECT_EQ(result.jobsPerServer.size(), 4u);
}

} // namespace
} // namespace sleepscale
