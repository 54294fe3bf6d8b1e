/**
 * @file
 * The availability plane (docs/FAULTS.md): fault-source determinism,
 * the ServerFarm crash/recovery lifecycle, dispatcher failover with
 * retry/backoff and drop accounting, degraded-mode policy decisions,
 * and — most load-bearing — the pin that a "none"-fault configuration
 * reproduces the fault-free farm runtime bit-for-bit, plus hash pins
 * over whole faulty runs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "core/strategies.hh"
#include "experiment/replication.hh"
#include "experiment/runner.hh"
#include "farm/dispatcher.hh"
#include "farm/farm_runtime.hh"
#include "farm/server_farm.hh"
#include "fault/fault_source.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

// ---------------------------------------------------------- FaultSource

bool
sameEvents(const std::vector<FaultEvent> &a,
           const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].server != b[i].server ||
            a[i].down != b[i].down)
            return false;
    }
    return true;
}

TEST(FaultSources, RegistryListsTheFourFamilies)
{
    for (const char *name : {"none", "mtbf", "correlated", "scripted"})
        EXPECT_TRUE(faultSourceRegistry().contains(name)) << name;
    FaultSourceConfig config;
    EXPECT_THROW(makeFaultSource("voodoo", config), ConfigError);
}

TEST(FaultSources, NoFaultSourceIsEmpty)
{
    NoFaultSource source;
    FaultEvent event;
    EXPECT_FALSE(source.next(event));
    source.reset(7);
    EXPECT_FALSE(source.next(event));
    EXPECT_FALSE(source.clone()->next(event));
}

TEST(FaultSources, MtbfIsSeedDeterministic)
{
    FaultSourceConfig config;
    config.farmSize = 4;
    config.mtbf = 1000.0;
    config.mttr = 100.0;
    config.seed = 42;
    const auto source = makeFaultSource("mtbf", config);
    const auto events = materializeFaults(*source, 50000.0);
    ASSERT_FALSE(events.empty());

    // Equal seeds reproduce the stream bit-for-bit, via reset() and
    // via an independently constructed source.
    source->reset(42);
    EXPECT_TRUE(sameEvents(events, materializeFaults(*source, 50000.0)));
    const auto twin = makeFaultSource("mtbf", config);
    EXPECT_TRUE(sameEvents(events, materializeFaults(*twin, 50000.0)));

    // A different seed yields a different schedule.
    source->reset(43);
    EXPECT_FALSE(sameEvents(events, materializeFaults(*source, 50000.0)));
}

TEST(FaultSources, MtbfAlternatesDownUpPerServer)
{
    FaultSourceConfig config;
    config.farmSize = 3;
    config.mtbf = 500.0;
    config.mttr = 50.0;
    config.seed = 9;
    const auto source = makeFaultSource("mtbf", config);
    const auto events = materializeFaults(*source, 100000.0);
    ASSERT_GT(events.size(), 10u);

    double last_time = 0.0;
    std::vector<bool> expect_down(config.farmSize, true);
    for (const FaultEvent &event : events) {
        EXPECT_GE(event.time, last_time); // Globally non-decreasing.
        last_time = event.time;
        ASSERT_LT(event.server, config.farmSize);
        // Each server strictly alternates crash / recovery.
        EXPECT_EQ(event.down, expect_down[event.server]);
        expect_down[event.server] = !event.down;
    }
}

TEST(FaultSources, MtbfCloneContinuesMidStream)
{
    FaultSourceConfig config;
    config.farmSize = 2;
    config.mtbf = 300.0;
    config.mttr = 60.0;
    config.seed = 5;
    const auto source = makeFaultSource("mtbf", config);
    FaultEvent event;
    for (int i = 0; i < 7; ++i)
        ASSERT_TRUE(source->next(event));
    const auto clone = source->clone();
    // The clone continues exactly where the original stands, and
    // draining the clone does not disturb the original.
    const auto from_clone = materializeFaults(*clone, 20000.0);
    const auto from_source = materializeFaults(*source, 20000.0);
    EXPECT_TRUE(sameEvents(from_clone, from_source));
}

TEST(FaultSources, CorrelatedOutagesCoverGroupsWithoutOverlap)
{
    FaultSourceConfig config;
    config.farmSize = 5;
    config.correlatedGroup = 3;
    config.mtbf = 2000.0;
    config.mttr = 200.0;
    config.seed = 11;
    const auto source = makeFaultSource("correlated", config);
    const auto events = materializeFaults(*source, 200000.0);
    ASSERT_GE(events.size(), 2 * config.correlatedGroup);
    ASSERT_EQ(events.size() % (2 * config.correlatedGroup), 0u);

    // Events come as one burst of `group` crashes at a common time,
    // then `group` recoveries at a common later time, never
    // overlapping the next outage.
    double previous_up = 0.0;
    for (std::size_t i = 0; i < events.size();
         i += 2 * config.correlatedGroup) {
        const double down_time = events[i].time;
        const double up_time = events[i + config.correlatedGroup].time;
        EXPECT_GE(down_time, previous_up);
        EXPECT_GT(up_time, down_time);
        std::vector<bool> hit(config.farmSize, false);
        for (std::size_t k = 0; k < config.correlatedGroup; ++k) {
            const FaultEvent &down = events[i + k];
            const FaultEvent &up = events[i + config.correlatedGroup + k];
            EXPECT_TRUE(down.down);
            EXPECT_FALSE(up.down);
            EXPECT_EQ(down.time, down_time);
            EXPECT_EQ(up.time, up_time);
            EXPECT_EQ(down.server, up.server);
            ASSERT_LT(down.server, config.farmSize);
            EXPECT_FALSE(hit[down.server]); // Distinct servers.
            hit[down.server] = true;
        }
        previous_up = up_time;
    }

    // Determinism carries over to the correlated family too.
    source->reset(11);
    EXPECT_TRUE(sameEvents(events, materializeFaults(*source, 200000.0)));
}

TEST(FaultSources, ScriptedReplaysVerbatimAndValidates)
{
    const std::vector<FaultEvent> script = {
        {100.0, 0, true}, {150.0, 1, true}, {150.0, 1, false},
        {220.0, 0, false}};
    FaultSourceConfig config;
    config.farmSize = 2;
    config.script = script;
    const auto source = makeFaultSource("scripted", config);
    EXPECT_TRUE(sameEvents(script, materializeFaults(*source, 1e9)));
    FaultEvent event;
    EXPECT_FALSE(source->next(event)); // Exhausted, forever.
    EXPECT_FALSE(source->next(event));
    source->reset(999); // Seed ignored: the script IS the schedule.
    EXPECT_TRUE(sameEvents(script, materializeFaults(*source, 1e9)));

    // Validation up front: out-of-order times, out-of-range servers,
    // and non-finite times are configuration errors.
    EXPECT_THROW(ScriptedFaultSource(2, {{50.0, 0, true},
                                         {40.0, 0, false}}),
                 ConfigError);
    EXPECT_THROW(ScriptedFaultSource(2, {{50.0, 2, true}}), ConfigError);
    EXPECT_THROW(ScriptedFaultSource(2, {{-1.0, 0, true}}), ConfigError);

    // An empty script is the no-fault schedule.
    ScriptedFaultSource empty(2, {});
    EXPECT_FALSE(empty.next(event));
}

TEST(FaultSources, FactoryValidatesRates)
{
    FaultSourceConfig config;
    config.farmSize = 2;
    config.mtbf = 0.0;
    EXPECT_THROW(makeFaultSource("mtbf", config), ConfigError);
    config.mtbf = 100.0;
    config.mttr = -1.0;
    EXPECT_THROW(makeFaultSource("correlated", config), ConfigError);
    config.mttr = 10.0;
    config.farmSize = 0;
    EXPECT_THROW(makeFaultSource("mtbf", config), ConfigError);
}

// ------------------------------------------------- ServerFarm lifecycle

class FaultFarmTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    Policy idlePolicy{1.0,
                      SleepPlan::immediate(LowPowerState::C6S0Idle)};

    ServerFarm
    makeFarm(std::size_t size,
             const std::string &dispatcher = "round-robin")
    {
        return ServerFarm(xeon, ServiceScaling::cpuBound(), idlePolicy,
                          size, makeDispatcher(dispatcher));
    }
};

TEST_F(FaultFarmTest, LifecycleWalksDrainDownRecoverUp)
{
    ServerFarm farm = makeFarm(2);
    farm.setRecoverySeconds(10.0);
    EXPECT_EQ(farm.lifecycle(0, 0.0), ServerLifecycle::Up);

    // Give one server 5 s of committed work, then crash it mid-job:
    // it drains the backlog, goes dark, and recovers only after the
    // configured delay.
    const std::size_t victim = farm.tryOfferJob({0.0, 5.0});
    farm.failServer(victim, 1.0);
    EXPECT_EQ(farm.lifecycle(victim, 1.0), ServerLifecycle::Draining);
    EXPECT_FALSE(farm.accepting(victim, 1.0));
    EXPECT_EQ(farm.acceptingCount(1.0), 1u);
    EXPECT_EQ(farm.lifecycle(victim, 20.0), ServerLifecycle::Down);

    farm.restoreServer(victim, 30.0);
    EXPECT_EQ(farm.lifecycle(victim, 35.0), ServerLifecycle::Recovering);
    EXPECT_FALSE(farm.accepting(victim, 35.0));
    EXPECT_EQ(farm.lifecycle(victim, 40.0), ServerLifecycle::Up);
    EXPECT_TRUE(farm.accepting(victim, 40.0));

    // Unavailability spans crash (t=1) through the end of the
    // recovery delay (t=40).
    farm.advanceTo(50.0);
    EXPECT_NEAR(farm.downSeconds(victim), 39.0, 1e-9);
    EXPECT_NEAR(farm.totalDownSeconds(), 39.0, 1e-9);
    const std::size_t other = victim == 0 ? 1 : 0;
    EXPECT_DOUBLE_EQ(farm.downSeconds(other), 0.0);
}

TEST_F(FaultFarmTest, LifecycleStateNames)
{
    EXPECT_EQ(toString(ServerLifecycle::Up), "up");
    EXPECT_EQ(toString(ServerLifecycle::Draining), "draining");
    EXPECT_EQ(toString(ServerLifecycle::Down), "down");
    EXPECT_EQ(toString(ServerLifecycle::Recovering), "recovering");
}

TEST_F(FaultFarmTest, TryOfferSignalsWhenNoServerAccepts)
{
    ServerFarm farm = makeFarm(2);
    farm.failServer(0, 0.0);
    farm.failServer(0, 0.0); // Idempotent on an already-crashed server.
    farm.failServer(1, 0.0);
    EXPECT_EQ(farm.acceptingCount(1.0), 0u);
    EXPECT_EQ(farm.tryOfferJob({1.0, 1.0}), ServerFarm::noServer);
    // offerJob() has no failover path and fails fast instead.
    EXPECT_THROW(farm.offerJob({1.0, 1.0}), ConfigError);

    // Restoring one server routes everything to it.
    farm.restoreServer(0, 2.0);
    farm.restoreServer(0, 2.0); // No-op on a server that is not crashed.
    EXPECT_EQ(farm.tryOfferJob({3.0, 1.0}), 0u);
    EXPECT_EQ(farm.tryOfferJob({3.5, 1.0}), 0u);

    EXPECT_THROW(farm.failServer(2, 0.0), ConfigError);
    EXPECT_THROW(farm.restoreServer(2, 0.0), ConfigError);
    EXPECT_THROW(farm.setRecoverySeconds(-1.0), ConfigError);
}

// ------------------------------------------- FarmRuntime failover path

FarmRuntimeConfig
faultRuntimeConfig(std::size_t farm_size, const std::string &control)
{
    FarmRuntimeConfig config;
    config.farmSize = farm_size;
    config.control = control;
    config.dispatchSeed = mixSeed(1);
    config.faultSeed = mixSeed(mixSeed(1));
    config.perServer.epochMinutes = 5;
    return config;
}

/** Run the dns workload through a farm, forecasting with the "LC"
 * predictor unless `predictor` is given. */
FarmRuntimeResult
runFaultScenario(const FarmRuntimeConfig &config,
                 const UtilizationTrace &trace,
                 UtilizationPredictor *predictor = nullptr)
{
    const PlatformModel platform = platformByName("xeon");
    const WorkloadSpec workload = workloadByName("dns");
    FarmRuntime runtime(platform, workload, config);
    TraceDrivenSource source(workload, trace, 1, config.farmSize);
    const auto lc = makePredictor("LC", 10, trace.values());
    return runtime.run(source, trace, predictor ? *predictor : *lc);
}

void
expectConservation(const FarmRuntimeResult &result)
{
    ASSERT_FALSE(result.epochFaults.empty());
    for (const FarmFaultStats &s : result.epochFaults) {
        EXPECT_EQ(s.offered, s.completed + s.dropped + s.inFlight)
            << "at elapsed " << s.elapsedSeconds;
    }
    const FarmFaultStats &final = result.faults;
    EXPECT_EQ(final.offered, final.completed + final.dropped);
    EXPECT_EQ(final.inFlight, 0u); // Everything drained or dropped.
}

TEST(FarmFailover, FullOutageRetriesWithoutLosingJobs)
{
    // Both servers down for 100 s: every arrival in the gap must be
    // retried and eventually admitted — the outage is far shorter
    // than the drop deadline, so nothing may be lost.
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.3));
    for (const char *control : {"farm-wide", "per-server"}) {
        FarmRuntimeConfig config = faultRuntimeConfig(2, control);
        config.faults = "scripted";
        config.faultScript = {{600.0, 0, true},
                              {600.0, 1, true},
                              {700.0, 0, false},
                              {700.0, 1, false}};
        config.retryBackoff = 1.0;
        config.retryBackoffCap = 30.0;
        config.dropTimeout = 600.0;

        const FarmRuntimeResult result = runFaultScenario(config, trace);
        expectConservation(result);
        EXPECT_GT(result.faults.retries, 0u) << control;
        EXPECT_EQ(result.faults.dropped, 0u) << control;
        EXPECT_EQ(result.faults.offered, result.faults.completed);
        EXPECT_DOUBLE_EQ(result.faults.goodput(), 1.0);
        // Two servers out for 100 s each.
        EXPECT_NEAR(result.faults.downSeconds, 200.0, 1e-6);
        const double availability = result.faults.availability(2);
        EXPECT_LT(availability, 1.0);
        EXPECT_GT(availability, 0.9);
    }
}

TEST(FarmFailover, OutagePastDeadlineDropsAsSloLoss)
{
    // A 600 s full-farm outage against a 100 s drop deadline: jobs
    // arriving early in the gap exhaust their deadline and are
    // dropped; conservation must still hold with drops counted.
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{600.0, 0, true},
                          {600.0, 1, true},
                          {1200.0, 0, false},
                          {1200.0, 1, false}};
    config.retryBackoff = 1.0;
    config.retryBackoffCap = 30.0;
    config.dropTimeout = 100.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.dropped, 0u);
    EXPECT_GT(result.faults.retries, 0u);
    EXPECT_LT(result.faults.goodput(), 1.0);
    EXPECT_GT(result.faults.goodput(), 0.5);
    EXPECT_EQ(result.faults.admitted + result.faults.dropped,
              result.faults.offered);
}

TEST(FarmFailover, BackoffDelaySaturatesInsteadOfOverflowing)
{
    // Attempt k waits backoff * 2^(k-1) up to the cap — with exact
    // binary scaling while it is below the cap...
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 1, 60.0), 1.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 4, 60.0), 8.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1.0, 7, 60.0), 60.0);
    // ...and a tiny base must still climb to the cap: 2^(k-1) is
    // computed in saturating form, so neither a pre-clamp on the
    // exponent (the old 2^30 ceiling, which froze sub-nanosecond
    // backoffs at ~1 ms forever) nor double overflow can keep the
    // delay below the cap.
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-12, 80, 30.0), 30.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-300, 2000, 30.0), 30.0);
    EXPECT_DOUBLE_EQ(failoverBackoffDelay(1e-300, 4000000000u, 30.0),
                     30.0);
    // Monotone non-decreasing and always finite across the whole
    // attempt range.
    double last = 0.0;
    for (unsigned attempts : {1u, 2u, 40u, 1000u, 1100u, 4000000000u}) {
        const double delay =
            failoverBackoffDelay(1e-9, attempts, 45.0);
        EXPECT_TRUE(std::isfinite(delay));
        EXPECT_GE(delay, last);
        last = delay;
    }
    EXPECT_THROW(failoverBackoffDelay(0.0, 1, 60.0), ConfigError);
    EXPECT_THROW(failoverBackoffDelay(1.0, 0, 60.0), ConfigError);
    EXPECT_THROW(failoverBackoffDelay(1.0, 1, 0.5), ConfigError);
}

TEST(FarmFailover, AlwaysDownFarmDrainsInBoundedRetries)
{
    // Pathological availability: every server crashes at t = 0 and
    // never recovers, with a sub-nanosecond initial backoff. Before
    // the saturating fix the exponent clamp pinned every retry delay
    // at backoff * 2^30 ~ 1 us of sim time, so draining the queue took
    // ~10^8 retries per job — an effective hang. With saturation the
    // delay doubles to the cap, every job exhausts its drop deadline
    // in a few dozen attempts, and conservation still closes.
    const UtilizationTrace trace("flat", std::vector<double>(10, 0.3));
    for (const char *control : {"farm-wide", "per-server", "distributed"}) {
        FarmRuntimeConfig config = faultRuntimeConfig(2, control);
        config.faults = "scripted";
        config.faultScript = {{0.0, 0, true}, {0.0, 1, true}};
        config.retryBackoff = 1e-12;
        config.retryBackoffCap = 30.0;
        config.dropTimeout = 120.0;

        const FarmRuntimeResult result = runFaultScenario(config, trace);
        expectConservation(result);
        EXPECT_GT(result.faults.offered, 0u) << control;
        EXPECT_EQ(result.faults.completed, 0u) << control;
        EXPECT_EQ(result.faults.dropped, result.faults.offered) << control;
        // Delays reach the 120 s deadline within ~47 doublings from
        // 1e-12 (plus the capped tail), so the retry bill is a small
        // per-job constant — not the ~10^8 of the pre-fix spin.
        EXPECT_LE(result.faults.retries, result.faults.offered * 60)
            << control;
        // A farm that served nothing has no response statistic to meet
        // the budget with, farm-wide or on any server.
        EXPECT_FALSE(result.withinBudget()) << control;
        for (const FarmServerReport &server : result.servers)
            EXPECT_FALSE(server.withinBudget) << control;
    }
}

TEST(FarmFailover, RecoveryDelayExtendsUnavailability)
{
    const UtilizationTrace trace("flat", std::vector<double>(30, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{300.0, 0, true}, {400.0, 0, false}};
    config.recoverySeconds = 50.0;

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    // 100 s outage plus the 50 s Recovering stage.
    EXPECT_NEAR(result.faults.downSeconds, 150.0, 1e-6);
    EXPECT_EQ(result.faults.dropped, 0u);
}

// --------------------------------------------------- degraded decisions

TEST(DegradedMode, StarvedServerFallsBackToSafePolicy)
{
    // Server 1 is down for four full epochs: its decision log starves,
    // and its autonomous controller must fall back to the safe fixed
    // policy instead of searching an empty log.
    const UtilizationTrace trace("flat", std::vector<double>(40, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "per-server");
    config.faults = "scripted";
    config.faultScript = {{310.0, 1, true}, {1500.0, 1, false}};

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.degradedEpochs, 0u);
    EXPECT_GT(result.faults.degradedSeconds, 0.0);

    // The degraded epochs are on the crashed server, run the fallback
    // policy (default: full frequency), and are flagged in its stream.
    ASSERT_EQ(result.servers.size(), 2u);
    std::size_t degraded_epochs = 0;
    for (const EpochReport &epoch : result.servers[1].epochs) {
        if (!epoch.degraded)
            continue;
        ++degraded_epochs;
        EXPECT_FALSE(epoch.feasible);
        EXPECT_DOUBLE_EQ(epoch.policy.frequency,
                         config.degradedPolicy.frequency);
    }
    EXPECT_EQ(degraded_epochs, result.faults.degradedEpochs);
    for (const EpochReport &epoch : result.servers[0].epochs)
        EXPECT_FALSE(epoch.degraded); // The healthy server never does.
}

TEST(DegradedMode, FarmWideControllerDegradesWhenRepresentativeDies)
{
    // Farm-wide control decides from server 0's thinned log; crashing
    // server 0 across epochs starves the single controller, which must
    // degrade the whole farm rather than hold a stale search.
    const UtilizationTrace trace("flat", std::vector<double>(40, 0.3));
    FarmRuntimeConfig config = faultRuntimeConfig(2, "farm-wide");
    config.faults = "scripted";
    config.faultScript = {{310.0, 0, true}, {1500.0, 0, false}};

    const FarmRuntimeResult result = runFaultScenario(config, trace);
    expectConservation(result);
    EXPECT_GT(result.faults.degradedEpochs, 0u);
    // Farm-wide degradation covers every server in the epoch.
    EXPECT_EQ(result.faults.degradedEpochs % config.farmSize, 0u);
    bool saw_degraded = false;
    for (const EpochReport &epoch : result.epochs)
        saw_degraded = saw_degraded || epoch.degraded;
    EXPECT_TRUE(saw_degraded);
}

// ------------------------------------------------- no-fault equivalence

// The fault layer's cardinal rule: a "none"-fault configuration is
// byte-identical to the pre-fault runtime — same totals, same decision
// streams, same RNG consumption. These constants were produced by the
// runtime immediately before the fault layer landed; a change here is
// a behavioural regression of the fault-free path, not a re-pin. The
// search-strategy rows were re-recorded once, when the farm adopted the
// single-server history rule (the last historyEpochs epochs, capped at
// evalLogCap before the rescale): the log a search decides on moved,
// not the fault-free path.
struct TotalsPin
{
    const char *workload;
    const char *control;
    double energy;
    double meanResponse;
    double avgPower;
    std::uint64_t jobs;
};

constexpr TotalsPin totalsPins[] = {
    {"dns", "farm-wide", 0x1.4a98fb607579cp+20, 0x1.e59236397053bp-2,
     0x1.7818bd0a2075fp+8, 16641},
    {"dns", "per-server", 0x1.4c1c2340085a2p+20, 0x1.dfabf782f7908p-2,
     0x1.79d12d59e6477p+8, 16641},
    {"mail", "farm-wide", 0x1.9509bfe6c84f2p+20, 0x1.c99f776e949d1p-2,
     0x1.ccd2eda01eee8p+8, 35626},
    {"mail", "per-server", 0x1.85708026f800dp+20, 0x1.c85b745da06d4p-2,
     0x1.bb13b07e2377fp+8, 35626},
    {"google", "farm-wide", 0x1.5201231721fb9p+20, 0x1.490185fa4c5dcp-7,
     0x1.80925f2353076p+8, 772151},
    {"google", "per-server", 0x1.518181b8ce9dbp+20, 0x1.4ac32e6fdfba8p-7,
     0x1.80012850e5484p+8, 772151},
};

ScenarioSpec
pinSpec(const std::string &workload, const std::string &control,
        const std::string &strategy = "SS")
{
    return ScenarioBuilder(workload + "/" + control + "/" + strategy)
        .engine(EngineKind::Farm)
        .workload(workload)
        .flatTrace(0.3, 60)
        .farmSize(3)
        .farmControl(control)
        .strategy(strategy)
        .epochMinutes(5)
        .seed(1)
        .build();
}

TEST(NoFaultPin, TotalsMatchTheFaultFreeRuntimeBitForBit)
{
    for (const TotalsPin &pin : totalsPins) {
        const ScenarioResult result =
            ExperimentRunner::runScenario(pinSpec(pin.workload,
                                                  pin.control));
        // EXPECT_EQ on doubles on purpose: the contract is bit-for-bit
        // equality, not closeness.
        EXPECT_EQ(result.energy, pin.energy)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.meanResponse, pin.meanResponse)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.avgPower, pin.avgPower)
            << pin.workload << "/" << pin.control;
        EXPECT_EQ(result.jobs, pin.jobs)
            << pin.workload << "/" << pin.control;
    }
}

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    hash ^= value;
    hash *= 1099511628211ull;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

void
hashEpochStream(std::uint64_t &hash, const std::vector<EpochReport> &epochs)
{
    for (const EpochReport &epoch : epochs) {
        fnvMix(hash, doubleBits(epoch.policy.frequency));
        fnvMix(hash,
               static_cast<std::uint64_t>(epoch.policy.plan.deepest()));
        fnvMix(hash, static_cast<std::uint64_t>(epoch.policy.plan.size()));
        fnvMix(hash, (epoch.decided ? 1u : 0u) |
                         (epoch.feasible ? 2u : 0u) |
                         (epoch.boosted ? 4u : 0u));
    }
}

/** Run a pin scenario through FarmRuntime directly. */
FarmRuntimeResult
runPin(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    const PlatformModel platform = platformByName(spec.platform);
    FarmRuntimeConfig config;
    config.farmSize = spec.farmSize;
    config.dispatcher = spec.dispatcher;
    config.packingSpillBacklog = spec.packingSpillBacklog;
    config.dispatchSeed = mixSeed(spec.seed);
    config.control = spec.farmControl;
    config.platforms = spec.farmPlatforms;
    config.decisionThreads = spec.decisionThreads;
    StrategyKnobs knobs;
    knobs.epochMinutes = spec.epochMinutes;
    knobs.overProvision = spec.overProvision;
    knobs.rhoB = spec.rhoB;
    knobs.qosMetric = spec.qosMetric;
    knobs.searchThreads = spec.searchThreads;
    knobs.prunedSearch = spec.prunedSearch;
    config.perServer = strategyConfigByName(spec.strategy, knobs);

    const UtilizationTrace trace = spec.trace.realize();
    FarmRuntime runtime(platform, workload, config);
    TraceDrivenSource source(workload, trace, spec.seed, spec.farmSize);
    const auto predictor = makePredictor(
        spec.predictor, spec.predictorHistory, trace.values());
    return runtime.run(source, trace, *predictor);
}

TEST(NoFaultPin, DecisionStreamsMatchTheFaultFreeRuntimeBitForBit)
{
    // Whole-run totals can mask compensating decision changes; this
    // pin hashes every epoch's (frequency, sleep plan, flags) across
    // all three control modes, the search and controller deciders, and
    // all three Table 5 workloads.
    const struct
    {
        const char *workload;
        const char *control;
        const char *strategy;
        std::uint64_t hash;
    } decisionPins[] = {
        {"dns", "farm-wide", "SS", 17617608335292751129ull},
        {"dns", "per-server", "SS", 9334709661478072820ull},
        {"mail", "farm-wide", "SS", 3281817410058412223ull},
        {"mail", "per-server", "SS", 11482907085343750592ull},
        {"google", "farm-wide", "SS", 1303420475129017184ull},
        {"google", "per-server", "SS", 11511760066812209774ull},
        {"dns", "farm-wide", "poet", 3906190904782045078ull},
        {"dns", "per-server", "poet", 12570029525244672124ull},
        {"mail", "farm-wide", "poet", 14355860263734748752ull},
        {"mail", "per-server", "poet", 6096002028883048927ull},
        {"dns", "distributed", "SS", 9664272469862191165ull},
        {"mail", "distributed", "SS", 16806576239841610947ull},
    };

    for (const auto &pin : decisionPins) {
        const ScenarioSpec spec =
            pinSpec(pin.workload, pin.control, pin.strategy);
        const FarmRuntimeResult result = runPin(spec);

        std::uint64_t hash = 1469598103934665603ull;
        hashEpochStream(hash, result.epochs);
        for (const FarmServerReport &server : result.servers) {
            hashEpochStream(hash, server.epochs);
            fnvMix(hash, doubleBits(server.total.energy));
            fnvMix(hash, server.jobsRouted);
        }
        fnvMix(hash, doubleBits(result.total.energy));
        EXPECT_EQ(hash, pin.hash)
            << pin.workload << "/" << pin.control << "/" << pin.strategy;

        // A fault-free run reports a clean availability plane.
        EXPECT_EQ(result.faults.dropped, 0u);
        EXPECT_EQ(result.faults.retries, 0u);
        EXPECT_EQ(result.faults.degradedEpochs, 0u);
        EXPECT_DOUBLE_EQ(result.faults.downSeconds, 0.0);
        EXPECT_DOUBLE_EQ(result.faults.availability(spec.farmSize), 1.0);
        EXPECT_DOUBLE_EQ(result.faults.goodput(), 1.0);
        expectConservation(result);
    }
}

TEST(MeasuredDemandPin, EveryEpochsMeasuredLoadBitForBit)
{
    // The decision pins cannot see how a slot's measured demand rounds:
    // the deciders quantize their inputs. These pins hash each epoch's
    // measuredUtilization itself: the farm view's and, under
    // per-server control, every server's. The shared slot sums the
    // farm's offered demand per minute, parked jobs included; a
    // per-server slot sums its admitted jobs one by one.
    const struct
    {
        const char *workload;
        const char *control;
        std::uint64_t hash;
    } pins[] = {
        {"dns", "farm-wide", 9135357846063588815ull},
        {"dns", "per-server", 8730468032223455401ull},
        {"mail", "farm-wide", 17405060720178194582ull},
        {"mail", "per-server", 5103780979430901951ull},
    };
    for (const auto &pin : pins) {
        const FarmRuntimeResult result =
            runPin(pinSpec(pin.workload, pin.control));
        std::uint64_t hash = 1469598103934665603ull;
        for (const EpochReport &epoch : result.epochs)
            fnvMix(hash, doubleBits(epoch.measuredUtilization));
        for (const FarmServerReport &server : result.servers) {
            for (const EpochReport &epoch : server.epochs)
                fnvMix(hash, doubleBits(epoch.measuredUtilization));
        }
        EXPECT_EQ(hash, pin.hash) << pin.workload << "/" << pin.control;
    }
}

// ------------------------------------------------- faulty-farm pins

// Under churn the farm routes around crashed and recovering servers.
// These pins hash whole faulty runs — every routing choice, per-server
// energy and job counts, the decision streams and the availability
// counters — so any change to failover routing shows up as a changed
// hash. Like the no-fault pins above they are behaviour, not tuning:
// a change here is a regression unless the routing semantics were
// changed on purpose. The SS rows were re-recorded with the no-fault
// ones when the farm adopted the single-server history rule.

/** Hash of every routing choice made through RecordingDispatcher. */
std::uint64_t recordedRoutes = 0;

/** Forwards to a built-in dispatcher and hashes each choice together
 * with the number of servers it chose among. */
class RecordingDispatcher final : public Dispatcher
{
  public:
    explicit RecordingDispatcher(std::unique_ptr<Dispatcher> inner)
        : _inner(std::move(inner))
    {
    }

    std::size_t
    route(const Job &job, const std::vector<ServerSnapshot> &servers) override
    {
        return record(servers.size(), _inner->route(job, servers));
    }

    std::size_t route(const Job &job, const FarmView &farm) override
    {
        return record(farm.count(), _inner->route(job, farm));
    }

    std::string name() const override { return _inner->name(); }

  private:
    static std::size_t record(std::size_t count, std::size_t choice)
    {
        fnvMix(recordedRoutes, count);
        fnvMix(recordedRoutes, choice);
        return choice;
    }

    std::unique_ptr<Dispatcher> _inner;
};

/** Registry name of the recording wrapper around a built-in. */
std::string
recordingDispatcher(const std::string &inner)
{
    const std::string name = "recording:" + inner;
    if (!dispatcherRegistry().contains(name)) {
        dispatcherRegistry().add(
            name, [inner](const DispatcherContext &ctx) {
                return std::make_unique<RecordingDispatcher>(
                    makeDispatcher(inner, ctx.seed, ctx.spillBacklog));
            });
    }
    return name;
}

void
hashFaultStats(std::uint64_t &hash, const FarmFaultStats &stats)
{
    fnvMix(hash, stats.offered);
    fnvMix(hash, stats.admitted);
    fnvMix(hash, stats.completed);
    fnvMix(hash, stats.dropped);
    fnvMix(hash, stats.retries);
    fnvMix(hash, stats.inFlight);
    fnvMix(hash, doubleBits(stats.downSeconds));
    fnvMix(hash, doubleBits(stats.degradedSeconds));
    fnvMix(hash, stats.degradedEpochs);
    fnvMix(hash, doubleBits(stats.elapsedSeconds));
}

/** One faulty-farm pin: a fault family, dispatcher, control mode and
 * strategy, with the whole-run hash recorded for it. */
struct FaultyPin
{
    const char *faults;
    const char *dispatcher;
    const char *control;
    const char *strategy;
    double overProvision;
    std::uint64_t hash;
};

constexpr FaultyPin faultyPins[] = {
    {"mtbf", "random", "farm-wide", "SS", 0.0, 4837287562499554032ull},
    {"mtbf", "random", "per-server", "SS", 0.0, 2786384734277626830ull},
    {"mtbf", "round-robin", "farm-wide", "SS", 0.0, 15572456566652871987ull},
    {"mtbf", "round-robin", "per-server", "SS", 0.0, 8176170951125605964ull},
    {"mtbf", "JSQ", "farm-wide", "SS", 0.0, 12940615935814548358ull},
    {"mtbf", "JSQ", "per-server", "SS", 0.0, 9376475763251126055ull},
    {"mtbf", "packing", "farm-wide", "SS", 0.0, 12508651919902155808ull},
    {"mtbf", "packing", "per-server", "SS", 0.0, 6197194970579435019ull},
    {"correlated", "random", "farm-wide", "SS", 0.0, 7877149196821409830ull},
    {"correlated", "random", "per-server", "SS", 0.0, 4626753904481795458ull},
    {"correlated", "round-robin", "farm-wide", "SS", 0.0,
     773827565266422900ull},
    {"correlated", "round-robin", "per-server", "SS", 0.0,
     18129898954112158147ull},
    {"correlated", "JSQ", "farm-wide", "SS", 0.0, 11252540230749931343ull},
    {"correlated", "JSQ", "per-server", "SS", 0.0, 5881282210750991662ull},
    {"correlated", "packing", "farm-wide", "SS", 0.0,
     5499046564164936540ull},
    {"correlated", "packing", "per-server", "SS", 0.0,
     2500074672041000907ull},
    // The feedback controller under both decision scopes.
    {"mtbf", "random", "farm-wide", "poet", 0.0, 7713138797378464954ull},
    {"mtbf", "random", "per-server", "poet", 0.0, 18039358433026913496ull},
    {"correlated", "JSQ", "farm-wide", "poet", 0.0, 17690139632648980880ull},
    {"correlated", "JSQ", "per-server", "poet", 0.0, 18184189639673076824ull},
    // Zero-communication rate scaling.
    {"mtbf", "random", "distributed", "SS", 0.0, 4571317882463658736ull},
    {"correlated", "JSQ", "distributed", "SS", 0.0, 10168939575139649053ull},
    // Over-provisioning boosts interleaved with degraded epochs.
    {"mtbf", "random", "farm-wide", "SS", 0.35, 14077735757329634683ull},
    {"mtbf", "random", "per-server", "SS", 0.35, 16169880616967360330ull},
    {"mtbf", "random", "farm-wide", "poet", 0.35, 17791905599001848392ull},
    {"mtbf", "random", "distributed", "SS", 0.35, 8981458450637710180ull},
    // A 100 s full-farm outage: arrivals park in the retry queue.
    {"scripted", "random", "farm-wide", "poet", 0.0, 11499131248167813808ull},
    {"scripted", "random", "per-server", "poet", 0.0, 3067776317142296076ull},
};

FarmRuntimeConfig
faultyPinConfig(const FaultyPin &pin)
{
    FarmRuntimeConfig config = faultRuntimeConfig(4, pin.control);
    StrategyKnobs knobs;
    knobs.epochMinutes = config.perServer.epochMinutes;
    knobs.overProvision = pin.overProvision;
    config.perServer = strategyConfigByName(pin.strategy, knobs);
    config.dispatcher = recordingDispatcher(pin.dispatcher);
    config.faults = pin.faults;
    config.mtbf = 900.0;
    config.mttr = 120.0;
    config.recoverySeconds = 15.0;
    config.retryBackoff = 0.5;
    config.dropTimeout = 240.0;
    if (config.faults == "scripted") {
        // The outage of FullOutageRetriesWithoutLosingJobs, farm-wide.
        for (bool down : {true, false}) {
            for (std::size_t i = 0; i < config.farmSize; ++i)
                config.faultScript.push_back(
                    {down ? 600.0 : 700.0, i, down});
        }
    }
    return config;
}

/** Hashes of one faulty run: the whole-run pin and its components. */
struct FaultyRunHashes
{
    std::uint64_t whole = 0;     ///< Everything below, chained.
    std::uint64_t routes = 0;    ///< Every routing choice.
    std::uint64_t decisions = 0; ///< The farm-level decision stream.
    std::uint64_t energy = 0;    ///< Per-server and farm energy.
    std::uint64_t faults = 0;    ///< Per-epoch and final fault counters.
};

FaultyRunHashes
hashFaultyRun(const FarmRuntimeConfig &config,
              UtilizationPredictor *predictor = nullptr)
{
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.4));
    recordedRoutes = 1469598103934665603ull;
    const FarmRuntimeResult result =
        runFaultScenario(config, trace, predictor);
    expectConservation(result);
    EXPECT_GT(result.faults.downSeconds, 0.0);

    FaultyRunHashes hashes;
    hashes.routes = recordedRoutes;
    hashes.decisions = 1469598103934665603ull;
    hashEpochStream(hashes.decisions, result.epochs);
    hashes.energy = 1469598103934665603ull;
    hashes.faults = 1469598103934665603ull;

    std::uint64_t &hash = hashes.whole;
    hash = recordedRoutes;
    hashEpochStream(hash, result.epochs);
    for (const FarmServerReport &server : result.servers) {
        hashEpochStream(hash, server.epochs);
        fnvMix(hash, doubleBits(server.total.energy));
        fnvMix(hash, server.jobsRouted);
        fnvMix(hashes.energy, doubleBits(server.total.energy));
    }
    for (const FarmFaultStats &stats : result.epochFaults) {
        hashFaultStats(hash, stats);
        hashFaultStats(hashes.faults, stats);
    }
    hashFaultStats(hash, result.faults);
    hashFaultStats(hashes.faults, result.faults);
    fnvMix(hash, doubleBits(result.total.energy));
    fnvMix(hashes.energy, doubleBits(result.total.energy));
    return hashes;
}

std::string
pinName(const FaultyPin &pin)
{
    return std::string(pin.faults) + "/" + pin.dispatcher + "/" +
           pin.control + "/" + pin.strategy + "/a=" +
           std::to_string(pin.overProvision);
}

TEST(FaultyFarmPin, RuntimeRoutingDecisionsAndCountersBitForBit)
{
    for (const FaultyPin &pin : faultyPins) {
        EXPECT_EQ(hashFaultyRun(faultyPinConfig(pin)).whole, pin.hash)
            << pinName(pin);
    }
}

TEST(FaultyFarmPin, ControllersSteerOnTheirMeasuredLoad)
{
    // The poet controller plans on max(forecast, filtered measured
    // load). Under a zero forecast it plans on the measured load alone,
    // so these pins see the demand each slot measures: the farm's
    // offered demand, parked jobs included, for the shared slot, and
    // the routed demand for a per-server one.
    const struct
    {
        const char *faults;
        const char *control;
        std::uint64_t hash;
    } pins[] = {
        {"scripted", "farm-wide", 13818377102018325968ull},
        {"scripted", "per-server", 12082893876025372340ull},
        {"mtbf", "farm-wide", 7713138797378464954ull},
        {"mtbf", "per-server", 15419404576607821171ull},
    };
    for (const auto &pin : pins) {
        const FaultyPin row{pin.faults, "random", pin.control, "poet", 0.0,
                            0};
        OfflinePredictor zero_forecast(std::vector<double>(60, 0.0));
        EXPECT_EQ(hashFaultyRun(faultyPinConfig(row), &zero_forecast).whole,
                  pin.hash)
            << pinName(row);
    }
}

TEST(FaultyFarmPin, PerServerResponsePercentilesBitForBit)
{
    // The other pins hash decisions, routes and joules, none of which
    // reads a response histogram. These pins hold each server's
    // whole-run p95 and p99 response (every epoch window harvested,
    // merged into the farm view and into the server's total) and a
    // hash of every epoch window's p95 and p99, farm view and per
    // server, under per-server poet control through mtbf churn.
    const FaultyPin row{"mtbf", "random", "per-server", "poet", 0.0, 0};
    const FarmRuntimeConfig config = faultyPinConfig(row);
    ASSERT_TRUE(config.tailHistograms);
    const UtilizationTrace trace("flat", std::vector<double>(60, 0.4));
    const FarmRuntimeResult result = runFaultScenario(config, trace);

    const struct
    {
        double p95;
        double p99;
    } totals[] = {
        {0x1.32a23ec0d0f1bp+4, 0x1.7a8560b9d0a19p+5},
        {0x1.b9b914367a5efp+3, 0x1.793df0861fcc7p+4},
        {0x1.bed67f02e165bp+3, 0x1.50379d3d88353p+4},
        {0x1.22db7843443bap+2, 0x1.f973ba70ee1dfp+2},
    };
    ASSERT_EQ(result.servers.size(), std::size(totals));
    for (std::size_t i = 0; i < result.servers.size(); ++i) {
        // EXPECT_EQ on doubles on purpose: bit-for-bit, not closeness.
        EXPECT_EQ(result.servers[i].total.responsePercentile(95.0),
                  totals[i].p95)
            << "server " << i;
        EXPECT_EQ(result.servers[i].total.responsePercentile(99.0),
                  totals[i].p99)
            << "server " << i;
    }
    EXPECT_EQ(result.total.responsePercentile(95.0),
              0x1.7c521a3b94d84p+3);
    EXPECT_EQ(result.total.responsePercentile(99.0),
              0x1.d01be6e2d1782p+4);

    std::uint64_t hash = 1469598103934665603ull;
    const auto mixWindow = [&hash](const SimStats &window) {
        fnvMix(hash, doubleBits(window.responsePercentile(95.0)));
        fnvMix(hash, doubleBits(window.responsePercentile(99.0)));
    };
    for (const EpochReport &epoch : result.epochs)
        mixWindow(epoch.stats);
    for (const FarmServerReport &server : result.servers) {
        for (const EpochReport &epoch : server.epochs)
            mixWindow(epoch.stats);
    }
    EXPECT_EQ(hash, 17252420068965470833ull);
}

TEST(FaultyFarmPin, OutputKnobsDoNotPerturbTheRun)
{
    // Decision timing and per-server epoch reports are outputs only:
    // turning them on or off must not move a single routing choice,
    // decision, joule or fault counter.
    for (const FaultyPin &pin : faultyPins) {
        FarmRuntimeConfig config = faultyPinConfig(pin);
        config.perServer.recordDecisionTime = true;
        const FaultyRunHashes timed = hashFaultyRun(config);
        EXPECT_EQ(timed.whole, pin.hash) << pinName(pin);

        // Without per-server reports the whole-run hash loses the
        // per-server decision streams; every other component stays.
        if (std::string(pin.control) == "farm-wide")
            continue;
        config.serverEpochReports = false;
        const FaultyRunHashes lean = hashFaultyRun(config);
        EXPECT_EQ(lean.routes, timed.routes) << pinName(pin);
        EXPECT_EQ(lean.decisions, timed.decisions) << pinName(pin);
        EXPECT_EQ(lean.energy, timed.energy) << pinName(pin);
        EXPECT_EQ(lean.faults, timed.faults) << pinName(pin);
    }
}

TEST(FaultyFarmPin, ServerFarmRoutesEveryJobToThePinnedServer)
{
    // Drives a 16-server farm directly: fault events apply in time
    // order before each arrival, and the admitting server of every job
    // (or noServer) is hashed, followed by per-server energy, job
    // counts and unavailability.
    const struct
    {
        const char *faults;
        const char *dispatcher;
        std::uint64_t hash;
    } pins[] = {
        {"mtbf", "random", 10316226748534568036ull},
        {"mtbf", "round-robin", 12005939843013168993ull},
        {"mtbf", "JSQ", 16605398501934924335ull},
        {"mtbf", "packing", 10655152028857477832ull},
        {"correlated", "random", 2756995576360805163ull},
        {"correlated", "round-robin", 937870430353370246ull},
        {"correlated", "JSQ", 12830519506422047263ull},
        {"correlated", "packing", 10972294388749846684ull},
    };

    constexpr std::size_t size = 16;
    const PlatformModel platform = platformByName("xeon");
    const WorkloadSpec workload = workloadByName("dns");
    const UtilizationTrace trace("flat", std::vector<double>(30, 0.5));
    const Policy policy{1.0, SleepPlan::immediate(LowPowerState::C6S0Idle)};
    for (const auto &pin : pins) {
        FaultSourceConfig faults;
        faults.farmSize = size;
        faults.mtbf = 600.0;
        faults.mttr = 60.0;
        faults.correlatedGroup = 4;
        faults.seed = mixSeed(3);
        const auto fault_source = makeFaultSource(pin.faults, faults);
        ServerFarm farm(platform, ServiceScaling::cpuBound(), policy, size,
                        makeDispatcher(pin.dispatcher, mixSeed(2), 0.5));
        farm.setRecoverySeconds(10.0);
        TraceDrivenSource source(workload, trace, 5, size);

        std::uint64_t hash = 1469598103934665603ull;
        FaultEvent event;
        bool has_event = fault_source->next(event);
        std::size_t unrouted = 0;
        Job job;
        while (source.next(job)) {
            while (has_event && event.time <= job.arrival) {
                if (event.down)
                    farm.failServer(event.server, event.time);
                else
                    farm.restoreServer(event.server, event.time);
                has_event = fault_source->next(event);
            }
            const std::size_t pick = farm.tryOfferJob(job);
            unrouted += pick == ServerFarm::noServer ? 1 : 0;
            fnvMix(hash, pick);
        }
        farm.advanceTo(trace.duration() + 600.0);
        const std::vector<SimStats> windows = farm.harvestWindows();
        for (std::size_t i = 0; i < size; ++i) {
            fnvMix(hash, doubleBits(windows[i].energy));
            fnvMix(hash, farm.jobsPerServer()[i]);
            fnvMix(hash, doubleBits(farm.downSeconds(i)));
        }
        EXPECT_GT(farm.totalDownSeconds(), 0.0) << pin.faults;
        EXPECT_LT(unrouted, 100u) << pin.faults;
        EXPECT_EQ(hash, pin.hash) << pin.faults << "/" << pin.dispatcher;
    }
}

// ------------------------------------------------- paired replication

TEST(FaultReplication, PairedComparisonQuantifiesOutageCost)
{
    // The acceptance experiment in miniature: N replications of a
    // correlated-outage farm against its no-fault twin under common
    // random numbers. correlatedGroup defaults to 2, so a 2-server
    // farm sees full-farm outages and must exercise the retry path.
    ScenarioSpec faulty = ScenarioBuilder("faults(correlated)")
                              .engine(EngineKind::Farm)
                              .workload("dns")
                              .flatTrace(0.3, 45)
                              .farmSize(2)
                              .epochMinutes(5)
                              .seed(7)
                              .faults("correlated")
                              .faultRates(900.0, 120.0)
                              .retryBackoff(0.5)
                              .dropTimeout(240.0)
                              .build();
    ScenarioSpec clean = faulty;
    clean.label = "no-fault";
    clean.faults = "none";

    const ReplicationPlan plan(5, 0);
    const PairedComparison comparison = plan.comparePaired(faulty, clean);

    EXPECT_LT(comparison.a.metric("availability").mean(), 1.0);
    EXPECT_GT(comparison.a.metric("availability").mean(), 0.5);
    EXPECT_GT(comparison.a.metric("retries").mean(), 0.0);
    EXPECT_GT(comparison.a.metric("down_s").mean(), 0.0);

    // The no-fault arm is pristine: full availability, no retries,
    // perfect goodput — in every replication, not just on average.
    EXPECT_DOUBLE_EQ(comparison.b.metric("availability").mean(), 1.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("retries").stddev(), 0.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("retries").mean(), 0.0);
    EXPECT_DOUBLE_EQ(comparison.b.metric("goodput").mean(), 1.0);

    // Paired deltas (faulty minus clean) carry the outage cost with
    // common random numbers cancelling the stream-to-stream noise.
    EXPECT_LT(comparison.delta("availability").mean(), 0.0);
    EXPECT_GT(comparison.delta("down_s").mean(), 0.0);
    ASSERT_EQ(comparison.a.replications.size(), 5u);
    ASSERT_EQ(comparison.b.replications.size(), 5u);
}

} // namespace
} // namespace sleepscale
