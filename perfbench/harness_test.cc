/**
 * @file
 * Tests of the benchmark harness: the tracing decorators forward every
 * call unchanged, the failover counter counts the snapshot overload on
 * a farm with a server down, the workload seed reaches the inputs, and
 * the calibration kernel times at least one pass.
 *
 * Run with `python3 perfbench/run.py --test`.
 */

#include <gtest/gtest.h>

#include "calibrate.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "tracing.hh"
#include "workload/workload_spec.hh"
#include "workloads.hh"

using namespace perfbench;
using namespace sleepscale;

namespace {

/** Records which route overload ran; answers fixed indexes. */
class RecordingDispatcher final : public Dispatcher
{
  public:
    std::size_t
    route(const Job &, const std::vector<ServerSnapshot> &servers) override
    {
        ++snapshotCalls;
        lastViewSize = servers.size();
        return servers.size() - 1;
    }
    std::size_t route(const Job &, const FarmView &farm) override
    {
        ++viewCalls;
        return farm.count() - 1;
    }
    std::string name() const override { return "recording"; }

    int snapshotCalls = 0;
    int viewCalls = 0;
    std::size_t lastViewSize = 0;
};

class FixedView final : public FarmView
{
  public:
    std::size_t count() const override { return 5; }
    double backlog(std::size_t) const override { return 0.0; }
    bool idle(std::size_t) const override { return true; }
    std::size_t lowestIdle() const override { return 0; }
    std::size_t leastBacklogBusy() const override { return count(); }
};

std::unique_ptr<JobSource>
stationary(std::uint64_t seed)
{
    JobSourceConfig config;
    config.workload = workloadByName("dns");
    config.utilization = 0.3;
    config.seed = seed;
    return makeJobSource("stationary", config);
}

std::vector<Job>
draw(JobSource &source, std::size_t count)
{
    std::vector<Job> jobs(count);
    for (Job &job : jobs)
        EXPECT_TRUE(source.next(job));
    return jobs;
}

void
expectSameJobs(const std::vector<Job> &a, const std::vector<Job> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(doubleBits(a[i].arrival), doubleBits(b[i].arrival));
        EXPECT_EQ(doubleBits(a[i].size), doubleBits(b[i].size));
    }
}

} // namespace

TEST(TracedDispatcher, ForwardsBothRouteOverloadsAndName)
{
    Ledger ledger;
    auto inner = std::make_unique<RecordingDispatcher>();
    RecordingDispatcher &recording = *inner;
    TracedDispatcher traced(std::move(inner), ledger);

    const Job job{1.0, 0.1};
    EXPECT_EQ(traced.route(job, FixedView()), 4u);
    EXPECT_EQ(recording.viewCalls, 1);
    EXPECT_EQ(recording.snapshotCalls, 0);

    const std::vector<ServerSnapshot> servers(3);
    EXPECT_EQ(traced.route(job, servers), 2u);
    EXPECT_EQ(recording.snapshotCalls, 1);
    EXPECT_EQ(recording.lastViewSize, 3u);

    EXPECT_EQ(traced.name(), "recording");
    EXPECT_EQ(ledger.routeFast, 1u);
    EXPECT_EQ(ledger.routeFailover, 1u);
    EXPECT_EQ(ledger.failoverViewTotal, 3u);
    EXPECT_GE(ledger.routeSeconds, 0.0);
}

TEST(TracedJobSource, ForwardsNextCloneAndReset)
{
    Ledger ledger;
    TracedJobSource traced(stationary(7), ledger);
    const auto reference = stationary(7);

    expectSameJobs(draw(traced, 50), draw(*reference, 50));
    EXPECT_EQ(ledger.nextCalls, 50u);

    // A clone continues where the original stands, into the same ledger.
    const auto clone = traced.clone();
    ASSERT_NE(dynamic_cast<TracedJobSource *>(clone.get()), nullptr);
    expectSameJobs(draw(*clone, 20), draw(*reference->clone(), 20));
    expectSameJobs(draw(traced, 20), draw(*reference, 20));
    EXPECT_EQ(ledger.nextCalls, 90u);

    traced.reset(11);
    expectSameJobs(draw(traced, 30), draw(*stationary(11), 30));
}

TEST(TracedFaultSource, ForwardsNextCloneAndReset)
{
    Ledger ledger;
    FaultSourceConfig config;
    config.farmSize = 8;
    config.mtbf = 600.0;
    config.mttr = 60.0;
    config.seed = 3;
    TracedFaultSource traced(makeFaultSource("mtbf", config), ledger);
    const auto reference = makeFaultSource("mtbf", config);

    const auto same = [](FaultSource &a, FaultSource &b, int count) {
        for (int i = 0; i < count; ++i) {
            FaultEvent x;
            FaultEvent y;
            ASSERT_TRUE(a.next(x));
            ASSERT_TRUE(b.next(y));
            EXPECT_EQ(doubleBits(x.time), doubleBits(y.time));
            EXPECT_EQ(x.server, y.server);
            EXPECT_EQ(x.down, y.down);
        }
    };
    same(traced, *reference, 10);
    const auto clone = traced.clone();
    same(*clone, *reference->clone(), 5);
    EXPECT_EQ(ledger.faultCalls, 15u);

    traced.reset(9);
    config.seed = 9;
    same(traced, *makeFaultSource("mtbf", config), 10);
}

TEST(TracedPredictor, ForwardsPredictObserveAndName)
{
    Ledger ledger;
    TracedPredictor traced(makePredictor("LC", 10), ledger);
    const auto reference = makePredictor("LC", 10);
    for (std::size_t minute = 0; minute < 40; ++minute) {
        const double u = 0.2 + 0.01 * static_cast<double>(minute % 7);
        EXPECT_EQ(doubleBits(traced.predict(minute)),
                  doubleBits(reference->predict(minute)));
        traced.observe(minute, u);
        reference->observe(minute, u);
    }
    EXPECT_EQ(traced.name(), "LC");
    EXPECT_EQ(ledger.predictCalls, 80u);
}

TEST(TracedDispatcher, CountsFailoverOnFarmWithServerDown)
{
    Ledger ledger;
    const PlatformModel platform = platformByName("xeon");
    const WorkloadSpec spec = workloadByName("dns");
    ServerFarm farm(platform, spec.scaling, Policy{}, 4,
                    std::make_unique<TracedDispatcher>(
                        makeDispatcher("JSQ"), ledger));

    farm.tryOfferJob(Job{1.0, 0.01});
    EXPECT_EQ(ledger.routeFast, 1u);
    EXPECT_EQ(ledger.routeFailover, 0u);

    farm.failServer(2, 2.0);
    const std::size_t pick = farm.tryOfferJob(Job{3.0, 0.01});
    EXPECT_NE(pick, 2u);
    EXPECT_EQ(ledger.routeFast, 1u);
    EXPECT_EQ(ledger.routeFailover, 1u);
    EXPECT_EQ(ledger.failoverViewTotal, 3u);
}

TEST(Registration, TracedNamesResolveAndAreIdempotent)
{
    registerTracedComponents();
    registerTracedComponents();
    EXPECT_TRUE(dispatcherRegistry().contains(tracedName("JSQ")));
    EXPECT_TRUE(jobSourceRegistry().contains(tracedName("trace")));
    EXPECT_TRUE(faultSourceRegistry().contains(tracedName("mtbf")));
    EXPECT_TRUE(predictorRegistry().contains(tracedName("LC")));
    EXPECT_FALSE(dispatcherRegistry().contains(
        tracedName(tracedName("JSQ"))));

    const auto traced = makeDispatcher(tracedName("JSQ"));
    EXPECT_NE(dynamic_cast<TracedDispatcher *>(traced.get()), nullptr);
    EXPECT_EQ(traced->name(), "JSQ");
}

TEST(Workloads, SeedReachesEveryScenario)
{
    for (const std::string &name : workloadNames()) {
        const Workload one = makeWorkload(name, 1);
        const Workload same = makeWorkload(name, 1);
        const Workload other = makeWorkload(name, 42);
        ASSERT_FALSE(one.specs.empty()) << name;
        ASSERT_EQ(one.specs.size(), other.specs.size()) << name;
        for (std::size_t i = 0; i < one.specs.size(); ++i) {
            EXPECT_EQ(one.specs[i].seed, same.specs[i].seed) << name;
            EXPECT_NE(one.specs[i].seed, other.specs[i].seed) << name;
        }
    }
}

TEST(Workloads, SeedChangesInputsAndRepeatsBitForBit)
{
    registerTracedComponents();
    // The churn workload's code path on a farm small enough for a test.
    const auto small = [](std::uint64_t seed) {
        const ScenarioSpec spec =
            makeWorkload("farm_churn", seed).specs.front();
        return ScenarioBuilder::from(spec).farmSize(8).build();
    };
    const SpecRun a = runDirect(small(5));
    const SpecRun again = runDirect(small(5));
    const SpecRun other = runDirect(small(6));
    EXPECT_EQ(a.digest(), again.digest());
    EXPECT_NE(a.digest(), other.digest());

    const SpecRun traced = runDirect(tracedSpec(small(5)));
    EXPECT_EQ(traced.digest(), a.digest());
    EXPECT_GE(traced.ledger.nextCalls, traced.jobs);
    EXPECT_GT(traced.ledger.routeFast + traced.ledger.routeFailover, 0u);
    EXPECT_GT(traced.ledger.faultCalls, 0u);
    EXPECT_EQ(a.ledger.nextCalls, 0u);

    EXPECT_TRUE(compareWithRunner(
                    a, ExperimentRunner::runScenario(small(5)))
                    .empty());
}

TEST(Calibration, RunsAtLeastOnePassAndReportsItsTime)
{
    // A zero budget still runs and times one pass.
    const double pass = calibrationPassSeconds(0.0);
    EXPECT_GT(pass, 0.0);
    EXPECT_LT(pass, 1.0);
}
