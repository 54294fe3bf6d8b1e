/**
 * @file
 * Tests for the epoch-based SleepScale runtime and the named strategies.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.hh"
#include "core/strategies.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/job_stream.hh"

namespace sleepscale {
namespace {

class RuntimeTest : public ::testing::Test
{
  protected:
    PlatformModel xeon = PlatformModel::xeon();
    WorkloadSpec dns = dnsWorkload();

    UtilizationTrace
    flatTrace(std::size_t minutes, double level) const
    {
        return UtilizationTrace("flat",
                                std::vector<double>(minutes, level));
    }

    std::vector<Job>
    jobsFor(const UtilizationTrace &trace, std::uint64_t seed = 9) const
    {
        Rng rng(seed);
        return generateTraceDrivenJobs(rng, dns, trace);
    }
};

TEST_F(RuntimeTest, ConservesJobs)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);

    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);

    EXPECT_EQ(result.total.arrivals, jobs.size());
    EXPECT_EQ(result.total.completions, jobs.size());
}

TEST_F(RuntimeTest, EpochCountMatchesTrace)
{
    const UtilizationTrace trace = flatTrace(30, 0.2);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.2);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_EQ(result.epochs.size(), 6u);
    for (std::size_t i = 0; i < result.epochs.size(); ++i)
        EXPECT_EQ(result.epochs[i].index, i);
}

TEST_F(RuntimeTest, EnergyAccountingIsContiguous)
{
    const UtilizationTrace trace = flatTrace(20, 0.25);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.epochMinutes = 4;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.25);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);

    // Windows tile the run: sum of epoch spans equals the total span,
    // and energies add up.
    double span = 0.0, energy = 0.0;
    for (const EpochReport &epoch : result.epochs) {
        span += epoch.stats.elapsed();
        energy += epoch.stats.energy;
    }
    EXPECT_NEAR(span, result.total.elapsed(), 1e-6);
    EXPECT_NEAR(energy, result.total.energy, 1e-6);
    EXPECT_GE(result.total.elapsed(), trace.duration());
}

TEST_F(RuntimeTest, AveragePowerWithinModelBounds)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);
    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_GT(result.avgPower(), xeon.lowPower(LowPowerState::C6S3, 1.0));
    EXPECT_LT(result.avgPower(), xeon.activePower(1.0));
}

TEST_F(RuntimeTest, FixedPolicyNeverChanges)
{
    const UtilizationTrace trace = flatTrace(20, 0.4);
    const auto jobs = jobsFor(trace);
    RuntimeConfig config;
    config.fixedPolicy = raceToHalt(LowPowerState::C6S0Idle);
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.4);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    for (const EpochReport &epoch : result.epochs) {
        EXPECT_DOUBLE_EQ(epoch.policy.frequency, 1.0);
        EXPECT_EQ(epoch.policy.plan.deepest(),
                  LowPowerState::C6S0Idle);
    }
}

TEST_F(RuntimeTest, StateSelectionFractionsSumToOne)
{
    const UtilizationTrace trace = flatTrace(40, 0.2);
    const auto jobs = jobsFor(trace);
    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor(0.2);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    const auto fractions = result.stateSelectionFractions();
    double sum = 0.0;
    for (double f : fractions)
        sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(RuntimeTest, DvfsOnlyNeverSleepsDeep)
{
    const UtilizationTrace trace = flatTrace(30, 0.3);
    const auto jobs = jobsFor(trace);
    const RuntimeConfig config =
        makeStrategyConfig(StrategyKind::DvfsOnly, 5, 0.0, 0.8);
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.3);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    const auto fractions = result.stateSelectionFractions();
    EXPECT_DOUBLE_EQ(
        fractions[depthIndex(LowPowerState::C0IdleS0Idle)], 1.0);
}

TEST_F(RuntimeTest, OverProvisioningBoostsFrequency)
{
    const UtilizationTrace trace = flatTrace(40, 0.2);
    const auto jobs = jobsFor(trace);

    RuntimeConfig plain;
    plain.overProvision = 0.0;
    RuntimeConfig guarded;
    guarded.overProvision = 0.35;

    NaivePreviousPredictor p1(0.2), p2(0.2);
    const RuntimeResult without =
        SleepScaleRuntime(xeon, dns, plain).run(jobs, trace, p1);
    const RuntimeResult with =
        SleepScaleRuntime(xeon, dns, guarded).run(jobs, trace, p2);

    // Some epoch must be boosted once the budget is met...
    bool any_boost = false;
    for (const EpochReport &epoch : with.epochs)
        any_boost = any_boost || epoch.boosted;
    EXPECT_TRUE(any_boost);
    for (const EpochReport &epoch : without.epochs)
        EXPECT_FALSE(epoch.boosted);

    // ...and the guard band buys response time for power (Section 6.1).
    EXPECT_LE(with.meanResponse(), without.meanResponse() * 1.05);
    EXPECT_GE(with.avgPower(), without.avgPower() * 0.98);
}

TEST_F(RuntimeTest, QosBudgetDerivedFromRhoB)
{
    RuntimeConfig config;
    config.rhoB = 0.8;
    const SleepScaleRuntime runtime(xeon, dns, config);
    EXPECT_NEAR(runtime.qos().budget(), 0.194 / 0.2, 1e-12);

    RuntimeConfig tail;
    tail.qosMetric = QosMetric::TailResponse;
    const SleepScaleRuntime tail_runtime(xeon, dns, tail);
    EXPECT_EQ(tail_runtime.qos().metric(), QosMetric::TailResponse);
}

TEST_F(RuntimeTest, ValidationRejectsBadConfig)
{
    RuntimeConfig zero_epoch;
    zero_epoch.epochMinutes = 0;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, zero_epoch), ConfigError);

    RuntimeConfig tiny_log;
    tiny_log.evalLogCap = 1;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, tiny_log), ConfigError);

    RuntimeConfig negative_alpha;
    negative_alpha.overProvision = -0.1;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, negative_alpha), ConfigError);

    RuntimeConfig no_history;
    no_history.historyEpochs = 0;
    EXPECT_THROW(SleepScaleRuntime(xeon, dns, no_history), ConfigError);

    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor;
    EXPECT_THROW(runtime.run({}, UtilizationTrace{}, predictor),
                 ConfigError);
}

TEST_F(RuntimeTest, EmptyRunIsNotWithinBudget)
{
    // A run that completed nothing has no response statistic to meet
    // the budget with (the farm's rule too).
    const SleepScaleRuntime runtime(xeon, dns, RuntimeConfig{});
    NaivePreviousPredictor predictor;
    const RuntimeResult result =
        runtime.run(std::vector<Job>{}, flatTrace(20, 0.0), predictor);
    EXPECT_EQ(result.total.completions, 0u);
    EXPECT_FALSE(result.withinBudget());
}

TEST_F(RuntimeTest, BacklogCarriesAcrossEpochs)
{
    // One overload minute inside an otherwise quiet trace: responses of
    // jobs queued during the spike are attributed to later epochs, and
    // nothing is lost.
    std::vector<double> levels(30, 0.05);
    levels[10] = 0.9;
    levels[11] = 0.9;
    const UtilizationTrace trace("spike", levels);
    const auto jobs = jobsFor(trace, 17);

    RuntimeConfig config;
    config.epochMinutes = 5;
    const SleepScaleRuntime runtime(xeon, dns, config);
    NaivePreviousPredictor predictor(0.05);
    const RuntimeResult result = runtime.run(jobs, trace, predictor);
    EXPECT_EQ(result.total.completions, jobs.size());
}

// -------------------------------------------------------- strategy kinds

TEST(Strategies, LabelsMatchPaper)
{
    EXPECT_EQ(toString(StrategyKind::SleepScale), "SS");
    EXPECT_EQ(toString(StrategyKind::SleepScaleC3), "SS(C3)");
    EXPECT_EQ(toString(StrategyKind::DvfsOnly), "DVFS");
    EXPECT_EQ(toString(StrategyKind::RaceToHaltC3), "R2H(C3)");
    EXPECT_EQ(toString(StrategyKind::RaceToHaltC6), "R2H(C6)");
}

TEST(Strategies, ConfigsEncodeTheRightRestrictions)
{
    const RuntimeConfig ss =
        makeStrategyConfig(StrategyKind::SleepScale, 5, 0.35, 0.8);
    EXPECT_EQ(ss.space.plans.size(), 5u);
    EXPECT_FALSE(ss.fixedPolicy.has_value());

    const RuntimeConfig ss_c3 =
        makeStrategyConfig(StrategyKind::SleepScaleC3, 5, 0.35, 0.8);
    ASSERT_EQ(ss_c3.space.plans.size(), 1u);
    EXPECT_EQ(ss_c3.space.plans[0].deepest(), LowPowerState::C3S0Idle);

    const RuntimeConfig r2h =
        makeStrategyConfig(StrategyKind::RaceToHaltC6, 5, 0.35, 0.8);
    ASSERT_TRUE(r2h.fixedPolicy.has_value());
    EXPECT_DOUBLE_EQ(r2h.fixedPolicy->frequency, 1.0);
}

} // namespace
} // namespace sleepscale
