/**
 * @file
 * Oracle-anchored property tests for the offline-optimal solver
 * (src/analytic/offline_opt.hh, docs/OFFLINE_OPT.md).
 *
 * The FPTAS is validated three ways: against the exact Pareto-frontier
 * solver on randomized small instances (the (1 + epsilon) contract),
 * against closed-form degenerate instances computed independently here,
 * and against the simulator itself — no simulated strategy may ever
 * spend less energy than the oracle's lower bound on the same job log,
 * swept over the Table 5 workloads and the SS / pruned / poet
 * strategies through the end-to-end `reportRegret()` path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <vector>

#include "analytic/offline_opt.hh"
#include "core/policy_space.hh"
#include "experiment/runner.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/error.hh"
#include "workload/distribution.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

// Counts every global allocation, so a test can compare how many
// blocks a solve allocates on logs of different lengths. Kept out of
// line so the compiler never pairs an inlined free() with the
// allocating call.
namespace {
std::atomic<std::size_t> globalAllocations{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    globalAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(bytes == 0 ? 1 : bytes))
        return block;
    throw std::bad_alloc();
}

// std::stable_sort's temporary buffer comes from the nothrow form and
// goes back through the sized delete below, so both must use malloc.
[[gnu::noinline]] void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    globalAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

[[gnu::noinline]] void
operator delete(void *block) noexcept
{
    std::free(block);
}

[[gnu::noinline]] void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace sleepscale {
namespace {

/** Small random instance generator shared by the property tests.
 * Sizes up to ~2x the xeon wake latencies and gaps up to 2 s keep the
 * instances in the regime where sleep-state choice actually matters. */
std::vector<Job>
randomJobs(std::mt19937_64 &rng, std::size_t max_jobs)
{
    std::uniform_real_distribution<double> gap(0.0, 2.0);
    std::uniform_real_distribution<double> size(0.0, 0.4);
    std::vector<Job> jobs;
    const std::size_t n = 1 + rng() % max_jobs;
    double t = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        t += gap(rng);
        jobs.push_back({t, size(rng), 0});
    }
    return jobs;
}

/** A reduced grid keeps the exact solver's frontier small enough for
 * hundreds of randomized cases. */
std::vector<double>
coarseGrid()
{
    return PolicySpace::frequencyGrid(0.4, 1.0, 0.2);
}

TEST(OfflineOptProperty, FptasBracketsExactOnRandomInstances)
{
    const PlatformModel xeon = PlatformModel::xeon();
    std::mt19937_64 rng(20140614);
    OfflineOptOptions options;
    options.epsilon = 0.05;
    options.frequencies = coarseGrid();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound(),
                                options);

    std::uniform_real_distribution<double> tail(0.0, 2.0);
    for (int trial = 0; trial < 200; ++trial) {
        const auto jobs = randomJobs(rng, 8);
        const double horizon = jobs.back().arrival + tail(rng);
        const auto instance =
            OfflineOptInstance::fromJobs(jobs, horizon);
        const OfflineOptResult exact = oracle.solveExact(instance);
        const OfflineOptResult fptas = oracle.solve(instance);

        // Certified lower bound ...
        EXPECT_LE(fptas.energy, exact.energy + 1e-6)
            << "trial " << trial;
        // ... within (1 + epsilon) of the optimum ...
        EXPECT_LE(exact.energy,
                  (1.0 + options.epsilon) * fptas.energy + 1e-6)
            << "trial " << trial;
        // ... and the achievable upper bound really is above it.
        EXPECT_GE(fptas.upperBound, exact.energy - 1e-6)
            << "trial " << trial;
        EXPECT_LE(fptas.epsilonEffective, options.epsilon + 1e-9)
            << "trial " << trial;
    }
}

TEST(OfflineOptProperty, LowerBoundTightensAsEpsilonHalves)
{
    const PlatformModel xeon = PlatformModel::xeon();
    std::mt19937_64 rng(5);
    for (int trial = 0; trial < 40; ++trial) {
        const auto jobs = randomJobs(rng, 6);
        const auto instance =
            OfflineOptInstance::fromJobs(jobs,
                                         jobs.back().arrival + 1.0);
        double previous = -std::numeric_limits<double>::infinity();
        bool chain_clean = true;
        // Halvings keep the delta-grids nested, which is what makes
        // the lower bound monotone; unrelated epsilons need not be.
        for (double epsilon : {0.2, 0.1, 0.05, 0.025}) {
            OfflineOptOptions options;
            options.epsilon = epsilon;
            options.frequencies = coarseGrid();
            const OfflineOptimal oracle(
                xeon, ServiceScaling::cpuBound(), options);
            const OfflineOptResult result = oracle.solve(instance);
            // Coarsening/merging break grid nesting; on instances
            // this small they never trigger, but guard anyway so the
            // test cannot rot into flakiness.
            if (result.coarsenings > 0 || result.mergeDebt > 0.0) {
                chain_clean = false;
                break;
            }
            EXPECT_GE(result.energy, previous - 1e-9)
                << "trial " << trial << " epsilon " << epsilon;
            previous = result.energy;
        }
        EXPECT_TRUE(chain_clean) << "trial " << trial;
    }
}

TEST(OfflineOptDegenerate, EmptyLogBillsTheHorizonAtTheIdleFloor)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const auto instance = OfflineOptInstance::fromJobs({}, 3600.0);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    const OfflineOptResult fptas = oracle.solve(instance);
    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(fptas.energy, 3600.0 * floor, 1e-6);
    EXPECT_NEAR(exact.energy, 3600.0 * floor, 1e-6);
    EXPECT_NEAR(fptas.upperBound, fptas.energy, 1e-6);
}

TEST(OfflineOptDegenerate, SingleJobMatchesDirectEnumeration)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const double arrival = 12.0;
    const double size = 0.25;
    const double horizon = 40.0;
    const auto instance = OfflineOptInstance::fromJobs(
        {{arrival, size, 0}}, horizon);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    // Leading gap (with a wake into the job), the busy period at the
    // best frequency, and the trailing gap at the idle floor.
    double best = std::numeric_limits<double>::infinity();
    for (double f : oracle.frequencies()) {
        const double active = xeon.activePower(f);
        const double service =
            size * ServiceScaling::cpuBound().factor(f);
        const double completion = arrival + service;
        const double energy = oracle.gapCost(arrival, active) +
                              service * active +
                              (horizon - completion) * floor;
        best = std::min(best, energy);
    }

    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(exact.energy, best, 1e-6);
    const OfflineOptResult fptas = oracle.solve(instance);
    EXPECT_LE(fptas.energy, exact.energy + 1e-6);
    EXPECT_LE(exact.energy, fptas.upperBound + 1e-6);
}

TEST(OfflineOptDegenerate, GaplessLogDecomposesPerJob)
{
    // All arrivals at t = 0: no idle gap ever opens before the
    // backlog drains, so the optimum decomposes into independent
    // per-job trade-offs between busy energy and displaced trailing
    // idle at the floor power.
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    const std::vector<Job> jobs = {
        {0.0, 0.3, 0}, {0.0, 0.1, 0}, {0.0, 0.45, 0}};
    const double horizon = 30.0;
    const auto instance = OfflineOptInstance::fromJobs(jobs, horizon);

    double floor = std::numeric_limits<double>::infinity();
    for (LowPowerState state : allLowPowerStates)
        floor = std::min(floor, oracle.relaxedIdlePower(state));

    double expected = horizon * floor;
    for (const Job &job : jobs) {
        double best = std::numeric_limits<double>::infinity();
        for (double f : oracle.frequencies()) {
            const double service =
                job.size *
                ServiceScaling::cpuBound().factor(f);
            best = std::min(best,
                            service * (xeon.activePower(f) - floor));
        }
        expected += best;
    }

    const OfflineOptResult exact = oracle.solveExact(instance);
    EXPECT_NEAR(exact.energy, expected, 1e-6);
    EXPECT_TRUE(std::all_of(exact.gapStates.begin(),
                            exact.gapStates.end(),
                            [](LowPowerState s) {
                                return s == allLowPowerStates[0];
                            }));
}

TEST(OfflineOptDegenerate, DeadlinesOnlyRaiseTheRelaxedBound)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound());
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const auto jobs = randomJobs(rng, 6);
        const double horizon = jobs.back().arrival + 2.0;
        const OfflineOptResult relaxed =
            oracle.solveExact(OfflineOptInstance::fromJobs(jobs, horizon));
        // A slack of one max-size service at the slowest frequency is
        // tight enough to force fast frequencies on some instances.
        const OfflineOptResult constrained = oracle.solveExact(
            OfflineOptInstance::fromJobs(jobs, horizon, 0.5));
        EXPECT_GE(constrained.energy, relaxed.energy - 1e-9)
            << "trial " << trial;
    }
}

TEST(OfflineOptDegenerate, RejectsMalformedInstances)
{
    EXPECT_THROW(OfflineOptInstance::fromJobs(
                     {{2.0, 0.1, 0}, {1.0, 0.1, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{1.0, -0.1, 0}}, 10.0),
                 ConfigError);
    EXPECT_THROW(OfflineOptInstance::fromJobs({{5.0, 0.1, 0}}, 1.0),
                 ConfigError);
}

/** Poisson log of n jobs at load rho (mean size 0.194 s, the dns
 * service mean) from the project's own deterministic generator. */
std::vector<Job>
poissonLog(double rho, std::size_t n, std::uint64_t seed)
{
    ExponentialDist gaps(0.194 / rho);
    ExponentialDist sizes(0.194);
    StationarySource source(gaps.clone(), sizes.clone(), seed);
    return materialize(source, n);
}

/** One solve() instance and the exact outcome recorded for it. */
struct PinCase
{
    const char *name;
    double rho;
    std::size_t jobs;
    std::uint64_t seed;
    double deadlineSlack;
    std::size_t maxStates;
    double energy;
    double upperBound;
    double epsilonEffective;
    double mergeDebt;
    std::size_t frontierPeak;
    std::size_t coarsenings;
    std::size_t violations;
};

TEST(OfflineOptPin, SolveOutcomesMatchPin)
{
    // Bit-exact pins of solve() on one instance per code path of the
    // FPTAS pass; the regret goldens only check to 1e-9 relative.
    constexpr double relaxed = std::numeric_limits<double>::infinity();
    const PinCase cases[] = {
        // High load: the coarse gap-calibrated probe certifies alone.
        {"probe", 0.8, 1000, 7, relaxed, 4096, 0x1.6d111374d277ep+15,
         0x1.704ba00c94ca4p+15, 0x1.21ce2db3f43p-7, 0x0p+0, 25, 0, 0},
        // Critical load: the frontier passes kSoftFrontier and
        // eta-merges run up debt.
        {"merge", 0.65, 300, 7, relaxed, 4096, 0x1.bfddcae924c5cp+13,
         0x1.cc4e8ce2b7b76p+13, 0x1.c719e38c8afp-6, 0x1.f71bb69dcdc9ap+4,
         316, 0, 0},
        // A tiny frontier cap: every pass but the last aborts on the
        // coarsening budget, and the last coarsens throughout.
        {"coarsen", 0.3, 500, 7, relaxed, 16, 0x1.10f5a3e6b4ab2p+15,
         0x1.151c72611b497p+15, 0x1.f262d8043b5p-7, 0x0p+0, 16, 3655, 0},
        // Per-job deadlines: infeasible jobs clamp to the top frequency.
        {"deadline", 0.6, 500, 3, 0.5, 4096, 0x1.a36d2314ac16fp+14,
         0x1.ac769f4d306dap+14, 0x1.6103659c51a8p-6, 0x0p+0, 16, 0, 244},
    };
    const PlatformModel xeon = PlatformModel::xeon();
    for (const PinCase &c : cases) {
        SCOPED_TRACE(c.name);
        OfflineOptOptions options;
        options.maxStates = c.maxStates;
        const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound(),
                                    options);
        const auto jobs = poissonLog(c.rho, c.jobs, c.seed);
        const OfflineOptResult result =
            oracle.solve(OfflineOptInstance::fromJobs(
                jobs, jobs.back().arrival + 1.0, c.deadlineSlack));
        EXPECT_EQ(result.energy, c.energy);
        EXPECT_EQ(result.upperBound, c.upperBound);
        EXPECT_EQ(result.epsilonEffective, c.epsilonEffective);
        EXPECT_EQ(result.mergeDebt, c.mergeDebt);
        EXPECT_EQ(result.frontierPeak, c.frontierPeak);
        EXPECT_EQ(result.coarsenings, c.coarsenings);
        EXPECT_EQ(result.violations, c.violations);
    }
}

TEST(OfflineOptPin, ExactScheduleMatchesPin)
{
    const PlatformModel xeon = PlatformModel::xeon();
    OfflineOptOptions options;
    options.frequencies = coarseGrid();
    const OfflineOptimal oracle(xeon, ServiceScaling::cpuBound(), options);
    // Long gaps (load 0.03) make the deepest state pay off on some.
    const auto jobs = poissonLog(0.03, 8, 5);
    const double horizon = jobs.back().arrival + 1.0;
    constexpr double f04 = 0x1.999999999999ap-2;
    constexpr double f06 = 0x1.3333333333334p-1;
    constexpr double f08 = 0x1.999999999999ap-1;
    constexpr double f10 = 0x1p+0;
    constexpr LowPowerState shallow = LowPowerState::C0IdleS0Idle;
    constexpr LowPowerState deep = LowPowerState::C6S3;

    const OfflineOptResult relaxed =
        oracle.solveExact(OfflineOptInstance::fromJobs(jobs, horizon));
    EXPECT_EQ(relaxed.energy, 0x1.ff8f248e23201p+10);
    EXPECT_EQ(relaxed.upperBound, relaxed.energy);
    EXPECT_EQ(relaxed.violations, 0u);
    EXPECT_EQ(relaxed.frontierPeak, 6u);
    EXPECT_EQ(relaxed.jobFrequencies,
              (std::vector<double>{f04, f04, f08, f04, f06, f06, f06,
                                   f08}));
    EXPECT_EQ(relaxed.gapStates,
              (std::vector<LowPowerState>{deep, deep, shallow, deep,
                                          shallow, shallow, shallow,
                                          shallow}));

    const OfflineOptResult constrained = oracle.solveExact(
        OfflineOptInstance::fromJobs(jobs, horizon, 0.3));
    EXPECT_EQ(constrained.energy, 0x1.18f36ef202694p+11);
    EXPECT_EQ(constrained.violations, 2u);
    EXPECT_EQ(constrained.frontierPeak, 4u);
    EXPECT_EQ(constrained.jobFrequencies,
              (std::vector<double>{f04, f10, f04, f10, f06, f06, f06,
                                   f08}));
    EXPECT_EQ(constrained.gapStates,
              (std::vector<LowPowerState>{deep, deep, deep, shallow,
                                          shallow, shallow, shallow,
                                          shallow}));
}

TEST(OfflineOptAllocations, DoNotGrowWithTheLog)
{
    // The per-job checks of fromJobs() build no message unless they
    // fail, and solve() keeps its costs in flat tables and its DP in
    // buffers reused across jobs and passes, so a 10k-job log costs
    // the same few blocks as a 1k-job log of the same shape: a
    // 50-job burst repeated after a long lull.
    const auto tiled = [](std::size_t n) {
        const auto block = poissonLog(0.5, 50, 23);
        const double period = block.back().arrival + 60.0;
        std::vector<Job> jobs;
        jobs.reserve(n);
        for (std::size_t j = 0; j < n; ++j) {
            Job job = block[j % block.size()];
            job.arrival += period * static_cast<double>(j / block.size());
            jobs.push_back(job);
        }
        return jobs;
    };
    const OfflineOptimal oracle(PlatformModel::xeon(),
                                ServiceScaling::cpuBound());
    struct Counts
    {
        std::size_t fromJobs;
        std::size_t solve;
    };
    const auto allocationsFor = [&](std::size_t n) {
        std::vector<Job> jobs = tiled(n);
        const double horizon = jobs.back().arrival + 1.0;
        std::size_t before = globalAllocations.load();
        const OfflineOptInstance instance =
            OfflineOptInstance::fromJobs(std::move(jobs), horizon);
        Counts counts{globalAllocations.load() - before, 0};
        before = globalAllocations.load();
        const OfflineOptResult result = oracle.solve(instance);
        counts.solve = globalAllocations.load() - before;
        EXPECT_GT(result.energy, 0.0);
        EXPECT_EQ(result.coarsenings, 0u);
        return counts;
    };
    const Counts small = allocationsFor(1000);
    const Counts large = allocationsFor(10000);
    EXPECT_EQ(small.fromJobs, 0u);
    EXPECT_EQ(large.fromJobs, 0u);
    EXPECT_EQ(small.solve, large.solve);
    EXPECT_LE(large.solve, 64u);
}

/**
 * End-to-end lower-bound invariant: drive the real runtime over the
 * Table 5 workloads with each strategy and require the reported
 * regret to be non-negative — i.e. no simulated strategy ever beats
 * the oracle on the log it just served. A short 2AM-4AM slice keeps
 * the oracle solve sub-second while still spanning thousands of jobs.
 */
struct RegretCase
{
    const char *workload;
    const char *strategy;
    bool pruned;
    /** Arrival-rate thinning: the mail and google workloads pack far
     * more jobs into the slice than dns; thinning keeps every oracle
     * solve sub-second without changing what is being asserted. */
    double rate_scale;
};

class OfflineOptRegret : public ::testing::TestWithParam<RegretCase>
{
};

TEST_P(OfflineOptRegret, SimulatedEnergyNeverBeatsTheOracle)
{
    const RegretCase c = GetParam();
    const ScenarioSpec spec =
        ScenarioBuilder(std::string("regret ") + c.workload + " " +
                        c.strategy + (c.pruned ? "-pruned" : ""))
            .workload(c.workload)
            .strategy(c.strategy)
            .prunedSearch(c.pruned)
            .trace("es")
            .traceDays(1)
            .traceSeed(20140614)
            .window(2, 4)
            .epochMinutes(5)
            .predictor("LC")
            .sourceRateScale(c.rate_scale)
            .reportRegret()
            .optEpsilon(0.1)
            .seed(20140614)
            .build();
    const ScenarioResult result = ExperimentRunner::runScenario(spec);
    EXPECT_GT(result.extra("offline_opt_energy"), 0.0);
    EXPECT_GE(result.extra("regret_pct"), 0.0)
        << c.workload << "/" << c.strategy;
}

INSTANTIATE_TEST_SUITE_P(
    Table5, OfflineOptRegret,
    ::testing::Values(RegretCase{"dns", "SS", false, 1.0},
                      RegretCase{"dns", "SS", true, 1.0},
                      RegretCase{"dns", "poet", false, 1.0},
                      RegretCase{"mail", "SS", false, 0.3},
                      RegretCase{"mail", "SS", true, 0.3},
                      RegretCase{"mail", "poet", false, 0.3},
                      RegretCase{"google", "SS", false, 0.05},
                      RegretCase{"google", "SS", true, 0.05},
                      RegretCase{"google", "poet", false, 0.05}),
    [](const ::testing::TestParamInfo<RegretCase> &param_info) {
        return std::string(param_info.param.workload) + "_" +
               param_info.param.strategy +
               (param_info.param.pruned ? "_pruned" : "");
    });

} // namespace
} // namespace sleepscale
