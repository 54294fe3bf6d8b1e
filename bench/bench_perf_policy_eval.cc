/**
 * @file
 * Micro-benchmarks for the claims that make SleepScale viable at runtime:
 * Section 4.1 reports 6.3 ms to simulate one policy (10,000 jobs, Matlab)
 * and Section 5.1.1 argues the full per-epoch decision is negligible
 * against a minutes-long epoch. These benchmarks measure our equivalents.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "analytic/mm1_sleep.hh"
#include "analytic/offline_opt.hh"
#include "core/eval_engine.hh"
#include "core/policy_manager.hh"
#include "experiment/runner.hh"
#include "farm/server_farm.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace {

using namespace sleepscale;

std::vector<Job>
benchJobs(std::size_t count)
{
    ExponentialDist gaps(0.194 / 0.3);
    ExponentialDist sizes(0.194);
    StationarySource source(gaps.clone(), sizes.clone(), 4242);
    return materialize(source, count);
}

QosConstraint
benchQos()
{
    return QosConstraint::fromBaselineMean(0.8, 0.194);
}

/** One policy characterization over a 10k-job log (paper: 6.3 ms). */
void
BM_EvaluatePolicy10k(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy,
                           jobs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            10000);
}
BENCHMARK(BM_EvaluatePolicy10k);

/** Raw simulator throughput in jobs/second. */
void
BM_ServerSimThroughput(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(static_cast<std::size_t>(state.range(0)));
    const Policy policy{1.0,
                        SleepPlan::immediate(LowPowerState::C6S0Idle)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            evaluatePolicy(xeon, ServiceScaling::cpuBound(), policy,
                           jobs));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_ServerSimThroughput)->Arg(1000)->Arg(100000);

/** The full per-epoch decision: every (state, frequency) candidate over
 * a capped 4000-job log (what the runtime executes every T minutes). */
void
BM_PolicyManagerDecision(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(4000);
    const PolicyManager manager(xeon, ServiceScaling::cpuBound(),
                                PolicySpace::standard(), benchQos());
    for (auto _ : state)
        benchmark::DoNotOptimize(manager.selectFromLog(jobs));
}
BENCHMARK(BM_PolicyManagerDecision);

/** Every PolicySpace::standard() candidate replayed over a prepared
 * 10k-job log in one pass of the engine's interleaved kernel (serial);
 * items are candidate-jobs. */
void
BM_ReplayKernel10k(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const PreparedLog log = PreparedLog::fromJobs(benchJobs(10000));
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos());
    std::vector<std::uint32_t> candidates(engine.space().size());
    std::iota(candidates.begin(), candidates.end(), 0u);
    std::vector<CandidateOutcome> outcomes(candidates.size());
    for (auto _ : state) {
        engine.characterize(log, candidates, outcomes);
        benchmark::DoNotOptimize(outcomes.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(candidates.size()) *
                            10000);
}
BENCHMARK(BM_ReplayKernel10k);

/** Full policy-space selection over a 10k-job log through the batched
 * engine (plan cache + interleaved replay kernel), serial. The headline
 * number: compare against BM_SelectFromLogNaive, the pre-engine path. */
void
BM_SelectFromLog(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos());
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.selectFromLog(jobs));
    state.SetItemsProcessed(
        static_cast<std::int64_t>(engine.lifetimeEvaluations()) * 10000);
}
BENCHMARK(BM_SelectFromLog);

/** The pre-engine baseline the engine replaces: one fresh ServerSim
 * (and plan materialization) per candidate, streamed job by job —
 * exactly what PolicyManager::selectFromLog executed before the
 * batched engine existed. Kept so the speedup stays measurable. */
void
BM_SelectFromLogNaive(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    const PolicySpace space = PolicySpace::standard();
    const QosConstraint qos = benchQos();
    const double rho = PolicyManager::logOfferedLoad(jobs);
    // The paper's stability floor, as the old serial loop applied it.
    const double f_floor = std::min(rho + 0.01, 0.999);

    for (auto _ : state) {
        double best_power = std::numeric_limits<double>::infinity();
        Policy best;
        for (const SleepPlan &plan : space.plans) {
            for (double f : space.frequencies) {
                if (f < f_floor)
                    continue;
                const Policy candidate{f, plan};
                const PolicyEvaluation eval = evaluatePolicy(
                    xeon, ServiceScaling::cpuBound(), candidate, jobs);
                const double metric = qos.measuredValue(eval.stats);
                if (metric <= qos.budget() &&
                    eval.avgPower() < best_power) {
                    best_power = eval.avgPower();
                    best = candidate;
                }
            }
        }
        benchmark::DoNotOptimize(best);
    }
}
BENCHMARK(BM_SelectFromLogNaive);

/** Engine selection with parallel candidate fan-out (bit-identical
 * decisions at any width). */
void
BM_SelectFromLogParallel(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    EvalEngineOptions options;
    options.threads = static_cast<std::size_t>(state.range(0));
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos(), options);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.selectFromLog(jobs));
}
BENCHMARK(BM_SelectFromLogParallel)->Arg(2)->Arg(8);

/** Engine selection with the pruned (binary-search) frequency scan. */
void
BM_SelectFromLogPruned(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const auto jobs = benchJobs(10000);
    EvalEngineOptions options;
    options.pruned = true;
    PolicyEvalEngine engine(xeon, ServiceScaling::cpuBound(),
                            PolicySpace::standard(), benchQos(), options);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.selectFromLog(jobs));
}
BENCHMARK(BM_SelectFromLogPruned);

/** The closed-form alternative the paper suggests as future work. */
void
BM_AnalyticDecision(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const double mu = 1.0 / 0.194;
    const PolicyManager manager(
        xeon, ServiceScaling::cpuBound(), PolicySpace::standard(),
        QosConstraint::fromBaselineMean(0.8, 0.194));
    for (auto _ : state)
        benchmark::DoNotOptimize(manager.selectAnalytic(0.3 * mu, mu));
}
BENCHMARK(BM_AnalyticDecision);

/** A single closed-form policy evaluation. */
void
BM_AnalyticSingleEvaluation(benchmark::State &state)
{
    const PlatformModel xeon = PlatformModel::xeon();
    const MM1SleepModel model(xeon);
    const double mu = 1.0 / 0.194;
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.meanPower(policy, 0.3 * mu, mu));
        benchmark::DoNotOptimize(
            model.meanResponse(policy, 0.3 * mu, mu));
    }
}
BENCHMARK(BM_AnalyticSingleEvaluation);

/** One offline-oracle solve (the regret baseline) at epsilon = 0.05
 * over a fixed hour of dns-like Poisson load at rho = 0.3; items are
 * jobs of the log. */
void
BM_OfflineOptSolve(benchmark::State &state)
{
    const WorkloadSpec dns = workloadByName("dns");
    ExponentialDist gaps(dns.serviceMean / 0.3);
    ExponentialDist sizes(dns.serviceMean);
    StationarySource source(gaps.clone(), sizes.clone(), 20140614);
    std::vector<Job> jobs;
    Job job;
    while (source.next(job) && job.arrival <= 3600.0)
        jobs.push_back(job);
    const auto instance =
        OfflineOptInstance::fromJobs(std::move(jobs), 3600.0);
    OfflineOptOptions options;
    options.epsilon = 0.05;
    const OfflineOptimal oracle(PlatformModel::xeon(), dns.scaling,
                                options);
    for (auto _ : state)
        benchmark::DoNotOptimize(oracle.solve(instance));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(instance.jobs.size()));
}
BENCHMARK(BM_OfflineOptSolve)->Unit(benchmark::kMillisecond);

/** Closing one per-server epoch of a 128-server farm: harvest every
 * server's window (one 5-minute dns-like window at rho = 0.3 each)
 * and merge them into the farm view, the window work FarmRuntime does
 * at each per-server epoch boundary. Items are servers. */
void
BM_CloseFarmEpoch(benchmark::State &state)
{
    constexpr std::size_t servers = 128;
    constexpr double window = 300.0;
    const PlatformModel xeon = PlatformModel::xeon();
    const WorkloadSpec dns = workloadByName("dns");
    const Policy policy{0.7, SleepPlan::immediate(LowPowerState::C6S3)};
    std::vector<ServerSim> fed;
    fed.reserve(servers);
    for (std::size_t i = 0; i < servers; ++i) {
        StationarySource source(dns.makeInterArrival(0.3),
                                dns.makeService(), 7000 + i);
        fed.emplace_back(xeon, dns.scaling, policy);
        Job job;
        while (source.next(job) && job.arrival < window)
            fed.back().offerJob(job);
        fed.back().advanceTo(window);
    }

    std::vector<ServerSim> sims;
    sims.reserve(servers);
    std::vector<SimStats> windows(servers);
    for (auto _ : state) {
        // Restore the fed windows untimed; a harvest empties them.
        state.PauseTiming();
        sims.clear();
        for (const ServerSim &sim : fed)
            sims.push_back(sim);
        state.ResumeTiming();
        for (std::size_t i = 0; i < servers; ++i)
            windows[i] = sims[i].harvestWindow();
        benchmark::DoNotOptimize(ServerFarm::mergeWindows(windows));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(servers));
}
BENCHMARK(BM_CloseFarmEpoch);

/** Sweep-grid expansion cost in the experiment layer (pure API
 * overhead: a 10 x 10 x 10 grid of specs, no simulation). */
void
BM_ExperimentGridExpansion(benchmark::State &state)
{
    const ScenarioSpec base = ScenarioBuilder("grid")
                                  .workload("dns")
                                  .flatTrace(0.1, 30)
                                  .build();
    std::vector<unsigned> epochs;
    std::vector<double> alphas;
    SweepAxis seeds = customAxis("seed", {});
    for (unsigned i = 1; i <= 10; ++i) {
        epochs.push_back(i);
        alphas.push_back(0.05 * i);
        seeds.points.emplace_back(
            std::to_string(i),
            [i](ScenarioSpec &spec) { spec.seed = i; });
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            expandGrid(base, {sweepEpochMinutes(epochs),
                              sweepOverProvision(alphas), seeds}));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_ExperimentGridExpansion);

/** One fixed-policy scenario end-to-end through the unified entry
 * point (trace synthesis + job generation + epoch loop), the per-
 * scenario cost a sweep pays beyond the policy search itself. */
void
BM_ExperimentScenarioFixedPolicy(benchmark::State &state)
{
    const ScenarioSpec spec = ScenarioBuilder("r2h day")
                                  .workload("dns")
                                  .flatTrace(0.1, 20)
                                  .strategy("R2H(C6)")
                                  .predictor("NP")
                                  .seed(4242)
                                  .build();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ExperimentRunner::runScenario(spec));
    }
}
BENCHMARK(BM_ExperimentScenarioFixedPolicy);

} // namespace
