#include "experiment/runner.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "analytic/offline_opt.hh"
#include "core/predictor.hh"
#include "core/runtime.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "multicore/multicore_sim.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

namespace {

std::string
formatDouble(double value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

StrategyKnobs
knobsOf(const ScenarioSpec &spec)
{
    StrategyKnobs knobs;
    knobs.epochMinutes = spec.epochMinutes;
    knobs.overProvision = spec.overProvision;
    knobs.rhoB = spec.rhoB;
    knobs.qosMetric = spec.qosMetric;
    knobs.searchThreads = spec.searchThreads;
    knobs.prunedSearch = spec.prunedSearch;
    knobs.controllerProcessNoise = spec.controllerProcessNoise;
    knobs.controllerMeasurementNoise = spec.controllerMeasurementNoise;
    knobs.controllerPole = spec.controllerPole;
    knobs.controllerPeriodEpochs = spec.controllerPeriod;
    return knobs;
}

/**
 * Per-epoch decision-cost extras (recordDecisionTime() scenarios
 * only, so timing-free runs keep their schema). The mean and p99 are
 * taken over decided epochs; an all-undecided run reports zeros.
 */
void
addDecisionExtras(ScenarioResult &result,
                  const std::vector<EpochReport> &epochs)
{
    std::vector<double> samples;
    samples.reserve(epochs.size());
    for (const EpochReport &epoch : epochs) {
        if (epoch.decided)
            samples.push_back(epoch.decisionMicros);
    }
    double mean = 0.0;
    double p99 = 0.0;
    if (!samples.empty()) {
        for (double sample : samples)
            mean += sample;
        mean /= static_cast<double>(samples.size());
        std::sort(samples.begin(), samples.end());
        const std::size_t index = static_cast<std::size_t>(
            std::ceil(0.99 * static_cast<double>(samples.size())));
        p99 = samples[std::min(index == 0 ? 0 : index - 1,
                               samples.size() - 1)];
    }
    result.extras.emplace_back("decision_us_mean", mean);
    result.extras.emplace_back("decision_us_p99", p99);
}

WorkloadSpec
workloadOf(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    return spec.idealizedWorkload ? workload.idealized() : workload;
}

/**
 * Per-state idle-residency fractions as extras (single-server and
 * farm engines; the multicore engine reports package-level
 * s3_residency instead). Every state is emitted (zeros included) so
 * the metric schema is identical across replications — the
 * replication layer summarizes the extras shared by every
 * replication.
 */
void
addResidencyExtras(ScenarioResult &result, const SimStats &total)
{
    const double elapsed = total.elapsed();
    for (std::size_t i = 0; i < numLowPowerStates; ++i) {
        result.extras.emplace_back(
            "residency_" + toString(allLowPowerStates[i]),
            elapsed > 0.0 ? total.idleResidency[i] / elapsed : 0.0);
    }
}

/**
 * Build the scenario's job source. Engines pull from it epoch by
 * epoch — the stream is never materialized.
 *
 * @param rate_scale Engine-imposed arrival-rate multiplier (the farm
 *        aggregates farm-size times the per-server trace load).
 */
std::unique_ptr<JobSource>
sourceOf(const ScenarioSpec &spec, const WorkloadSpec &workload,
         const UtilizationTrace &trace, double rate_scale)
{
    JobSourceConfig config;
    config.workload = workload;
    config.trace = trace;
    config.utilization = spec.sourceUtilization;
    config.rateScale = spec.sourceRateScale * rate_scale;
    config.burstRateFactor = spec.burstRateFactor;
    config.burstMeanLength = spec.burstMeanLength;
    config.burstMeanGap = spec.burstMeanGap;
    config.replayPath = spec.replayPath;
    config.seed = spec.seed;
    return makeJobSource(spec.source, config);
}

ScenarioResult
runSingleServer(const ScenarioSpec &spec)
{
    const PlatformModel platform = platformByName(spec.platform);
    const WorkloadSpec workload = workloadOf(spec);
    const UtilizationTrace trace = spec.trace.realize();

    RuntimeConfig config =
        strategyConfigByName(spec.strategy, knobsOf(spec));
    config.recordDecisionTime = spec.recordDecisionTime;
    const SleepScaleRuntime runtime(platform, workload, config);

    const auto source = sourceOf(spec, workload, trace, 1.0);
    const auto predictor = makePredictor(spec.predictor,
                                         spec.predictorHistory,
                                         trace.values());
    const RuntimeResult run = runtime.run(*source, trace, *predictor);

    ScenarioResult result;
    result.spec = spec;
    result.meanResponse = run.meanResponse();
    result.normalizedMean = run.meanResponse() / workload.serviceMean;
    result.p95Response = run.p95Response();
    result.p99Response = run.total.responsePercentile(99.0);
    result.avgPower = run.avgPower();
    result.energy = run.total.energy;
    result.elapsed = run.total.elapsed();
    result.jobs = run.total.arrivals;
    result.withinBudget = run.withinBudget();
    result.extras.emplace_back("epochs",
                               static_cast<double>(run.epochs.size()));
    addResidencyExtras(result, run.total);
    const auto fractions = run.stateSelectionFractions();
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        if (fractions[i] > 0.0)
            result.extras.emplace_back(
                "state_" + toString(allLowPowerStates[i]), fractions[i]);
    }
    if (spec.recordDecisionTime)
        addDecisionExtras(result, run.epochs);
    if (spec.reportRegret) {
        // Re-materialize the exact job log the runtime consumed (same
        // source, same seed, same arrival cutoff) and hand it to the
        // offline oracle with the run's accounting horizon, so the
        // regret compares identical books (docs/OFFLINE_OPT.md).
        const auto replay = sourceOf(spec, workload, trace, 1.0);
        std::vector<Job> log;
        Job job;
        while (replay->next(job) && job.arrival < trace.duration())
            log.push_back(job);
        OfflineOptOptions options;
        options.epsilon = spec.optEpsilon;
        const OfflineOptimal oracle(platform, workload.scaling, options);
        const OfflineOptResult opt = oracle.solve(
            OfflineOptInstance::fromJobs(std::move(log),
                                         run.total.elapsed()));
        result.extras.emplace_back("offline_opt_energy", opt.energy);
        result.extras.emplace_back(
            "regret_pct",
            opt.energy > 0.0
                ? 100.0 * (run.total.energy / opt.energy - 1.0)
                : 0.0);
    }
    if (spec.captureEpochs)
        result.epochs = epochsToCsv(run);
    return result;
}

ScenarioResult
runFarm(const ScenarioSpec &spec)
{
    const PlatformModel platform = platformByName(spec.platform);
    const WorkloadSpec workload = workloadOf(spec);
    const UtilizationTrace trace = spec.trace.realize();

    FarmRuntimeConfig config;
    config.farmSize = spec.farmSize;
    config.dispatcher = spec.dispatcher;
    config.packingSpillBacklog = spec.packingSpillBacklog;
    config.control = spec.farmControl;
    config.platforms = spec.farmPlatforms;
    config.decisionThreads = spec.decisionThreads;
    config.shards = spec.farmShards;
    config.tailHistograms = spec.tailHistograms;
    // Decorrelated from the job-generation stream, which uses the raw
    // seed: identical seeds would put both generators in lock-step.
    config.dispatchSeed = mixSeed(spec.seed);
    config.faults = spec.faults;
    config.mtbf = spec.mtbf;
    config.mttr = spec.mttr;
    config.retryBackoff = spec.retryBackoff;
    config.dropTimeout = spec.dropTimeout;
    // A third decorrelated stream: the fault schedule must not move
    // when job or dispatch randomness does (and replication seeds flow
    // through spec.seed, so paired fault/no-fault comparisons share
    // schedules per replication).
    config.faultSeed = mixSeed(config.dispatchSeed);
    config.perServer = strategyConfigByName(spec.strategy, knobsOf(spec));
    config.perServer.recordDecisionTime = spec.recordDecisionTime;
    const FarmRuntime runtime(platform, workload, config);

    // The farm sees farm-size times the per-server trace load; replay
    // logs are taken literally (their recorded stream IS the aggregate).
    const double aggregate_scale =
        spec.source == "replay"
            ? 1.0
            : static_cast<double>(spec.farmSize);
    const auto source = sourceOf(spec, workload, trace, aggregate_scale);
    const auto predictor = makePredictor(spec.predictor,
                                         spec.predictorHistory,
                                         trace.values());
    const FarmRuntimeResult run =
        runtime.run(*source, trace, *predictor);

    ScenarioResult result;
    result.spec = spec;
    result.meanResponse = run.meanResponse();
    result.normalizedMean = run.meanResponse() / workload.serviceMean;
    result.p95Response = run.total.responsePercentile(95.0);
    result.p99Response = run.total.responsePercentile(99.0);
    result.avgPower = run.avgPower();
    result.energy = run.total.energy;
    result.elapsed = run.total.elapsed();
    result.jobs = run.total.arrivals;
    result.withinBudget = run.withinBudget();
    result.extras.emplace_back(
        "per_server_w",
        run.avgPower() / static_cast<double>(spec.farmSize));
    // Availability-plane metrics, emitted unconditionally (zeros and
    // all) so fault and no-fault result rows share one schema and
    // replication can compute per-metric CIs and paired deltas.
    result.extras.emplace_back("availability",
                               run.faults.availability(spec.farmSize));
    result.extras.emplace_back("goodput", run.faults.goodput());
    result.extras.emplace_back(
        "dropped_jobs", static_cast<double>(run.faults.dropped));
    result.extras.emplace_back(
        "retries", static_cast<double>(run.faults.retries));
    result.extras.emplace_back("degraded_s",
                               run.faults.degradedSeconds);
    result.extras.emplace_back("down_s", run.faults.downSeconds);
    addResidencyExtras(result, run.total);
    // The merged epochs carry slot 0's decisionMicros, which times the
    // whole decision fan-out — under per-server control the farm-scale
    // decision cost, not one server's.
    if (spec.recordDecisionTime)
        addDecisionExtras(result, run.epochs);
    result.jobsPerServer = run.jobsPerServer;
    result.servers.reserve(run.servers.size());
    for (const FarmServerReport &server : run.servers) {
        ServerResultSummary summary;
        summary.platform = server.platform;
        summary.meanResponse = server.meanResponse();
        summary.avgPower = server.avgPower();
        summary.energy = server.total.energy;
        summary.jobs = server.jobsRouted;
        summary.withinBudget = server.withinBudget;
        result.servers.push_back(std::move(summary));
    }
    return result;
}

ScenarioResult
runMulticore(const ScenarioSpec &spec)
{
    const PlatformModel platform = platformByName(spec.platform);
    const WorkloadSpec workload = workloadOf(spec);

    // The package sees cores-times one core's load with the workload's
    // gap shape; utilities capped to (0, 1) don't apply here, so the
    // arrival distribution is fitted directly.
    const double total_load =
        spec.rho * static_cast<double>(spec.cores);
    auto gaps = fitDistribution(workload.serviceMean / total_load,
                                workload.interArrivalCv);
    StationarySource source(std::move(gaps), workload.makeService(),
                            spec.seed);

    MulticorePolicy policy;
    policy.frequency = spec.frequency;
    policy.corePlan = SleepPlan::immediate(spec.coreState);
    policy.packageSleepDelay = spec.packageSleepDelay;
    const MulticoreStats stats =
        evaluateMulticorePolicy(platform, workload.scaling, spec.cores,
                                policy, source, spec.jobCount);

    ScenarioResult result;
    result.spec = spec;
    result.meanResponse = stats.response.mean();
    result.normalizedMean =
        stats.response.mean() / workload.serviceMean;
    result.p95Response = stats.responseHistogram.percentile(95.0);
    result.p99Response = stats.responseHistogram.percentile(99.0);
    result.avgPower = stats.avgPower();
    result.energy = stats.energy;
    result.elapsed = stats.elapsed;
    result.jobs = stats.completions;

    const QosConstraint qos =
        spec.qosMetric == QosMetric::MeanResponse
            ? QosConstraint::fromBaselineMean(spec.rhoB,
                                              workload.serviceMean)
            : QosConstraint::fromBaselineTail(spec.rhoB,
                                              workload.serviceMean);
    result.withinBudget =
        (spec.qosMetric == QosMetric::MeanResponse
             ? result.meanResponse
             : result.p95Response) <= qos.budget();

    result.extras.emplace_back(
        "s3_residency",
        stats.elapsed > 0.0 ? stats.packageS3Time / stats.elapsed : 0.0);
    result.extras.emplace_back(
        "package_wakes", static_cast<double>(stats.packageWakes));
    return result;
}

} // namespace

double
ScenarioResult::extra(const std::string &key) const
{
    for (const auto &entry : extras) {
        if (entry.first == key)
            return entry.second;
    }
    fatal("ScenarioResult '" + spec.label + "': no extra metric '" + key +
          "'");
}

SweepAxis
sweepEpochMinutes(const std::vector<unsigned> &values)
{
    SweepAxis axis{"T", {}};
    for (unsigned value : values) {
        axis.points.emplace_back(
            std::to_string(value),
            [value](ScenarioSpec &spec) { spec.epochMinutes = value; });
    }
    return axis;
}

SweepAxis
sweepPredictors(const std::vector<std::string> &names)
{
    SweepAxis axis{"predictor", {}};
    for (const std::string &name : names) {
        axis.points.emplace_back(
            name, [name](ScenarioSpec &spec) { spec.predictor = name; });
    }
    return axis;
}

SweepAxis
sweepStrategies(const std::vector<std::string> &names)
{
    SweepAxis axis{"strategy", {}};
    for (const std::string &name : names) {
        axis.points.emplace_back(
            name, [name](ScenarioSpec &spec) { spec.strategy = name; });
    }
    return axis;
}

SweepAxis
sweepDispatchers(const std::vector<std::string> &names)
{
    SweepAxis axis{"dispatcher", {}};
    for (const std::string &name : names) {
        axis.points.emplace_back(
            name, [name](ScenarioSpec &spec) { spec.dispatcher = name; });
    }
    return axis;
}

SweepAxis
sweepFarmSizes(const std::vector<std::size_t> &sizes)
{
    SweepAxis axis{"servers", {}};
    for (std::size_t size : sizes) {
        axis.points.emplace_back(
            std::to_string(size),
            [size](ScenarioSpec &spec) { spec.farmSize = size; });
    }
    return axis;
}

SweepAxis
sweepFarmControls(const std::vector<std::string> &modes)
{
    SweepAxis axis{"control", {}};
    for (const std::string &mode : modes) {
        axis.points.emplace_back(
            mode, [mode](ScenarioSpec &spec) { spec.farmControl = mode; });
    }
    return axis;
}

SweepAxis
sweepOverProvision(const std::vector<double> &alphas)
{
    SweepAxis axis{"alpha", {}};
    for (double alpha : alphas) {
        axis.points.emplace_back(
            formatDouble(alpha),
            [alpha](ScenarioSpec &spec) { spec.overProvision = alpha; });
    }
    return axis;
}

SweepAxis
sweepQosMetrics(const std::vector<QosMetric> &metrics)
{
    SweepAxis axis{"metric", {}};
    for (QosMetric metric : metrics) {
        axis.points.emplace_back(
            toString(metric),
            [metric](ScenarioSpec &spec) { spec.qosMetric = metric; });
    }
    return axis;
}

SweepAxis
sweepPackageSleepDelays(const std::vector<double> &delays)
{
    SweepAxis axis{"pkg_delay", {}};
    for (double delay : delays) {
        axis.points.emplace_back(
            std::isfinite(delay) ? formatDouble(delay) : "inf",
            [delay](ScenarioSpec &spec) {
                spec.packageSleepDelay = delay;
            });
    }
    return axis;
}

SweepAxis
sweepCores(const std::vector<std::size_t> &counts)
{
    SweepAxis axis{"cores", {}};
    for (std::size_t count : counts) {
        axis.points.emplace_back(
            std::to_string(count),
            [count](ScenarioSpec &spec) { spec.cores = count; });
    }
    return axis;
}

SweepAxis
customAxis(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(ScenarioSpec &)>>>
        points)
{
    return SweepAxis{std::move(name), std::move(points)};
}

std::vector<ScenarioSpec>
expandGrid(const ScenarioSpec &base, const std::vector<SweepAxis> &axes,
           bool reseed_per_scenario)
{
    for (const SweepAxis &axis : axes)
        fatalIf(axis.points.empty(),
                "expandGrid: sweep axis '" + axis.name + "' is empty");

    std::vector<ScenarioSpec> grid{base};
    for (const SweepAxis &axis : axes) {
        std::vector<ScenarioSpec> next;
        next.reserve(grid.size() * axis.points.size());
        for (const ScenarioSpec &spec : grid) {
            for (const auto &[value, apply] : axis.points) {
                ScenarioSpec expanded = spec;
                apply(expanded);
                expanded.label += (expanded.label.empty() ? "" : " ") +
                                  axis.name + "=" + value;
                next.push_back(std::move(expanded));
            }
        }
        grid = std::move(next);
    }
    if (reseed_per_scenario) {
        for (std::size_t i = 0; i < grid.size(); ++i)
            grid[i].seed = mixSeed(base.seed + i);
    }
    return grid;
}

ExperimentRunner::ExperimentRunner(std::size_t threads)
    : _threads(threads)
{
    if (_threads == 0)
        _threads = ThreadPool::hardwareLanes();
}

ExperimentRunner &
ExperimentRunner::add(ScenarioSpec spec)
{
    spec.validate();
    _scenarios.push_back(std::move(spec));
    return *this;
}

ExperimentRunner &
ExperimentRunner::addGrid(const ScenarioSpec &base,
                          const std::vector<SweepAxis> &axes,
                          bool reseed_per_scenario)
{
    for (ScenarioSpec &spec : expandGrid(base, axes, reseed_per_scenario))
        add(std::move(spec));
    return *this;
}

ScenarioResult
ExperimentRunner::runScenario(const ScenarioSpec &spec)
{
    spec.validate();
    switch (spec.engine) {
      case EngineKind::SingleServer:
        return runSingleServer(spec);
      case EngineKind::Farm:
        return runFarm(spec);
      case EngineKind::Multicore:
        return runMulticore(spec);
    }
    panic("ExperimentRunner: unknown EngineKind");
}

std::vector<ScenarioResult>
ExperimentRunner::run() const
{
    std::vector<ScenarioResult> results(_scenarios.size());
    if (_scenarios.empty())
        return results;

    // Results land by scenario index, so any pool width bit-matches a
    // sequential run; the pool propagates the first failure.
    ThreadPool pool(std::min(_threads, _scenarios.size()));
    pool.parallelFor(_scenarios.size(),
                     [&](std::size_t i, std::size_t) {
                         results[i] = runScenario(_scenarios[i]);
                     });
    return results;
}

TablePrinter
resultsTable(const std::vector<ScenarioResult> &results)
{
    TablePrinter table({"scenario", "engine", "mu*E[R]", "p95 (svc)",
                        "E[P] [W]", "within budget?"});
    for (const ScenarioResult &result : results) {
        const double service_mean =
            result.meanResponse > 0.0 && result.normalizedMean > 0.0
                ? result.meanResponse / result.normalizedMean
                : 1.0;
        table.addRow({result.spec.label, toString(result.spec.engine),
                      std::to_string(result.normalizedMean),
                      std::to_string(result.p95Response / service_mean),
                      std::to_string(result.avgPower),
                      result.withinBudget ? "yes" : "no"});
    }
    return table;
}

TablePrinter
serversTable(const ScenarioResult &result)
{
    fatalIf(result.servers.empty(),
            "serversTable: scenario '" + result.spec.label +
                "' has no per-server results (farm engine only)");
    TablePrinter table({"server", "platform", "jobs", "E[R] [s]",
                        "E[P] [W]", "within budget?"});
    for (std::size_t i = 0; i < result.servers.size(); ++i) {
        const ServerResultSummary &server = result.servers[i];
        std::ostringstream response, power;
        response.precision(6);
        response << server.meanResponse;
        power.precision(6);
        power << server.avgPower;
        table.addRow({std::to_string(i), server.platform,
                      std::to_string(server.jobs), response.str(),
                      power.str(),
                      server.withinBudget ? "yes" : "no"});
    }
    return table;
}

std::string
resultsToCsvString(const std::vector<ScenarioResult> &results)
{
    // The union of extra keys, in first-seen order, pads the schema so
    // mixed-engine result sets still export one rectangular table.
    std::vector<std::string> extra_keys;
    for (const ScenarioResult &result : results) {
        for (const auto &entry : result.extras) {
            bool known = false;
            for (const std::string &key : extra_keys)
                known = known || key == entry.first;
            if (!known)
                extra_keys.push_back(entry.first);
        }
    }

    std::ostringstream out;
    out << "label,engine,workload,trace,strategy,predictor,seed,"
           "mean_response_s,normalized_mean,p95_response_s,"
           "p99_response_s,avg_power_w,energy_j,elapsed_s,jobs,"
           "within_budget";
    for (const std::string &key : extra_keys)
        out << ',' << key;
    out << '\n';

    for (const ScenarioResult &result : results) {
        const ScenarioSpec &spec = result.spec;
        out << csvQuote(spec.label) << ',' << toString(spec.engine)
            << ',' << spec.workload << ','
            << csvQuote(spec.trace.label()) << ','
            << csvQuote(spec.strategy) << ',' << spec.predictor << ','
            << spec.seed << ',' << result.meanResponse << ','
            << result.normalizedMean << ',' << result.p95Response << ','
            << result.p99Response << ','
            << result.avgPower << ',' << result.energy << ','
            << result.elapsed << ',' << result.jobs << ','
            << (result.withinBudget ? 1 : 0);
        for (const std::string &key : extra_keys) {
            out << ',';
            for (const auto &entry : result.extras) {
                if (entry.first == key) {
                    out << entry.second;
                    break;
                }
            }
        }
        out << '\n';
    }
    return out.str();
}

void
writeResultsCsv(const std::string &path,
                const std::vector<ScenarioResult> &results)
{
    std::ofstream file(path);
    fatalIf(!file, "writeResultsCsv: cannot open '" + path + "'");
    file << resultsToCsvString(results);
    fatalIf(!file.good(), "writeResultsCsv: write to '" + path +
                              "' failed");
}

} // namespace sleepscale
