#include "workloads.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "analytic/offline_opt.hh"
#include "core/predictor.hh"
#include "core/runtime.hh"
#include "core/strategies.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/error.hh"
#include "util/rng.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace perfbench {

using namespace sleepscale;

namespace {

/** The es trace seed of the paper's Table 5 runs; fixed per workload. */
constexpr std::uint64_t kTraceSeed = 20140614;

/** Independent oracle instances per oracle_slice repeat. */
constexpr std::uint64_t kOracleInstances = 16;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** A double as C99 hexfloat text (exact). */
std::string
hexfloat(double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%a", value);
    return text;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 0x100000001b3ull;
    }
}

void
hashEpochs(std::uint64_t &hash, const std::vector<EpochReport> &epochs)
{
    for (const EpochReport &epoch : epochs) {
        fnvMix(hash, doubleBits(epoch.policy.frequency));
        for (const SleepStage &stage : epoch.policy.plan.stages()) {
            fnvMix(hash, static_cast<std::uint64_t>(stage.state));
            fnvMix(hash, doubleBits(stage.enterAfter));
        }
        fnvMix(hash, (epoch.decided ? 1u : 0u) | (epoch.degraded ? 2u : 0u));
    }
}

void
decisionSamples(SpecRun &out, const std::vector<EpochReport> &epochs)
{
    for (const EpochReport &epoch : epochs) {
        if (epoch.decided)
            out.decisionMicros.push_back(epoch.decisionMicros);
    }
}

// The helpers below mirror src/experiment/runner.cc, so a direct run
// executes exactly what runScenario() executes for the same spec.

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

WorkloadSpec
workloadOf(const ScenarioSpec &spec)
{
    const WorkloadSpec workload = workloadByName(spec.workload);
    return spec.idealizedWorkload ? workload.idealized() : workload;
}

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

FarmRuntimeConfig
farmConfigOf(const ScenarioSpec &spec)
{
    FarmRuntimeConfig config;
    config.farmSize = spec.farmSize;
    config.dispatcher = spec.dispatcher;
    config.packingSpillBacklog = spec.packingSpillBacklog;
    config.control = spec.farmControl;
    config.platforms = spec.farmPlatforms;
    config.decisionThreads = spec.decisionThreads;
    config.shards = spec.farmShards;
    config.tailHistograms = spec.tailHistograms;
    config.dispatchSeed = mixSeed(spec.seed);
    config.faults = spec.faults;
    config.mtbf = spec.mtbf;
    config.mttr = spec.mttr;
    config.retryBackoff = spec.retryBackoff;
    config.dropTimeout = spec.dropTimeout;
    config.faultSeed = mixSeed(config.dispatchSeed);
    config.perServer = strategyConfigByName(spec.strategy, knobsOf(spec));
    config.perServer.recordDecisionTime = spec.recordDecisionTime;
    return config;
}

/** Everything a scenario needs before its first job. */
struct Prepared
{
    explicit Prepared(const ScenarioSpec &spec)
        : platform(platformByName(spec.platform)),
          workload(workloadOf(spec))
    {
    }

    PlatformModel platform;
    WorkloadSpec workload;
    UtilizationTrace trace;
    std::unique_ptr<SleepScaleRuntime> single;
    std::unique_ptr<FarmRuntime> farm;
    std::unique_ptr<JobSource> source;
    std::unique_ptr<UtilizationPredictor> predictor;
    std::vector<Job> oracleLog;
    std::unique_ptr<OfflineOptimal> oracle;
};

std::unique_ptr<Prepared>
prepare(const ScenarioSpec &spec, SpecRun &out)
{
    auto start = std::chrono::steady_clock::now();
    UtilizationTrace trace = spec.trace.realize();
    out.traceSeconds = secondsSince(start);

    start = std::chrono::steady_clock::now();
    auto p = std::make_unique<Prepared>(spec);
    p->trace = std::move(trace);
    double rate_scale = 1.0;
    if (spec.engine == EngineKind::Farm) {
        p->farm = std::make_unique<FarmRuntime>(p->platform, p->workload,
                                                farmConfigOf(spec));
        if (spec.source != "replay")
            rate_scale = static_cast<double>(spec.farmSize);
    } else {
        RuntimeConfig config =
            strategyConfigByName(spec.strategy, knobsOf(spec));
        config.recordDecisionTime = spec.recordDecisionTime;
        p->single = std::make_unique<SleepScaleRuntime>(
            p->platform, p->workload, config);
    }
    p->source = sourceOf(spec, p->workload, p->trace, rate_scale);
    p->predictor = makePredictor(spec.predictor, spec.predictorHistory,
                                 p->trace.values());
    if (spec.reportRegret) {
        // The exact job log the runtime will consume (same source, same
        // seed, same arrival cutoff), as runScenario() builds it.
        const auto replay = sourceOf(spec, p->workload, p->trace, 1.0);
        Job job;
        while (replay->next(job) && job.arrival < p->trace.duration())
            p->oracleLog.push_back(job);
        OfflineOptOptions options;
        options.epsilon = spec.optEpsilon;
        p->oracle = std::make_unique<OfflineOptimal>(
            p->platform, p->workload.scaling, options);
    }
    out.ctorSeconds = secondsSince(start);
    return p;
}

void
fillTotals(SpecRun &out, const SimStats &total, const QosConstraint &qos)
{
    out.jobs = total.arrivals;
    out.completions = total.completions;
    out.energy = total.energy;
    out.responseSum = total.response.sum();
    out.meanResponse = total.meanResponse();
    out.qosRatio = qos.measuredValue(total) / qos.budget();
    out.withinBudget = qos.satisfiedBy(total);
}

std::uint64_t
farmHashOf(const std::vector<std::pair<double, std::uint64_t>> &servers)
{
    std::uint64_t hash = kFnvOffset;
    for (const auto &[energy, jobs] : servers) {
        fnvMix(hash, doubleBits(energy));
        fnvMix(hash, jobs);
    }
    return hash;
}

/** The farms run the es trace's quietest hour (5AM-6AM, utilization
 * 0.12), so one repeat takes one to two seconds and a run holds
 * several; the busy hour takes 13 s per repeat at 1,000 servers. */
ScenarioBuilder
farmBase(const std::string &label, std::uint64_t seed)
{
    ScenarioBuilder builder(label);
    builder.engine(EngineKind::Farm)
        .workload("dns")
        .trace("es")
        .traceDays(1)
        .traceSeed(kTraceSeed)
        .window(5, 6)
        .dispatcher("JSQ")
        .epochMinutes(5)
        .predictor("LC")
        .searchThreads(1)
        .decisionThreads(1)
        .farmShards(1)
        .recordDecisionTime()
        .seed(seed);
    return builder;
}

ScenarioBuilder
singleBase(const std::string &label, const std::string &workload,
           std::uint64_t seed)
{
    ScenarioBuilder builder(label);
    builder.workload(workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(kTraceSeed)
        .strategy("SS")
        .epochMinutes(5)
        .predictor("LC")
        .searchThreads(1)
        .decisionThreads(1)
        .recordDecisionTime()
        .seed(seed);
    return builder;
}

} // namespace

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "farm_healthy", "farm_churn", "server_table5", "oracle_slice"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload workload{name, {}};
    if (name == "farm_healthy") {
        workload.specs.push_back(farmBase(name, seed)
                                     .farmSize(1000)
                                     .farmControl("farm-wide")
                                     // Farm QoS bounds the mean, which
                                     // needs no histograms; without them
                                     // peak memory is 7 MB, not 56 MB.
                                     .tailHistograms(false)
                                     .strategy("SS")
                                     .build());
    } else if (name == "farm_churn") {
        workload.specs.push_back(farmBase(name, seed)
                                     .farmSize(128)
                                     .farmControl("per-server")
                                     .strategy("poet")
                                     .faults("mtbf")
                                     // Some server is down ~99% of the
                                     // time, so nearly every arrival
                                     // takes the failover path.
                                     .faultRates(2.0 * 3600.0, 300.0)
                                     .build());
    } else if (name == "server_table5") {
        for (const char *trace : {"dns", "mail", "google"})
            workload.specs.push_back(
                singleBase(name + " " + trace, trace, seed).build());
    } else if (name == "oracle_slice") {
        // The oracle's solve time is heavy-tailed in the instance (one
        // 2AM-6AM log takes 2.6 s on one seed and 4.1 s on the next),
        // so one repeat solves many independent one-hour logs, each
        // from its own seed derived from the benchmark seed.
        for (std::uint64_t k = 0; k < kOracleInstances; ++k)
            workload.specs.push_back(
                singleBase(name + " #" + std::to_string(k), "dns",
                           seed * kOracleInstances + k)
                    .window(2, 3)
                    .reportRegret()
                    .optEpsilon(0.05)
                    .build());
    } else {
        std::string known;
        for (const std::string &entry : workloadNames())
            known += (known.empty() ? "" : ", ") + entry;
        fatal("unknown workload '" + name + "' (known: " + known + ")");
    }
    return workload;
}

ScenarioSpec
tracedSpec(const ScenarioSpec &spec)
{
    ScenarioSpec traced = spec;
    traced.source = tracedName(spec.source);
    traced.predictor = tracedName(spec.predictor);
    if (spec.engine == EngineKind::Farm) {
        traced.dispatcher = tracedName(spec.dispatcher);
        if (spec.faults != "none")
            traced.faults = tracedName(spec.faults);
    }
    traced.validate();
    return traced;
}

SpecRun
runDirect(const ScenarioSpec &spec)
{
    SpecRun out;
    const std::unique_ptr<Prepared> prepared = prepare(spec, out);
    Prepared &p = *prepared;

    globalLedger() = Ledger{};
    const auto start = std::chrono::steady_clock::now();
    if (p.farm) {
        const FarmRuntimeResult run =
            p.farm->run(*p.source, p.trace, *p.predictor);
        out.runSeconds = secondsSince(start);
        out.farm = true;
        fillTotals(out, run.total, run.qos);
        out.powerPerServer =
            run.avgPower() / static_cast<double>(spec.farmSize);
        out.faults = run.faults;
        decisionSamples(out, run.epochs);
        out.decisionHash = kFnvOffset;
        if (run.control == "farm-wide") {
            hashEpochs(out.decisionHash, run.epochs);
        } else {
            for (const FarmServerReport &server : run.servers)
                hashEpochs(out.decisionHash, server.epochs);
        }
        std::vector<std::pair<double, std::uint64_t>> servers;
        for (const FarmServerReport &server : run.servers)
            servers.emplace_back(server.total.energy, server.jobsRouted);
        out.farmHash = farmHashOf(servers);
    } else {
        const RuntimeResult run =
            p.single->run(*p.source, p.trace, *p.predictor);
        if (p.oracle) {
            const auto solve_start = std::chrono::steady_clock::now();
            const OfflineOptResult opt =
                p.oracle->solve(OfflineOptInstance::fromJobs(
                    std::move(p.oracleLog), run.total.elapsed()));
            out.solveSeconds = secondsSince(solve_start);
            out.oracle = true;
            out.oracleEnergy = opt.energy;
            out.regretPct =
                opt.energy > 0.0
                    ? 100.0 * (run.total.energy / opt.energy - 1.0)
                    : 0.0;
            out.epsilon = opt.epsilon;
            out.epsilonEffective = opt.epsilonEffective;
            out.frontierPeak = opt.frontierPeak;
        }
        out.runSeconds = secondsSince(start);
        fillTotals(out, run.total, run.qos);
        out.powerPerServer = run.avgPower();
        decisionSamples(out, run.epochs);
        out.decisionHash = kFnvOffset;
        hashEpochs(out.decisionHash, run.epochs);
    }
    out.ledger = globalLedger();
    return out;
}

std::string
SpecRun::digest() const
{
    std::ostringstream text;
    text << "energy=" << hexfloat(energy)
         << " response_sum=" << hexfloat(responseSum) << " jobs=" << jobs
         << " completions=" << completions << " dropped=" << faults.dropped
         << " fnv=" << std::hex << decisionHash;
    if (farm)
        text << " servers_fnv=" << farmHash;
    text << std::dec;
    if (oracle)
        text << " oracle_energy=" << hexfloat(oracleEnergy);
    return text.str();
}

std::vector<std::string>
compareWithRunner(const SpecRun &run, const ScenarioResult &reference)
{
    std::vector<std::string> diffs;
    const auto expect = [&diffs](bool same, const std::string &what) {
        if (!same)
            diffs.push_back(what);
    };
    expect(doubleBits(run.energy) == doubleBits(reference.energy),
           "energy " + hexfloat(run.energy) + " vs " +
               hexfloat(reference.energy));
    expect(doubleBits(run.meanResponse) ==
               doubleBits(reference.meanResponse),
           "mean response " + hexfloat(run.meanResponse) + " vs " +
               hexfloat(reference.meanResponse));
    expect(run.jobs == reference.jobs,
           "jobs " + std::to_string(run.jobs) + " vs " +
               std::to_string(reference.jobs));
    expect(run.withinBudget == reference.withinBudget,
           "QoS verdict differs");
    if (run.farm) {
        std::vector<std::pair<double, std::uint64_t>> servers;
        for (const ServerResultSummary &server : reference.servers)
            servers.emplace_back(server.energy, server.jobs);
        expect(run.farmHash == farmHashOf(servers),
               "per-server energy or routing differs");
        expect(doubleBits(static_cast<double>(run.faults.dropped)) ==
                   doubleBits(reference.extra("dropped_jobs")),
               "dropped jobs differ");
    }
    if (run.oracle) {
        expect(doubleBits(run.oracleEnergy) ==
                   doubleBits(reference.extra("offline_opt_energy")),
               "oracle energy " + hexfloat(run.oracleEnergy) + " vs " +
                   hexfloat(reference.extra("offline_opt_energy")));
        expect(doubleBits(run.regretPct) ==
                   doubleBits(reference.extra("regret_pct")),
               "regret_pct differs");
    }
    return diffs;
}

} // namespace perfbench
