#include "core/runtime.hh"

#include <algorithm>

#include "core/decision_slot.hh"
#include "util/error.hh"
#include "util/monotonic_clock.hh"

namespace sleepscale {

namespace {

constexpr double secondsPerMinute = 60.0;

} // namespace

bool
windowWithinBudget(const QosConstraint &qos, const SimStats &stats)
{
    return stats.completions > 0 && qos.satisfiedBy(stats);
}

std::array<double, numLowPowerStates>
RuntimeResult::stateSelectionFractions() const
{
    std::array<double, numLowPowerStates> fractions{};
    std::size_t decided = 0;
    for (const EpochReport &epoch : epochs) {
        if (!epoch.decided)
            continue;
        ++decided;
        ++fractions[depthIndex(epoch.policy.plan.deepest())];
    }
    if (decided == 0)
        return fractions;
    for (double &fraction : fractions)
        fraction /= static_cast<double>(decided);
    return fractions;
}

SleepScaleRuntime::SleepScaleRuntime(const PlatformModel &platform,
                                     const WorkloadSpec &spec,
                                     RuntimeConfig config)
    : _platform(platform), _spec(spec), _config(std::move(config)),
      _qos(deriveQos(_config, spec))
{
    validateRuntimeConfig(_config, "SleepScaleRuntime");
    _decider = makeEpochDecider(_platform, _spec, _config, _qos);
}

RuntimeResult
SleepScaleRuntime::run(const std::vector<Job> &jobs,
                       const UtilizationTrace &trace,
                       UtilizationPredictor &predictor) const
{
    VectorSource source = VectorSource::view(jobs);
    return run(source, trace, predictor);
}

RuntimeResult
SleepScaleRuntime::run(JobSource &source, const UtilizationTrace &trace,
                       UtilizationPredictor &predictor) const
{
    fatalIf(trace.empty(), "SleepScaleRuntime::run: empty trace");

    const std::size_t minutes = trace.size();
    const unsigned epoch_len = _config.epochMinutes;

    ServerSim sim(_platform, _spec.scaling, _config.initialPolicy);
    DecisionSlot slot(_config, _qos, _decider.get());

    RuntimeResult result;
    result.qos = _qos;
    result.total.windowStart = 0.0;

    // One-job lookahead over the stream: the only jobs ever held are
    // the pending one and the slot's bounded log — O(epoch + history)
    // memory however long the run.
    Job pending;
    bool has_pending = source.next(pending);

    for (std::size_t minute = 0; minute < minutes; ++minute) {
        const double t = static_cast<double>(minute) * secondsPerMinute;

        if (minute % epoch_len == 0) {
            // ---- Epoch boundary ----
            sim.advanceTo(t);
            if (minute > 0) {
                slot.close(sim.harvestWindow());
                result.epochs.push_back(slot.report());
            }
            const double predicted =
                std::clamp(predictor.predict(minute), 0.0, 1.0);
            const double decide_start =
                _config.recordDecisionTime ? monotonicMicros() : 0.0;
            const bool decided = slot.decide(predicted);
            sim.setPolicy(slot.begin(result.epochs.size(), t, predicted),
                          t);
            if (_config.recordDecisionTime && decided)
                slot.report().decisionMicros =
                    monotonicMicros() - decide_start;
        }

        // ---- Run the minute ----
        const double minute_end = t + secondsPerMinute;
        double minute_demand = 0.0;
        while (has_pending && pending.arrival < minute_end) {
            sim.offerJob(pending);
            slot.logJob(pending);
            slot.addDemand(pending.size, 1);
            minute_demand += pending.size;
            has_pending = source.next(pending);
        }
        sim.advanceTo(minute_end);

        const double observed =
            std::clamp(minute_demand / secondsPerMinute, 0.0, 1.0);
        predictor.observe(minute, observed);
    }

    // ---- Drain: let the backlog complete so every response counts ----
    const double horizon =
        std::max(trace.duration(), sim.nextFreeTime());
    sim.advanceTo(horizon);
    slot.close(sim.harvestWindow());
    result.epochs.push_back(slot.report());

    for (const EpochReport &report : result.epochs)
        result.total.merge(report.stats);
    return result;
}

CsvTable
epochsToCsv(const RuntimeResult &result)
{
    CsvTable table;
    table.headers = {"epoch",     "start_s",    "predicted_util",
                     "measured_util", "frequency", "state_depth",
                     "boosted",   "feasible",   "degraded",
                     "mean_response_s", "p95_response_s",
                     "avg_power_w", "completions"};
    for (const EpochReport &epoch : result.epochs) {
        table.addRow({static_cast<double>(epoch.index), epoch.startTime,
                      epoch.predictedUtilization,
                      epoch.measuredUtilization, epoch.policy.frequency,
                      static_cast<double>(
                          depthIndex(epoch.policy.plan.deepest())),
                      epoch.boosted ? 1.0 : 0.0,
                      epoch.feasible ? 1.0 : 0.0,
                      epoch.degraded ? 1.0 : 0.0,
                      epoch.stats.meanResponse(),
                      epoch.stats.responsePercentile(95.0),
                      epoch.stats.avgPower(),
                      static_cast<double>(epoch.stats.completions)});
    }
    return table;
}

} // namespace sleepscale
