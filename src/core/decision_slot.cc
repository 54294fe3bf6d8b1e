#include "core/decision_slot.hh"

#include <algorithm>
#include <utility>

#include "control/controller_manager.hh"
#include "util/error.hh"

namespace sleepscale {

namespace {

constexpr double secondsPerMinute = 60.0;

} // namespace

void
validateRuntimeConfig(const RuntimeConfig &config, const std::string &owner)
{
    fatalIf(config.epochMinutes == 0,
            owner + ": epochMinutes must be positive");
    fatalIf(config.overProvision < 0.0,
            owner + ": overProvision must be >= 0");
    fatalIf(config.evalLogCap < 2,
            owner + ": evalLogCap must be at least 2");
    fatalIf(config.historyEpochs == 0,
            owner + ": historyEpochs must be positive");
}

QosConstraint
deriveQos(QosMetric metric, double rho_b, const WorkloadSpec &spec)
{
    if (metric == QosMetric::MeanResponse)
        return QosConstraint::fromBaselineMean(rho_b, spec.serviceMean);
    return QosConstraint::fromBaselineTail(rho_b, spec.serviceMean);
}

QosConstraint
deriveQos(const RuntimeConfig &config, const WorkloadSpec &spec)
{
    return deriveQos(config.qosMetric, config.rhoB, spec);
}

std::unique_ptr<EpochDecider>
makeEpochDecider(const PlatformModel &platform, const WorkloadSpec &spec,
                 const RuntimeConfig &config, const QosConstraint &qos)
{
    if (config.fixedPolicy)
        return nullptr;
    if (config.controller)
        return std::make_unique<ControllerManager>(
            platform, spec.scaling, config.space, qos, *config.controller,
            config.initialPolicy);
    return std::make_unique<PolicyManager>(platform, spec.scaling,
                                           config.space, qos, config.search);
}

std::vector<Job>
rescaleLog(const std::vector<Job> &history, double predicted)
{
    if (history.size() < 2)
        return {};
    const double span = history.back().arrival - history.front().arrival;
    if (span <= 0.0)
        return {};
    double demand = 0.0;
    for (std::size_t i = 1; i < history.size(); ++i)
        demand += history[i].size;
    const double measured = demand / span;
    if (measured <= 0.0)
        return {};

    const double target = std::clamp(predicted, 0.01, 0.99);
    const double gap_scale = measured / target;
    std::vector<Job> log;
    log.reserve(history.size());
    double clock =
        span / static_cast<double>(history.size() - 1) * gap_scale;
    log.push_back({clock, history.front().size});
    for (std::size_t i = 1; i < history.size(); ++i) {
        clock += (history[i].arrival - history[i - 1].arrival) * gap_scale;
        log.push_back({clock, history[i].size});
    }
    return log;
}

DecisionSlot::DecisionSlot(const RuntimeConfig &config,
                           const QosConstraint &qos, EpochDecider *decider,
                           std::size_t members)
    : _config(config), _qos(qos), _decider(decider),
      _windowSeconds(static_cast<double>(config.epochMinutes) *
                     secondsPerMinute * static_cast<double>(members)),
      _keepLog(decider != nullptr && decider->needsLog())
{
    _observation.applied = config.initialPolicy;
    _report.policy = config.initialPolicy;
}

void
DecisionSlot::logJob(const Job &job)
{
    ++_logged;
    if (_keepLog)
        _history.push_back(job);
}

void
DecisionSlot::observeDowntime(double down_seconds)
{
    // Downtime with no new jobs leaves a log of pre-outage jobs only,
    // which must not pass for a fresh decision (a log merely warming
    // up, with no downtime, is not starved).
    _starved = down_seconds > _downMark && _logged == _loggedMark;
    _downMark = down_seconds;
    _loggedMark = _logged;
}

void
DecisionSlot::close(const SimStats &window)
{
    _report.stats = window;
    _report.measuredUtilization = _demand / _windowSeconds;

    _observation.measuredUtilization = _report.measuredUtilization;
    _observation.hasMeasurement = window.completions > 0;
    _observation.measuredQos =
        _observation.hasMeasurement ? _qos.measuredValue(window) : 0.0;
    _observation.meanJobSize =
        _jobs > 0 ? _demand / static_cast<double>(_jobs) : 0.0;
    _observation.applied = _report.policy;
    _demand = 0.0;
    _jobs = 0;
    ++_closed;

    if (!_keepLog)
        return;
    // Keep the last historyEpochs epochs, then the most recent
    // evalLogCap jobs, deducting those from the oldest epochs' counts
    // (Section 5.2.1: the recent past suffices, and the cap bounds the
    // cost of a decision).
    _historyCounts.push_back(_history.size() - _closedJobs);
    std::size_t drop = 0;
    for (; _historyCounts.size() > _config.historyEpochs;
         _historyCounts.pop_front())
        drop += _historyCounts.front();
    const std::size_t kept = _history.size() - drop;
    std::size_t excess =
        kept > _config.evalLogCap ? kept - _config.evalLogCap : 0;
    drop += excess;
    while (excess > 0) {
        const std::size_t take = std::min(excess, _historyCounts.front());
        _historyCounts.front() -= take;
        excess -= take;
        if (_historyCounts.front() == 0)
            _historyCounts.pop_front();
    }
    _history.erase(_history.begin(),
                   _history.begin() + static_cast<std::ptrdiff_t>(drop));
    _closedJobs = _history.size();
}

bool
DecisionSlot::decide(double predicted, const Policy *fallback)
{
    _decided = false;
    if (_decider == nullptr)
        return false;
    _observation.predictedUtilization = predicted;
    _observation.faultStarved = _starved;
    // A log-based decider waits for a log it can characterize (or a
    // starved window to degrade on); a log-free one for a closed epoch.
    std::vector<Job> log;
    if (_keepLog && !_starved)
        log = rescaleLog(_history, predicted);
    if (_keepLog ? log.empty() && !_starved : _closed == 0)
        return false;
    if (fallback != nullptr)
        _decision = _decider->decideGuarded(_observation, log, *fallback);
    else
        _decision = {_decider->decide(_observation, log), false};
    _decided = true;
    return true;
}

const Policy &
DecisionSlot::begin(std::size_t index, double start, double predicted)
{
    const bool last_within = windowWithinBudget(_qos, _report.stats);
    Policy policy = std::move(_report.policy);
    _report = EpochReport{};
    _report.index = index;
    _report.startTime = start;
    _report.predictedUtilization = predicted;
    if (_config.fixedPolicy) {
        policy = *_config.fixedPolicy;
        _report.decided = true;
        _report.feasible = true;
    } else if (_decided) {
        policy = _decision.decision.policy;
        _report.decided = true;
        _report.feasible = _decision.decision.feasible;
        _report.degraded = _decision.degraded;
        // Over-provisioning guard band (Section 5.2.3); a degraded
        // epoch runs its fallback as is.
        const double boosted = std::min(
            1.0, policy.frequency * (1.0 + _config.overProvision));
        if (!_report.degraded && last_within &&
            boosted > policy.frequency) {
            policy.frequency = boosted;
            _report.boosted = true;
        }
    }
    _report.policy = policy;
    return _report.policy;
}

} // namespace sleepscale
