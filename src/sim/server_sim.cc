#include "sim/server_sim.hh"

#include <algorithm>
#include <cmath>

#include "util/error.hh"

namespace sleepscale {

PreparedLog
PreparedLog::fromJobs(const std::vector<Job> &jobs)
{
    fatalIf(jobs.empty(), "PreparedLog: need at least one job");
    PreparedLog log;
    log.arrival.reserve(jobs.size());
    log.size.reserve(jobs.size());
    log.cumSize.reserve(jobs.size());
    double cum = 0.0;
    double last_arrival = 0.0;
    for (const Job &job : jobs) {
        fatalIf(job.arrival < last_arrival,
                "PreparedLog: arrivals must be non-decreasing");
        fatalIf(job.arrival < 0.0, "PreparedLog: negative arrival time");
        fatalIf(job.size < 0.0, "PreparedLog: negative job size");
        last_arrival = job.arrival;
        cum += job.size;
        log.arrival.push_back(job.arrival);
        log.size.push_back(job.size);
        log.cumSize.push_back(cum);
    }
    return log;
}

double
PreparedLog::offeredLoad() const
{
    if (count() < 2)
        fatal("PreparedLog: log needs at least two jobs");
    const double span = arrival.back();
    if (span <= 0.0)
        fatal("PreparedLog: log spans no time");
    return totalDemand() / span;
}

ServerSim::ServerSim(const PlatformModel &platform, ServiceScaling scaling,
                     const Policy &initial)
    : _platform(platform), _scaling(scaling), _policy(initial),
      _plan(initial.plan, platform, initial.frequency),
      _activePower(platform.activePower(initial.frequency))
{
}

void
ServerSim::integrateBusy(double from, double to)
{
    const double dt = to - from;
    if (dt <= 0.0)
        return;
    _window.energy += _activePower * dt;
    _window.busyTime += dt;
}

void
ServerSim::integrateIdle(double from, double to)
{
    if (to <= from)
        return;
    // Descent-relative bounds (seconds since the idle start). Energy is
    // a prefix-sum difference; residency still walks the (at most
    // maxStages) stages the interval spans.
    const double start = from - _nextFree;
    const double end = to - _nextFree;
    _window.energy += _plan.idleEnergy(end) - _plan.idleEnergy(start);
    const std::size_t last = _plan.stageAt(end);
    for (std::size_t stage = _plan.stageAt(start); stage <= last;
         ++stage) {
        const double lo = std::max(start, _plan.enterAfter(stage));
        const double hi =
            stage == last ? end
                          : std::min(end, _plan.enterAfter(stage + 1));
        _window.idleResidency[depthIndex(_plan.state(stage))] += hi - lo;
    }
}

void
ServerSim::flushDepartures(double t)
{
    while (!_pending.empty() && _pending.front().depart <= t) {
        const double response = _pending.front().response;
        _pending.pop();
        _window.response.add(response);
        if (_recordTail)
            _window.responseHistogram.add(response);
        ++_window.completions;
    }
}

void
ServerSim::advanceTo(double t)
{
    // Tolerate tiny float regressions from repeated boundary math.
    if (t <= _accountedUntil)
        return;

    if (_accountedUntil < _nextFree) {
        const double busy_end = std::min(t, _nextFree);
        integrateBusy(_accountedUntil, busy_end);
        _accountedUntil = busy_end;
    }
    if (t > _accountedUntil) {
        integrateIdle(std::max(_accountedUntil, _nextFree), t);
        _accountedUntil = t;
    }
    flushDepartures(t);
}

void
ServerSim::offerJob(const Job &job)
{
    fatalIf(job.arrival < _accountedUntil,
            "ServerSim::offerJob: arrivals must be offered in order and "
            "not before already-accounted time");
    fatalIf(job.size < 0.0, "ServerSim::offerJob: negative job size");

    advanceTo(job.arrival);
    ++_window.arrivals;

    double service_start;
    if (job.arrival >= _nextFree) {
        // Idle: the arrival interrupts the descent and triggers wake-up.
        const double elapsed = job.arrival - _nextFree;
        const std::size_t stage = _plan.stageAt(elapsed);
        const double wake = _plan.wakeLatency(stage);
        ++_window.wakeups[depthIndex(_plan.state(stage))];
        _window.wakeTime += wake;
        service_start = job.arrival + wake;
    } else {
        // Busy: FCFS queueing behind committed work.
        service_start = _nextFree;
    }

    const double service =
        job.size * _scaling.factor(_policy.frequency);
    const double depart = service_start + service;
    _pending.push(depart, depart - job.arrival);
    _nextFree = depart;
}

void
ServerSim::setPolicy(const Policy &policy, double t)
{
    fatalIf(policy.frequency <= 0.0 || policy.frequency > 1.0,
            "ServerSim::setPolicy: frequency must be in (0, 1]");
    advanceTo(t);
    _policy = policy;
    _plan = MaterializedPlan(policy.plan, _platform, policy.frequency);
    _activePower = _platform.activePower(policy.frequency);
}

SimStats
ServerSim::harvestWindow()
{
    SimStats harvested = _window;
    harvested.windowEnd = _accountedUntil;

    SimStats fresh;
    fresh.windowStart = _accountedUntil;
    fresh.windowEnd = _accountedUntil;
    _window = fresh;
    return harvested;
}

double
ServerSim::backlog(double t) const
{
    return std::max(0.0, _nextFree - t);
}

PolicyEvaluation
evaluatePolicy(const PlatformModel &platform, ServiceScaling scaling,
               const Policy &policy, const std::vector<Job> &jobs)
{
    fatalIf(jobs.empty(), "evaluatePolicy: need at least one job");

    ServerSim sim(platform, scaling, policy);
    for (const Job &job : jobs)
        sim.offerJob(job);
    // Close the books at the final departure, matching Algorithm 1's
    // power = energy over exactly the active plus idle periods.
    sim.advanceTo(sim.nextFreeTime());

    PolicyEvaluation evaluation{policy, sim.harvestWindow()};
    return evaluation;
}

} // namespace sleepscale
