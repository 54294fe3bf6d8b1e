#include "farm/farm_runtime.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

#include "core/decision_slot.hh"
#include "core/policy_manager.hh"
#include "farm/rate_scaler.hh"
#include "util/error.hh"
#include "util/monotonic_clock.hh"
#include "util/thread_pool.hh"

namespace sleepscale {

namespace {

constexpr double secondsPerMinute = 60.0;

// Shard width for the farm's per-server accounting loops: explicit
// widths are honored (capped at the farm size); 0 sizes automatically
// at one lane per 1024 servers, capped at the hardware concurrency,
// so small farms stay serial and huge farms fan out.
std::size_t
resolveShards(std::size_t shards, std::size_t farm_size)
{
    if (shards != 0)
        return std::min(shards, std::max<std::size_t>(farm_size, 1));
    const std::size_t by_size = farm_size / 1024 + 1;
    return std::min(by_size, ThreadPool::hardwareLanes());
}

/** Build the fault-source configuration a runtime config describes. */
FaultSourceConfig
faultConfigOf(const FarmRuntimeConfig &config)
{
    FaultSourceConfig fault;
    fault.farmSize = config.farmSize;
    fault.mtbf = config.mtbf;
    fault.mttr = config.mttr;
    fault.correlatedGroup = config.correlatedGroup;
    fault.script = config.faultScript;
    fault.seed = config.faultSeed;
    return fault;
}

/**
 * Drives one run's availability plane: applies crash/recovery events
 * to the farm in time order, and owns the failover retry queue — jobs
 * that found every server down, waiting out a capped exponential
 * backoff in sim time until a retry succeeds or the drop timeout
 * expires. Inactive ("none") drivers reduce to the plain offerJob()
 * path, so fault-free runs reproduce the pre-fault farm bit-for-bit.
 */
class FaultDriver
{
  public:
    FaultDriver(ServerFarm &farm, const FarmRuntimeConfig &config)
        : _farm(farm), _active(config.faults != "none"),
          _backoff(config.retryBackoff),
          _backoffCap(std::max(config.retryBackoffCap,
                               config.retryBackoff)),
          _dropTimeout(config.dropTimeout)
    {
        if (_active) {
            _source = makeFaultSource(config.faults,
                                      faultConfigOf(config));
            _hasEvent = _source->next(_event);
        }
    }

    /** Whether a fault schedule is driving this run. */
    bool active() const { return _active; }

    /** Called with (job, server) for every admission that happens
     * inside the retry queue, so the run loop can keep its decision
     * logs complete. */
    void setAdmitHook(std::function<void(const Job &, std::size_t)> hook)
    {
        _onAdmit = std::move(hook);
    }

    /**
     * Apply fault events and due retries up to time t, interleaved in
     * time order (events win ties so a recovery at t can admit a retry
     * due at t).
     */
    void catchUp(double t)
    {
        if (!_active)
            return;
        for (;;) {
            const bool event_due = _hasEvent && _event.time <= t;
            const bool retry_due =
                !_queue.empty() && _queue.front().due <= t;
            if (event_due &&
                (!retry_due || _event.time <= _queue.front().due)) {
                applyEvent();
            } else if (retry_due) {
                retryFront();
            } else {
                break;
            }
        }
    }

    /**
     * Offer a fresh arrival (catchUp(job.arrival) must have run).
     * When every server is down the job enters the retry queue.
     *
     * @return Admitting server index, or ServerFarm::noServer.
     */
    std::size_t offer(const Job &job)
    {
        ++_stats.offered;
        const std::size_t pick = _farm.tryOfferJob(job);
        if (pick != ServerFarm::noServer) {
            ++_stats.admitted;
            return pick;
        }
        schedule(job, job.arrival, job.arrival + _dropTimeout);
        return ServerFarm::noServer;
    }

    /**
     * After the arrival stream ends: keep interleaving events and
     * retries until the queue empties (every entry is eventually
     * admitted or dropped — backoff delays are strictly positive).
     */
    void drain()
    {
        while (_active && !_queue.empty())
            catchUp(_queue.front().due);
    }

    /** Offered/admitted/dropped/retry counters so far. */
    const FarmFaultStats &stats() const { return _stats; }

    /** Jobs currently waiting in the retry queue. */
    std::size_t queued() const { return _queue.size(); }

  private:
    /** One parked job: when to retry it and when to give up. */
    struct RetryEntry
    {
        Job job;
        double due = 0.0;      ///< Next dispatch attempt, sim time.
        double deadline = 0.0; ///< Original arrival + drop timeout.
        unsigned attempts = 0; ///< Failed dispatch attempts so far.
    };

    void applyEvent()
    {
        fatalIf(_event.server >= _farm.size(),
                "FaultDriver: fault event names server " +
                    std::to_string(_event.server) + " in a farm of " +
                    std::to_string(_farm.size()));
        if (_event.down)
            _farm.failServer(_event.server, _event.time);
        else
            _farm.restoreServer(_event.server, _event.time);
        _hasEvent = _source->next(_event);
    }

    void retryFront()
    {
        RetryEntry entry = _queue.front();
        _queue.pop_front();
        ++_stats.retries;
        entry.job.arrival = entry.due;
        const std::size_t pick = _farm.tryOfferJob(entry.job);
        if (pick != ServerFarm::noServer) {
            ++_stats.admitted;
            if (_onAdmit)
                _onAdmit(entry.job, pick);
            return;
        }
        ++entry.attempts;
        scheduleEntry(std::move(entry));
    }

    void schedule(const Job &job, double now, double deadline)
    {
        RetryEntry entry;
        entry.job = job;
        entry.due = now;
        entry.deadline = deadline;
        entry.attempts = 1;
        scheduleEntry(std::move(entry));
    }

    void scheduleEntry(RetryEntry entry)
    {
        const double delay = failoverBackoffDelay(
            _backoff, entry.attempts, _backoffCap);
        entry.due += delay;
        if (entry.due > entry.deadline) {
            ++_stats.dropped; // Recorded SLO loss.
            return;
        }
        // Keep the queue sorted by due time (stable for ties), so
        // retries replay in deterministic order.
        auto at = std::upper_bound(_queue.begin(), _queue.end(),
                                   entry.due,
                                   [](double due, const RetryEntry &e) {
                                       return due < e.due;
                                   });
        _queue.insert(at, std::move(entry));
    }

    ServerFarm &_farm;
    bool _active;
    double _backoff;
    double _backoffCap;
    double _dropTimeout;
    std::unique_ptr<FaultSource> _source;
    FaultEvent _event;
    bool _hasEvent = false;
    std::deque<RetryEntry> _queue;
    FarmFaultStats _stats;
    std::function<void(const Job &, std::size_t)> _onAdmit;
};

} // namespace

double
failoverBackoffDelay(double backoff, unsigned attempts, double cap)
{
    fatalIf(!(backoff > 0.0) || !std::isfinite(backoff),
            "failoverBackoffDelay: backoff must be positive and "
            "finite seconds");
    fatalIf(attempts == 0, "failoverBackoffDelay: attempts start at 1");
    fatalIf(!(cap >= backoff) || !std::isfinite(cap),
            "failoverBackoffDelay: cap must be finite and >= backoff");
    // Attempt k waits backoff * 2^(k-1), no further than the cap.
    // Saturate before scaling: past 2^1074 even the smallest positive
    // double lands beyond any finite cap, and ldexp toward infinity
    // must never reach the min() as an overflow artifact.
    const unsigned shift = attempts - 1;
    if (shift > 1074)
        return cap;
    const double delay = std::ldexp(backoff, static_cast<int>(shift));
    return std::min(delay, cap);
}

double
FarmFaultStats::availability(std::size_t farm_size) const
{
    const double server_seconds =
        elapsedSeconds * static_cast<double>(farm_size);
    if (server_seconds <= 0.0)
        return 1.0;
    return std::clamp(1.0 - downSeconds / server_seconds, 0.0, 1.0);
}

double
FarmFaultStats::goodput() const
{
    if (offered == 0)
        return 1.0;
    return static_cast<double>(completed) /
           static_cast<double>(offered);
}

std::unique_ptr<JobSource>
makeFarmSource(const WorkloadSpec &spec, const UtilizationTrace &trace,
               std::size_t farm_size, std::uint64_t seed)
{
    fatalIf(farm_size == 0, "makeFarmSource: farm size must be >= 1");
    // A farm at per-server load rho sees rho * size aggregate demand:
    // the rate multiplier shrinks the mean inter-arrival by the farm
    // size while keeping the gap distribution's shape and the true
    // service demands.
    return std::make_unique<TraceDrivenSource>(
        spec, trace, seed, static_cast<double>(farm_size));
}

std::vector<Job>
generateFarmJobs(Rng &rng, const WorkloadSpec &spec,
                 const UtilizationTrace &trace, std::size_t farm_size)
{
    fatalIf(farm_size == 0, "generateFarmJobs: farm size must be >= 1");
    TraceDrivenSource source(spec, trace, rng,
                             static_cast<double>(farm_size));
    std::vector<Job> jobs = materialize(source);
    rng = source.rng();
    return jobs;
}

FarmRuntime::FarmRuntime(const PlatformModel &platform,
                         const WorkloadSpec &spec,
                         FarmRuntimeConfig config)
    : _platform(platform), _spec(spec), _config(std::move(config)),
      _qos(deriveQos(_config.perServer, spec))
{
    fatalIf(_config.farmSize == 0,
            "FarmRuntime: farm size must be >= 1");
    validateRuntimeConfig(_config.perServer, "FarmRuntime");
    fatalIf(_config.control != "farm-wide" &&
                _config.control != "per-server" &&
                _config.control != "distributed",
            "FarmRuntime: unknown control mode '" + _config.control +
                "' (use \"farm-wide\", \"per-server\", or "
                "\"distributed\")");
    // Fail fast on misspelled dispatcher names: get() lists the
    // registered alternatives, and catching it here (instead of inside
    // run()) surfaces the mistake while the configuration site is still
    // on the stack.
    dispatcherRegistry().get(_config.dispatcher);

    // Fault plane: building a throwaway source validates the name (the
    // registry lists alternatives), the MTBF/MTTR ranges, and every
    // scripted event. "none" skips it all, so fault-free configs never
    // pay for — or trip over — fault validation.
    if (_config.faults != "none") {
        makeFaultSource(_config.faults, faultConfigOf(_config));
        fatalIf(!(_config.retryBackoff > 0.0) ||
                    !std::isfinite(_config.retryBackoff),
                "FarmRuntime: retryBackoff must be positive and "
                "finite seconds");
        fatalIf(!(_config.retryBackoffCap > 0.0) ||
                    !std::isfinite(_config.retryBackoffCap),
                "FarmRuntime: retryBackoffCap must be positive and "
                "finite seconds");
        fatalIf(!(_config.dropTimeout > 0.0) ||
                    !std::isfinite(_config.dropTimeout),
                "FarmRuntime: dropTimeout must be positive and finite "
                "seconds");
        fatalIf(_config.recoverySeconds < 0.0 ||
                    !std::isfinite(_config.recoverySeconds),
                "FarmRuntime: recoverySeconds must be finite and >= 0");
    }

    // Resolve the per-server platform mix. The resolved vector is sized
    // here once and never mutated again: the per-server managers hold
    // references into it.
    if (!_config.platforms.empty()) {
        fatalIf(_config.platforms.size() != _config.farmSize,
                "FarmRuntime: platforms lists " +
                    std::to_string(_config.platforms.size()) +
                    " entries for a farm of " +
                    std::to_string(_config.farmSize) +
                    " servers (give one platform name per server, or "
                    "none for a homogeneous farm)");
        _resolvedPlatforms.reserve(_config.platforms.size());
        for (const std::string &name : _config.platforms)
            _resolvedPlatforms.push_back(platformByName(name));
        bool heterogeneous = false;
        for (const std::string &name : _config.platforms)
            heterogeneous =
                heterogeneous || name != _config.platforms.front();
        fatalIf(heterogeneous && !perServerControl(),
                "FarmRuntime: a heterogeneous platform mix needs "
                "control = \"per-server\" or \"distributed\" (one "
                "farm-wide decision cannot bind to multiple power "
                "models)");
    }
    _serverPlatforms.reserve(_config.farmSize);
    for (std::size_t i = 0; i < _config.farmSize; ++i)
        _serverPlatforms.push_back(_resolvedPlatforms.empty()
                                       ? &_platform
                                       : &_resolvedPlatforms[i]);

    if (!_config.perServer.fixedPolicy) {
        // One persistent decider per decision slot: the search manager
        // (with its eval engine), the O(1) feedback controller, or the
        // distributed rate scaler.
        const std::size_t slots =
            perServerControl() ? _config.farmSize : 1;
        _deciders.reserve(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            if (_config.control != "distributed") {
                _deciders.push_back(makeEpochDecider(
                    *_serverPlatforms[i], _spec, _config.perServer, _qos));
                continue;
            }
            // Zero-communication local rate scaling (Rutten-style,
            // farm/rate_scaler.hh): every server tracks its own offered
            // load; the target anchors at the QoS design point ρ_b, and
            // the sleep plan is pinned to the initial policy's.
            RateScalerOptions options;
            options.targetUtilization = _config.perServer.rhoB;
            _deciders.push_back(std::make_unique<DistributedRateScaler>(
                _config.perServer.space.frequencies, _spec.scaling,
                _config.perServer.initialPolicy, options));
        }
    }
}

bool
FarmRuntime::perServerControl() const
{
    // "distributed" has per-server slots too: autonomous deciders fed
    // by local observations, one per back-end. The difference is the
    // decision rule, not the control topology.
    return _config.control == "per-server" ||
           _config.control == "distributed";
}

const PolicyManager &
FarmRuntime::serverManager(std::size_t server) const
{
    fatalIf(!perServerControl() || _deciders.empty() ||
                !dynamic_cast<const PolicyManager *>(
                    _deciders.front().get()),
            "FarmRuntime::serverManager: no per-server search "
            "managers (needs control = \"per-server\", no fixed "
            "policy, and a search strategy — controller runs expose "
            "serverDecider() instead)");
    return static_cast<const PolicyManager &>(serverDecider(server));
}

const EpochDecider &
FarmRuntime::serverDecider(std::size_t server) const
{
    fatalIf(!perServerControl() || _deciders.empty(),
            "FarmRuntime::serverDecider: no per-server deciders (needs "
            "control = \"per-server\" or \"distributed\" and no fixed "
            "policy)");
    fatalIf(server >= _deciders.size(),
            "FarmRuntime::serverDecider: server index out of range");
    return *_deciders[server];
}

const PlatformModel &
FarmRuntime::serverPlatform(std::size_t server) const
{
    fatalIf(server >= _serverPlatforms.size(),
            "FarmRuntime::serverPlatform: server index out of range");
    return *_serverPlatforms[server];
}

FarmRuntimeResult
FarmRuntime::run(const std::vector<Job> &jobs,
                 const UtilizationTrace &trace,
                 UtilizationPredictor &predictor) const
{
    VectorSource source = VectorSource::view(jobs);
    return run(source, trace, predictor);
}

FarmRuntimeResult
FarmRuntime::run(JobSource &source, const UtilizationTrace &trace,
                 UtilizationPredictor &predictor) const
{
    fatalIf(trace.empty(), "FarmRuntime::run: empty trace");
    const std::size_t minutes = trace.size();
    const unsigned epoch_len = _config.perServer.epochMinutes;
    const std::size_t size = _config.farmSize;
    const double farm_size = static_cast<double>(size);
    const double window_seconds =
        static_cast<double>(epoch_len) * secondsPerMinute;
    const bool fixed =
        static_cast<bool>(_config.perServer.fixedPolicy);
    const bool record_decisions = _config.perServer.recordDecisionTime;

    // Farm-wide control is one shared decision slot over every server,
    // fed from server 0's log; per-server and distributed control give
    // each server a slot of its own. Slot s logs server s's jobs.
    const bool shared = !perServerControl();
    const std::size_t slot_count = shared ? 1 : size;
    const std::uint64_t members = shared ? size : 1;

    ServerFarm farm(_serverPlatforms, _spec.scaling,
                    _config.perServer.initialPolicy,
                    makeDispatcher(_config.dispatcher,
                                   _config.dispatchSeed,
                                   _config.packingSpillBacklog));

    FarmRuntimeResult result;
    result.qos = _qos;
    result.control = _config.control;
    result.servers.resize(size);
    for (std::size_t i = 0; i < size; ++i) {
        result.servers[i].server = i;
        result.servers[i].platform = _serverPlatforms[i]->name();
    }

    farm.setRecoverySeconds(_config.recoverySeconds);
    farm.setRecordTail(_config.tailHistograms);
    const std::size_t shard_lanes = resolveShards(_config.shards, size);
    std::unique_ptr<ThreadPool> shard_pool;
    if (shard_lanes > 1) {
        shard_pool = std::make_unique<ThreadPool>(shard_lanes);
        farm.setShardPool(shard_pool.get());
    }
    FaultDriver faults(farm, _config);

    std::vector<DecisionSlot> slots;
    slots.reserve(slot_count);
    for (std::size_t s = 0; s < slot_count; ++s)
        slots.emplace_back(_config.perServer, _qos,
                           fixed ? nullptr : _deciders[s].get(), members);

    // Each slot logs exactly the jobs admitted to its log server: a
    // per-server slot its own local view, the shared slot server 0's,
    // the literal arrival process of a representative back-end (a
    // deterministic every-Nth pick would smooth the gaps toward Erlang
    // shape and bias the decision optimistic). Failover re-admissions
    // join at their re-dispatch time, like any other routed job.
    const auto log_admission = [&](const Job &job, std::size_t server) {
        if (shared && server != 0)
            return;
        slots[server].logJob(job);
        // The shared slot measures offered demand instead (below).
        if (!shared)
            slots[server].addDemand(job.size, 1);
    };
    faults.setAdmitHook(log_admission);

    // The decision pool lives for one run, not the runtime's lifetime:
    // idle FarmRuntimes (e.g. queued behind an ExperimentRunner sweep)
    // then hold no worker threads. One slot gets a one-lane pool, which
    // spawns no thread.
    std::unique_ptr<ThreadPool> decision_pool;
    if (!fixed) {
        const std::size_t lanes =
            _config.decisionThreads == 0
                ? std::min(slot_count, ThreadPool::hardwareLanes())
                : std::min(_config.decisionThreads, slot_count);
        decision_pool = std::make_unique<ThreadPool>(lanes);
    }

    std::uint64_t cum_completed = 0;
    std::uint64_t degraded_epochs = 0;
    double degraded_seconds = 0.0;

    // Close the epoch: attribute per-server windows, close each slot
    // over its window (the farm-merged one for the shared slot), push
    // the farm view (slot 0's report over the merged window) and
    // snapshot the cumulative availability-plane counters.
    auto closeEpoch = [&](const std::vector<SimStats> &windows,
                          double now) {
        for (std::size_t i = 0; i < size; ++i)
            result.servers[i].total.merge(windows[i]);
        SimStats merged_stats = ServerFarm::mergeWindows(windows);
        bool degraded = false;
        for (std::size_t s = 0; s < slot_count; ++s) {
            slots[s].close(shared ? merged_stats : windows[s]);
            degraded = degraded || slots[s].report().degraded;
            // Per-server epoch streams are O(farm x epochs) memory;
            // scale runs keep only the running totals.
            if (!shared && _config.serverEpochReports)
                result.servers[s].epochs.push_back(slots[s].report());
        }
        EpochReport merged = slots.front().report();
        merged.stats = std::move(merged_stats);
        merged.degraded = degraded;
        result.epochs.push_back(std::move(merged));

        cum_completed += result.epochs.back().stats.completions;
        FarmFaultStats snap = faults.stats();
        snap.completed = cum_completed;
        snap.inFlight =
            snap.admitted - snap.completed + faults.queued();
        snap.downSeconds = farm.totalDownSeconds();
        snap.degradedSeconds = degraded_seconds;
        snap.degradedEpochs = degraded_epochs;
        snap.elapsedSeconds = now;
        result.epochFaults.push_back(snap);
    };

    Job pending;
    bool has_pending = source.next(pending);

    for (std::size_t minute = 0; minute < minutes; ++minute) {
        const double t = static_cast<double>(minute) * secondsPerMinute;

        if (minute % epoch_len == 0) {
            farm.advanceTo(t);

            if (minute > 0)
                closeEpoch(farm.harvestWindows(), t);

            const std::size_t epoch_index = result.epochs.size();
            const double predicted =
                std::clamp(predictor.predict(minute), 0.0, 1.0);
            // Guarded decisions (docs/FAULTS.md): a starved or
            // infeasible one lands on the safe fixed policy for every
            // server of its slot.
            const Policy *fallback = nullptr;
            if (faults.active()) {
                fallback = &_config.degradedPolicy;
                for (std::size_t s = 0; s < slot_count; ++s)
                    slots[s].observeDowntime(farm.downSeconds(s));
            }

            // Fan the slot decisions out across the pool. Each lane
            // touches only its own slot and decider; the decisions are
            // applied in slot-index order below, so any pool width is
            // bit-identical to serial.
            double fanout_micros = 0.0;
            if (!fixed) {
                const double fanout_start =
                    record_decisions ? monotonicMicros() : 0.0;
                decision_pool->parallelFor(
                    slot_count, [&](std::size_t s, std::size_t) {
                        slots[s].decide(predicted, fallback);
                    });
                if (record_decisions)
                    fanout_micros = monotonicMicros() - fanout_start;
            }

            for (std::size_t s = 0; s < slot_count; ++s) {
                slots[s].begin(epoch_index, t, predicted);
                if (slots[s].report().degraded) {
                    degraded_epochs += members;
                    degraded_seconds +=
                        window_seconds * static_cast<double>(members);
                }
            }
            // The representative report (the farm view copies slot 0's
            // fields) carries the whole fan-out's wall time: the farm's
            // per-epoch decision cost.
            slots.front().report().decisionMicros = fanout_micros;
            for (std::size_t i = 0; i < size; ++i)
                farm.setPolicy(i, slots[shared ? 0 : i].report().policy, t);
        }

        const double minute_end = t + secondsPerMinute;
        double minute_demand = 0.0;
        std::uint64_t minute_jobs = 0;
        while (has_pending && pending.arrival < minute_end) {
            faults.catchUp(pending.arrival);
            const std::size_t routed = faults.offer(pending);
            minute_demand += pending.size;
            ++minute_jobs;
            // A job that finds every server down parks in the failover
            // queue; it joins a log via the admit hook if a retry lands.
            if (routed != ServerFarm::noServer)
                log_admission(pending, routed);
            has_pending = source.next(pending);
        }
        // The shared slot measures the farm's offered demand, parked
        // jobs included, summed per minute.
        if (shared)
            slots.front().addDemand(minute_demand, minute_jobs);
        faults.catchUp(minute_end);
        farm.advanceTo(minute_end);

        const double observed = std::clamp(
            minute_demand / (secondsPerMinute * farm_size), 0.0, 1.0);
        predictor.observe(minute, observed);
    }

    // Let the failover queue play out (each entry is admitted or
    // dropped), then run every admitted job to completion.
    faults.drain();
    const double horizon =
        std::max(trace.duration(), farm.nextFreeTime());
    faults.catchUp(horizon);
    farm.advanceTo(horizon);
    closeEpoch(farm.harvestWindows(), horizon);

    for (const EpochReport &report : result.epochs)
        result.total.merge(report.stats);
    result.faults = result.epochFaults.back();
    result.jobsPerServer = farm.jobsPerServer();
    for (std::size_t i = 0; i < size; ++i) {
        result.servers[i].jobsRouted = result.jobsPerServer[i];
        // A server that completed nothing has no response statistic to
        // meet the budget with — report it as not-within rather than
        // vacuously compliant.
        result.servers[i].withinBudget =
            windowWithinBudget(_qos, result.servers[i].total);
    }
    return result;
}

} // namespace sleepscale
