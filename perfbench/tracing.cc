#include "tracing.hh"

#include <chrono>

namespace perfbench {

using namespace sleepscale;

namespace {

const std::string kPrefix = "traced:";

/** Adds the lifetime of the scope to one ledger field. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(double &seconds)
        : _seconds(seconds), _start(std::chrono::steady_clock::now())
    {
    }
    ~ScopedTimer()
    {
        _seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - _start)
                        .count();
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    double &_seconds;
    std::chrono::steady_clock::time_point _start;
};

/** Add "traced:<name>" for every untraced name of one registry. */
template <typename Factory, typename Wrap>
void
decorateRegistry(Registry<Factory> &registry, Wrap wrap)
{
    for (const std::string &name : registry.names()) {
        if (name.rfind(kPrefix, 0) == 0 ||
            registry.contains(tracedName(name)))
            continue;
        registry.add(tracedName(name), wrap(registry.get(name)));
    }
}

} // namespace

Ledger &
globalLedger()
{
    static Ledger ledger;
    return ledger;
}

std::string
tracedName(const std::string &inner)
{
    return kPrefix + inner;
}

void
registerTracedComponents()
{
    decorateRegistry(jobSourceRegistry(), [](JobSourceFactory inner) {
        return [inner](const JobSourceConfig &config)
                   -> std::unique_ptr<JobSource> {
            return std::make_unique<TracedJobSource>(inner(config),
                                                     globalLedger());
        };
    });
    decorateRegistry(dispatcherRegistry(), [](DispatcherFactory inner) {
        return [inner](const DispatcherContext &ctx)
                   -> std::unique_ptr<Dispatcher> {
            return std::make_unique<TracedDispatcher>(inner(ctx),
                                                      globalLedger());
        };
    });
    decorateRegistry(faultSourceRegistry(), [](FaultSourceFactory inner) {
        return [inner](const FaultSourceConfig &config)
                   -> std::unique_ptr<FaultSource> {
            return std::make_unique<TracedFaultSource>(inner(config),
                                                       globalLedger());
        };
    });
    decorateRegistry(predictorRegistry(), [](PredictorFactory inner) {
        return [inner](const PredictorContext &ctx)
                   -> std::unique_ptr<UtilizationPredictor> {
            return std::make_unique<TracedPredictor>(inner(ctx),
                                                     globalLedger());
        };
    });
}

// ------------------------------------------------------------ JobSource

TracedJobSource::TracedJobSource(std::unique_ptr<JobSource> inner,
                                 Ledger &ledger)
    : _inner(std::move(inner)), _ledger(ledger)
{
}

bool
TracedJobSource::next(Job &out)
{
    ScopedTimer timer(_ledger.nextSeconds);
    ++_ledger.nextCalls;
    return _inner->next(out);
}

void
TracedJobSource::reset(std::uint64_t seed)
{
    _inner->reset(seed);
}

std::unique_ptr<JobSource>
TracedJobSource::clone() const
{
    return std::make_unique<TracedJobSource>(_inner->clone(), _ledger);
}

// ----------------------------------------------------------- Dispatcher

TracedDispatcher::TracedDispatcher(std::unique_ptr<Dispatcher> inner,
                                   Ledger &ledger)
    : _inner(std::move(inner)), _ledger(ledger)
{
}

std::size_t
TracedDispatcher::route(const Job &job,
                        const std::vector<ServerSnapshot> &servers)
{
    ScopedTimer timer(_ledger.routeSeconds);
    ++_ledger.routeFailover;
    _ledger.failoverViewTotal += servers.size();
    return _inner->route(job, servers);
}

std::size_t
TracedDispatcher::route(const Job &job, const FarmView &farm)
{
    ScopedTimer timer(_ledger.routeSeconds);
    ++_ledger.routeFast;
    return _inner->route(job, farm);
}

std::string
TracedDispatcher::name() const
{
    return _inner->name();
}

// ---------------------------------------------------------- FaultSource

TracedFaultSource::TracedFaultSource(std::unique_ptr<FaultSource> inner,
                                     Ledger &ledger)
    : _inner(std::move(inner)), _ledger(ledger)
{
}

bool
TracedFaultSource::next(FaultEvent &out)
{
    ScopedTimer timer(_ledger.faultSeconds);
    ++_ledger.faultCalls;
    return _inner->next(out);
}

void
TracedFaultSource::reset(std::uint64_t seed)
{
    _inner->reset(seed);
}

std::unique_ptr<FaultSource>
TracedFaultSource::clone() const
{
    return std::make_unique<TracedFaultSource>(_inner->clone(), _ledger);
}

// ------------------------------------------------------------ Predictor

TracedPredictor::TracedPredictor(
    std::unique_ptr<UtilizationPredictor> inner, Ledger &ledger)
    : _inner(std::move(inner)), _ledger(ledger)
{
}

double
TracedPredictor::predict(std::size_t minute)
{
    ScopedTimer timer(_ledger.predictSeconds);
    ++_ledger.predictCalls;
    return _inner->predict(minute);
}

void
TracedPredictor::observe(std::size_t minute, double utilization)
{
    ScopedTimer timer(_ledger.predictSeconds);
    ++_ledger.predictCalls;
    _inner->observe(minute, utilization);
}

std::string
TracedPredictor::name() const
{
    return _inner->name();
}

} // namespace perfbench
