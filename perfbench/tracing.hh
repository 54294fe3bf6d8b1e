/**
 * @file
 * Out-of-program tracing for the benchmark: decorators that time each
 * layer at its public interface and add into a Ledger.
 *
 * Every decorator wraps a component built by name from the library's
 * own registry and forwards each call unchanged, so a traced run makes
 * exactly the calls, in exactly the order, of the untraced run it
 * shadows; simulated outputs stay bit-identical. The decorators are
 * registered under "traced:<name>" in jobSourceRegistry(),
 * dispatcherRegistry(), faultSourceRegistry() and predictorRegistry(),
 * so a ScenarioSpec selects them by name like any other component.
 *
 * The library calls all four interfaces from the thread that drives
 * the run (sharded accounting and decision fan-out never route, draw
 * jobs or predict), so the ledger is plain, unsynchronized counters.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "farm/dispatcher.hh"
#include "fault/fault_source.hh"
#include "workload/job_source.hh"

namespace perfbench {

/** Accumulated time and call counts per traced layer. */
struct Ledger
{
    double nextSeconds = 0.0;          ///< Time in JobSource::next.
    std::uint64_t nextCalls = 0;       ///< JobSource::next calls.
    double routeSeconds = 0.0;         ///< Time in both route overloads.
    std::uint64_t routeFast = 0;       ///< FarmView-overload calls.
    std::uint64_t routeFailover = 0;   ///< ServerSnapshot-overload calls.
    std::uint64_t failoverViewTotal = 0; ///< Summed snapshot sizes.
    double faultSeconds = 0.0;         ///< Time in FaultSource::next.
    std::uint64_t faultCalls = 0;      ///< FaultSource::next calls.
    double predictSeconds = 0.0;       ///< Time in predict + observe.
    std::uint64_t predictCalls = 0;    ///< predict + observe calls.

    /** Seconds spent inside every traced interface. */
    double childSeconds() const
    {
        return nextSeconds + routeSeconds + faultSeconds + predictSeconds;
    }
};

/** The ledger the registered "traced:" components add into. */
Ledger &globalLedger();

/** Registry name of the traced decorator around `inner`. */
std::string tracedName(const std::string &inner);

/**
 * Register a "traced:<name>" decorator for every name currently in the
 * four registries. Idempotent; call before any run starts (registry
 * writes are not thread-safe).
 */
void registerTracedComponents();

/** Times JobSource::next. */
class TracedJobSource final : public sleepscale::JobSource
{
  public:
    TracedJobSource(std::unique_ptr<sleepscale::JobSource> inner,
                    Ledger &ledger);
    bool next(sleepscale::Job &out) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<sleepscale::JobSource> clone() const override;

  private:
    std::unique_ptr<sleepscale::JobSource> _inner;
    Ledger &_ledger;
};

/** Times and counts both Dispatcher::route overloads. */
class TracedDispatcher final : public sleepscale::Dispatcher
{
  public:
    TracedDispatcher(std::unique_ptr<sleepscale::Dispatcher> inner,
                     Ledger &ledger);
    std::size_t
    route(const sleepscale::Job &job,
          const std::vector<sleepscale::ServerSnapshot> &servers) override;
    std::size_t route(const sleepscale::Job &job,
                      const sleepscale::FarmView &farm) override;
    std::string name() const override;

  private:
    std::unique_ptr<sleepscale::Dispatcher> _inner;
    Ledger &_ledger;
};

/** Times and counts FaultSource::next. */
class TracedFaultSource final : public sleepscale::FaultSource
{
  public:
    TracedFaultSource(std::unique_ptr<sleepscale::FaultSource> inner,
                      Ledger &ledger);
    bool next(sleepscale::FaultEvent &out) override;
    void reset(std::uint64_t seed) override;
    std::unique_ptr<sleepscale::FaultSource> clone() const override;

  private:
    std::unique_ptr<sleepscale::FaultSource> _inner;
    Ledger &_ledger;
};

/** Times UtilizationPredictor::predict and observe. */
class TracedPredictor final : public sleepscale::UtilizationPredictor
{
  public:
    TracedPredictor(std::unique_ptr<sleepscale::UtilizationPredictor> inner,
                    Ledger &ledger);
    double predict(std::size_t minute) override;
    void observe(std::size_t minute, double utilization) override;
    std::string name() const override;

  private:
    std::unique_ptr<sleepscale::UtilizationPredictor> _inner;
    Ledger &_ledger;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
