/**
 * @file
 * Job dispatchers for multi-server farms (paper Section 7 future work).
 *
 * The paper conjectures SleepScale scales out by running per server,
 * with a front-end spreading jobs across the farm. The dispatcher
 * decides which server each arrival joins; the choice shapes both the
 * response-time distribution and — because it determines idle-period
 * lengths — how much sleep-state headroom each server sees.
 */

#ifndef SLEEPSCALE_FARM_DISPATCHER_HH
#define SLEEPSCALE_FARM_DISPATCHER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/registry.hh"
#include "util/rng.hh"
#include "workload/job.hh"

namespace sleepscale {

/** Read-only per-server signals a dispatcher may consult. */
struct ServerSnapshot
{
    double backlog = 0.0;   ///< Committed seconds of work remaining.
    bool idle = true;       ///< Whether the queue is currently empty.
};

/**
 * Indexed view of the farm at one arrival instant.
 *
 * The view covers the servers accepting work at that instant — every
 * server on a healthy farm — numbered 0..count()-1 in server-index
 * order; ServerFarm maps the chosen view index back to its server.
 * Unlike the materialized ServerSnapshot vector, a FarmView answers
 * point queries lazily and exposes the two aggregate lookups the
 * built-in dispatchers need — lowest idle server, least-backlogged
 * busy server — in O(log N) against the farm's event-time indexes
 * (farm/farm_calendar.hh), so routing never scans the whole farm,
 * however many servers are down. Both aggregates break ties to the
 * lowest index, matching the legacy full-scan dispatchers bit for
 * bit.
 */
class FarmView
{
  public:
    virtual ~FarmView() = default;

    /** Number of servers in the view (the accepting servers). */
    virtual std::size_t count() const = 0;

    /** Committed seconds of work remaining on one server. */
    virtual double backlog(std::size_t server) const = 0;

    /** Whether one server's queue is currently empty. */
    virtual bool idle(std::size_t server) const = 0;

    /** Lowest idle server index, or count() when none is idle. */
    virtual std::size_t lowestIdle() const = 0;

    /** Busy server whose queue empties first (lowest index on ties),
     * or count() when no server is busy. */
    virtual std::size_t leastBacklogBusy() const = 0;
};

/** Strategy interface: pick a server index for each arrival. */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    /**
     * Route one job.
     *
     * Legacy interface, reached only through the base FarmView
     * overload below (ServerFarm itself always routes through a
     * FarmView).
     *
     * @param job The arriving job.
     * @param servers Current per-server state, one entry per server.
     * @return Index of the chosen server (< servers.size()).
     */
    virtual std::size_t route(const Job &job,
                              const std::vector<ServerSnapshot> &servers)
        = 0;

    /**
     * Route one job against an indexed farm view — the one routing
     * path ServerFarm uses, healthy or faulty. The base implementation
     * materializes a ServerSnapshot vector over the view and defers to
     * the legacy overload, so third-party dispatchers registered
     * against dispatcherRegistry() keep working unchanged; the
     * built-ins override this with O(log N) routing.
     *
     * @param job The arriving job.
     * @param farm Indexed view of the farm at the arrival instant.
     * @return Index of the chosen server (< farm.count()).
     */
    virtual std::size_t route(const Job &job, const FarmView &farm);

    /** Name for reports. */
    virtual std::string name() const = 0;
};

/** Uniformly random routing (splits a Poisson stream into thinner
 * Poisson streams; the baseline in the server-farm literature). */
class RandomDispatcher final : public Dispatcher
{
  public:
    /** @param seed Seed of the routing RNG. */
    explicit RandomDispatcher(std::uint64_t seed = 1);
    std::size_t route(const Job &job,
                      const std::vector<ServerSnapshot> &servers)
        override;
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "random"; }

  private:
    Rng _rng;
};

/** Cyclic routing: deterministic, evens out arrival counts. */
class RoundRobinDispatcher final : public Dispatcher
{
  public:
    std::size_t route(const Job &job,
                      const std::vector<ServerSnapshot> &servers)
        override;
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "round-robin"; }

  private:
    std::size_t _next = 0;
};

/** Join-shortest-queue by committed backlog (ties -> lowest index). */
class JsqDispatcher final : public Dispatcher
{
  public:
    std::size_t route(const Job &job,
                      const std::vector<ServerSnapshot> &servers)
        override;
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "JSQ"; }
};

/**
 * Sleep-aware packing: prefer the least-backlogged *busy* server so
 * idle servers stay asleep; spill to an idle server only when every
 * busy server's backlog exceeds a threshold. Concentrating work is the
 * classic consolidation play for sleep-state effectiveness.
 */
class PackingDispatcher final : public Dispatcher
{
  public:
    /**
     * @param spill_backlog Backlog (seconds) beyond which an idle
     *        server is woken instead of queueing deeper.
     */
    explicit PackingDispatcher(double spill_backlog);
    std::size_t route(const Job &job,
                      const std::vector<ServerSnapshot> &servers)
        override;
    std::size_t route(const Job &job, const FarmView &farm) override;
    std::string name() const override { return "packing"; }

  private:
    double _spillBacklog;
};

/** Inputs available to a dispatcher factory. */
struct DispatcherContext
{
    /** Seed for stochastic dispatchers. */
    std::uint64_t seed = 1;

    /** Spill threshold for the packing dispatcher, seconds. */
    double spillBacklog = 1.0;
};

/** Factory signature stored in the dispatcher registry. */
using DispatcherFactory =
    std::function<std::unique_ptr<Dispatcher>(const DispatcherContext &)>;

/**
 * The dispatcher registry. Ships with "random", "round-robin", "JSQ",
 * and "packing"; extensions register additional routing policies under
 * new names. FarmRuntime validates its configured dispatcher against
 * this registry at construction, so misspelled names fail fast with
 * the registered alternatives listed.
 */
Registry<DispatcherFactory> &dispatcherRegistry();

/** Construct a registered dispatcher by name; fatal() on unknown names. */
std::unique_ptr<Dispatcher> makeDispatcher(const std::string &name,
                                           std::uint64_t seed = 1,
                                           double spill_backlog = 1.0);

} // namespace sleepscale

#endif // SLEEPSCALE_FARM_DISPATCHER_HH
