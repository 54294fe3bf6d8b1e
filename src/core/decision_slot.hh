/**
 * @file
 * The per-epoch decision procedure both runtimes share (Section 5.2).
 *
 * A DecisionSlot is one decider's share of an epoch loop: its policy,
 * the rolling log it decides from, the demand it measures and its
 * epoch report. SleepScaleRuntime runs one slot over one ServerSim;
 * FarmRuntime one over the whole farm or one per server. Each epoch
 * boundary calls close() (the window, measured load and observation
 * of the closed epoch; the log keeps the last historyEpochs epochs,
 * capped at evalLogCap jobs), decide() (rescale the log to the
 * forecast and ask the decider) and begin() (open the next report with
 * the decision, boosted by α when the closed window met its budget).
 */

#ifndef SLEEPSCALE_CORE_DECISION_SLOT_HH
#define SLEEPSCALE_CORE_DECISION_SLOT_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hh"

namespace sleepscale {

/** fatal() unless the epoch, α, log-cap and history knobs are usable;
 * `owner` prefixes the message. */
void validateRuntimeConfig(const RuntimeConfig &config,
                           const std::string &owner);

/** The QoS constraint a configuration sets for a workload. */
QosConstraint deriveQos(const RuntimeConfig &config,
                        const WorkloadSpec &spec);

/** The search manager or, with config.controller set, the feedback
 * controller a configuration asks for (null under a fixed policy). */
std::unique_ptr<EpochDecider>
makeEpochDecider(const PlatformModel &platform, const WorkloadSpec &spec,
                 const RuntimeConfig &config, const QosConstraint &qos);

/**
 * Rebuild a job log with its offered load rescaled to the prediction:
 * gaps between consecutive arrivals keep their shape and scale so
 * demand / span lands on the (clamped) prediction; job sizes are
 * untouched (the service distribution is stationary, Section 6). The
 * first job is anchored at one mean gap. Empty when the log is too
 * thin to characterize (fewer than two jobs, zero span or demand).
 */
std::vector<Job> rescaleLog(const std::vector<Job> &history,
                            double predicted);

/** One decider's share of an epoch loop (see the file comment). */
class DecisionSlot
{
  public:
    /**
     * @param config Runtime knobs (not owned; must outlive the slot).
     * @param qos Budget the windows are judged against (not owned).
     * @param decider Decider (not owned; null under a fixed policy).
     * @param members Servers the slot's policy runs on; the measured
     *        utilization is per server.
     */
    DecisionSlot(const RuntimeConfig &config, const QosConstraint &qos,
                 EpochDecider *decider, std::size_t members = 1);

    /** Log one job for the decision (kept only when the decider reads
     * a log). */
    void logJob(const Job &job);

    /** Add offered demand (seconds at f = 1) and its job count to the
     * open epoch's measurement. */
    void addDemand(double demand, std::uint64_t jobs)
    {
        _demand += demand;
        _jobs += jobs;
    }

    /** Starvation check (docs/FAULTS.md): the log server's cumulative
     * downtime. The next decision is starved when it grew since the
     * last call while no job was logged. */
    void observeDowntime(double down_seconds);

    /** Close the open epoch over its harvested window (step 1). */
    void close(const SimStats &window);

    /** Decide the next epoch's policy (step 2); a no-op under a fixed
     * policy or while the log is too thin. With a fallback the
     * decision is guarded: a starved or infeasible one degrades.
     * Returns whether the decider ran. */
    bool decide(double predicted, const Policy *fallback = nullptr);

    /** Open the next epoch's report (step 3); returns the policy to
     * run. */
    const Policy &begin(std::size_t index, double start,
                        double predicted);

    /** The open epoch's report; after close(), the closed one's. */
    EpochReport &report() { return _report; }

  private:
    const RuntimeConfig &_config;
    const QosConstraint &_qos;
    EpochDecider *_decider;
    double _windowSeconds;
    bool _keepLog;

    /** Rolling log: the closed epochs' jobs (their counts, oldest
     * first), then the open epoch's. */
    std::vector<Job> _history;
    std::deque<std::size_t> _historyCounts;
    std::size_t _closedJobs = 0;

    double _demand = 0.0;
    std::uint64_t _jobs = 0;
    std::size_t _closed = 0;

    std::uint64_t _logged = 0;
    std::uint64_t _loggedMark = 0;
    double _downMark = 0.0;
    bool _starved = false;

    EpochObservation _observation;
    GuardedDecision _decision;
    bool _decided = false;
    EpochReport _report; ///< Its policy is the one in force.
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_DECISION_SLOT_HH
