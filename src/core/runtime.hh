/**
 * @file
 * The SleepScale runtime (paper Sections 5.2 and 6).
 *
 * Drives a server through a trace-driven job stream epoch by epoch:
 *
 *  1. At each epoch boundary, forecast the utilization of the upcoming
 *     epoch's first minute with a pluggable predictor.
 *  2. Rescale the job events logged over the last historyEpochs epochs
 *     (capped at evalLogCap) to the forecast offered load and hand them
 *     to the policy manager, which simulates every candidate policy and
 *     picks the cheapest QoS-feasible one.
 *  3. Apply the over-provisioning guard band: if the epoch just past met
 *     its delay budget, raise the chosen frequency by a factor (1 + α) —
 *     headroom against unpredicted surges (Section 5.2.3).
 *  4. Run the epoch under the chosen policy; backlog carries across
 *     epoch boundaries.
 *
 * Steps 2 and 3 run in the DecisionSlot FarmRuntime shares
 * (core/decision_slot.hh). Fixed-policy strategies (race-to-halt) run
 * through the same loop with the decision step pinned, so every
 * comparison in the Figure 8-10 benches shares identical accounting.
 */

#ifndef SLEEPSCALE_CORE_RUNTIME_HH
#define SLEEPSCALE_CORE_RUNTIME_HH

#include <memory>
#include <optional>
#include <vector>

#include "control/controller_config.hh"
#include "core/epoch_decider.hh"
#include "core/policy_manager.hh"
#include "core/policy_space.hh"
#include "core/predictor.hh"
#include "core/qos.hh"
#include "power/platform_model.hh"
#include "sim/server_sim.hh"
#include "util/csv.hh"
#include "workload/job.hh"
#include "workload/job_source.hh"
#include "workload/utilization_trace.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {

/** Knobs of one runtime configuration. */
struct RuntimeConfig
{
    /** Policy update interval T, minutes (paper: 1-15). */
    unsigned epochMinutes = 5;

    /** Over-provisioning factor α (paper: 0 or 0.35). */
    double overProvision = 0.0;

    /** Peak design utilization ρ_b anchoring the QoS budget. */
    double rhoB = 0.8;

    /** Which response-time statistic the QoS bounds. */
    QosMetric qosMetric = QosMetric::MeanResponse;

    /** Candidate policies for the manager. */
    PolicySpace space = PolicySpace::standard();

    /** Candidate-search engine knobs: fan-out width and pruned mode
     * (see EvalEngineOptions). Any setting yields decisions identical
     * to the serial exhaustive search. */
    EvalEngineOptions search;

    /** Cap on the evaluation-log length; longer logs keep only the most
     * recent jobs (Section 5.2.1: average behaviour from the recent past
     * suffices, and the cap bounds the per-epoch decision cost). */
    std::size_t evalLogCap = 4000;

    /** How many past epochs of job events feed the evaluation log
     * (Section 5.2.1 logs "previous epochs"; more history smooths the
     * characterization when epochs are short). */
    std::size_t historyEpochs = 3;

    /** When set, decide per epoch with the O(1) feedback controller
     * (control/controller_manager.hh, strategy "poet") instead of the
     * candidate search; the search knobs above are then unused. */
    std::optional<ControllerConfig> controller;

    /** Record per-epoch decision wall time into
     * EpochReport::decisionMicros. Telemetry only — decisions and
     * simulated results are bit-identical either way — and off by
     * default so result structs stay time-free. */
    bool recordDecisionTime = false;

    /** When set, skip the policy manager entirely and run this policy
     * for the whole trace (race-to-halt baselines). */
    std::optional<Policy> fixedPolicy;

    /** Policy in force before the first decision. */
    Policy initialPolicy{1.0,
                         SleepPlan::immediate(LowPowerState::C0IdleS0Idle)};
};

/** Whether a harvested window met the QoS budget. An empty window has
 * no response statistic, so it never does. */
bool windowWithinBudget(const QosConstraint &qos, const SimStats &stats);

/** Per-epoch record of what the runtime decided and what happened. */
struct EpochReport
{
    std::size_t index = 0;          ///< Epoch number.
    double startTime = 0.0;         ///< Seconds since trace start.
    double predictedUtilization = 0.0;
    double measuredUtilization = 0.0; ///< Mean offered load over the epoch.
    Policy policy;                  ///< Policy run during the epoch.
    bool feasible = false;          ///< Manager found a QoS-feasible policy.
    bool boosted = false;           ///< Over-provisioning raised f.
    bool decided = false;           ///< False if the log was too thin.
    /** The controller fell back to the safe fixed policy this epoch
     * (fault-injected farms only; see docs/FAULTS.md). */
    bool degraded = false;
    /** Wall time the epoch's decision took, µs (recordDecisionTime
     * runs only; 0 otherwise). */
    double decisionMicros = 0.0;
    SimStats stats;                 ///< Epoch-windowed metrics.
};

/** Aggregate outcome of one runtime run. */
struct RuntimeResult
{
    std::vector<EpochReport> epochs;
    SimStats total;               ///< Whole-run merged statistics.
    QosConstraint qos = QosConstraint::meanBudget(1.0);

    /** Whole-run mean response time, seconds. */
    double meanResponse() const { return total.meanResponse(); }

    /** Whole-run 95th-percentile response time, seconds. */
    double p95Response() const
    {
        return total.responsePercentile(95.0);
    }

    /** Whole-run average power, watts. */
    double avgPower() const { return total.avgPower(); }

    /** Whether the whole-run QoS statistic met its budget (never for a
     * run that completed nothing; see windowWithinBudget). */
    bool withinBudget() const { return windowWithinBudget(qos, total); }

    /**
     * Fraction of decided epochs whose selected plan bottoms out in each
     * low-power state (paper Figure 10).
     */
    std::array<double, numLowPowerStates> stateSelectionFractions() const;
};

/**
 * Flatten a runtime result into a per-epoch CSV table (start time,
 * predicted/measured utilization, chosen frequency and state depth,
 * responses, power) for offline plotting.
 */
CsvTable epochsToCsv(const RuntimeResult &result);

/** Epoch-driven SleepScale controller over a simulated server. */
class SleepScaleRuntime
{
  public:
    /**
     * @param platform Power model (not owned; must outlive the runtime).
     * @param spec Workload characterization (service mean anchors the
     *             QoS budget; scaling law shapes service times).
     * @param config Runtime knobs.
     */
    SleepScaleRuntime(const PlatformModel &platform,
                      const WorkloadSpec &spec, RuntimeConfig config);

    /**
     * Run the full trace, pulling arrivals from a streaming source.
     *
     * Jobs are consumed epoch by epoch with one-job lookahead, so the
     * run's job-buffer memory is bounded by the epoch and history
     * windows regardless of the trace length — a million-job day never
     * materializes. Jobs the source produces past the trace horizon
     * are not consumed.
     *
     * @param source Arrival stream (consumed; non-decreasing times).
     * @param trace The utilization trace (defines the time horizon; the
     *              offline predictor reads it directly).
     * @param predictor Utilization predictor, observed every minute.
     */
    RuntimeResult run(JobSource &source, const UtilizationTrace &trace,
                      UtilizationPredictor &predictor) const;

    /**
     * Run a materialized job list — a thin adapter that streams `jobs`
     * through the JobSource overload; results are identical.
     */
    RuntimeResult run(const std::vector<Job> &jobs,
                      const UtilizationTrace &trace,
                      UtilizationPredictor &predictor) const;

    /** The QoS constraint derived from the configuration. */
    const QosConstraint &qos() const { return _qos; }

  private:
    const PlatformModel &_platform;
    WorkloadSpec _spec;
    RuntimeConfig _config;
    QosConstraint _qos;

    /** Persistent decider (null under a fixed policy), so the search
     * engine's plan cache and arenas are built once per runtime, not
     * once per decision. Decisions mutate it, so concurrent run()
     * calls on one runtime instance are not safe. */
    std::unique_ptr<EpochDecider> _decider;
};

} // namespace sleepscale

#endif // SLEEPSCALE_CORE_RUNTIME_HH
