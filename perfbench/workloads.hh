/**
 * @file
 * The benchmark's workloads and the direct run path that measures them.
 *
 * A workload is a fixed list of ScenarioSpecs built from the benchmark
 * seed. runDirect() executes one spec through the public runtimes the
 * way ExperimentRunner::runScenario() does, but splits the wall time
 * into set-up (trace realization, runtime and oracle construction) and
 * the run phase, and keeps the simulated outputs the output checks
 * compare.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hh"
#include "experiment/scenario.hh"
#include "farm/farm_runtime.hh"
#include "tracing.hh"

namespace perfbench {

/** One benchmark workload: the scenarios one repeat runs, in order. */
struct Workload
{
    std::string name;
    std::vector<sleepscale::ScenarioSpec> specs;
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build a workload. The seed drives job arrivals and sizes, dispatch
 * and fault schedules; the utilization trace (the day shape) is part
 * of the workload and stays fixed. fatal() on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The same scenario with every traceable component swapped for its
 * "traced:" decorator (registerTracedComponents() must have run). A
 * fault-free farm keeps faults "none", which selects the fault-free
 * code path by name.
 */
sleepscale::ScenarioSpec tracedSpec(const sleepscale::ScenarioSpec &spec);

/** What runDirect() measured and produced for one scenario. */
struct SpecRun
{
    // Host time (s).
    double traceSeconds = 0.0;  ///< TraceSpec::realize().
    double ctorSeconds = 0.0;   ///< Runtime, source, predictor, oracle.
    double runSeconds = 0.0;    ///< runtime.run() plus the oracle solve.
    double solveSeconds = 0.0;  ///< OfflineOptimal::solve() alone.

    /** Decision wall time of every decided epoch, µs. */
    std::vector<double> decisionMicros;

    /** The traced layers' ledger over the run phase (zero when the
     * scenario names no "traced:" component). */
    Ledger ledger;

    // Simulated outputs.
    bool farm = false;
    std::uint64_t jobs = 0;         ///< Jobs offered.
    std::uint64_t completions = 0;
    double energy = 0.0;            ///< Joules.
    double responseSum = 0.0;       ///< Summed response times, s.
    double meanResponse = 0.0;
    double powerPerServer = 0.0;    ///< Watts.
    double qosRatio = 0.0;          ///< QoS statistic / budget.
    bool withinBudget = false;      ///< The runtime's QoS verdict.
    std::uint64_t decisionHash = 0; ///< FNV-1a over (f, plan) per epoch.
    std::uint64_t farmHash = 0;     ///< FNV-1a over per-server totals.

    // Farm availability plane (zero for single-server scenarios).
    sleepscale::FarmFaultStats faults;

    // Offline oracle (reportRegret scenarios only).
    bool oracle = false;
    double oracleEnergy = 0.0;
    double regretPct = 0.0;
    double epsilon = 0.0;
    double epsilonEffective = 0.0;
    std::size_t frontierPeak = 0;

    /** Set-up wall time, seconds. */
    double setupSeconds() const { return traceSeconds + ctorSeconds; }

    /** Printable simulated-output digest; equal digests mean
     * bit-identical simulated outputs. */
    std::string digest() const;
};

/** Execute one scenario through the runtimes, timing each phase. */
SpecRun runDirect(const sleepscale::ScenarioSpec &spec);

/**
 * Differences between a direct run and runScenario() on the same spec
 * (empty when they agree bit for bit on every shared output).
 */
std::vector<std::string>
compareWithRunner(const SpecRun &run,
                  const sleepscale::ScenarioResult &reference);

/** Bit pattern of a double, for hashing and exact comparison. */
std::uint64_t doubleBits(double value);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
