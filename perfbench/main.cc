/**
 * @file
 * The SleepScale benchmark: one workload, measured end to end with
 * tracing off, or layer by layer with the "traced:" decorators on.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--commit <id>]
 *
 * Each run first executes the workload once through
 * ExperimentRunner::runScenario() (the reference, which also warms
 * the process), then repeats it through the runtimes directly for the
 * measuring time, timing each repeat's set-up and run phase, then
 * checks the outputs. Straight after each scenario a calibration
 * kernel (calibrate.hh) times the host, and the reported host times
 * are scaled to the kernel's reference speed. With
 * --trace 0 it adds one traced repeat for the traced-identical check
 * and prints the end-to-end metrics; with --trace 1 it follows every
 * untraced repeat with a traced one and prints the per-layer ledger.
 * See perfbench/README.md for the workloads and metrics. The last line of
 * standard output is one JSON object: correct, attempted, failed and
 * metrics. A failed output check prints correct=false and exits 1; a
 * build that is not an assert-free Release build exits 2 without a
 * result.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hh"
#include "experiment/runner.hh"
#include "tracing.hh"
#include "workloads.hh"

using namespace perfbench;
using sleepscale::ExperimentRunner;
using sleepscale::ScenarioResult;
using sleepscale::ScenarioSpec;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--commit <id>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--commit")
                args.commit = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile of a sample. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

/** Calibration time after each scenario, as a share of the
 * scenario's own host time. */
constexpr double kCalibrationShare = 0.2;

/** One pass over every scenario of the workload. */
struct Repeat
{
    std::vector<SpecRun> runs;
    /** Per run: seconds of one calibration pass measured right after
     * it. */
    std::vector<double> passSeconds;

    /** Reference seconds per host second for run `i`. */
    double scale(std::size_t i) const
    {
        return kReferencePassSeconds / passSeconds[i];
    }
    /** Set-up time at the reference speed. */
    double setupSeconds() const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < runs.size(); ++i)
            total += runs[i].setupSeconds() * scale(i);
        return total;
    }
    /** Run-phase time at the reference speed. */
    double runSeconds() const
    {
        double total = 0.0;
        for (std::size_t i = 0; i < runs.size(); ++i)
            total += runs[i].runSeconds * scale(i);
        return total;
    }
    double hostSetupSeconds() const
    {
        double total = 0.0;
        for (const SpecRun &run : runs)
            total += run.setupSeconds();
        return total;
    }
    double hostRunSeconds() const
    {
        double total = 0.0;
        for (const SpecRun &run : runs)
            total += run.runSeconds;
        return total;
    }
    std::uint64_t jobs() const
    {
        std::uint64_t total = 0;
        for (const SpecRun &run : runs)
            total += run.jobs;
        return total;
    }
    std::uint64_t dropped() const
    {
        std::uint64_t total = 0;
        for (const SpecRun &run : runs)
            total += run.faults.dropped;
        return total;
    }
    std::string digest() const
    {
        std::string text;
        for (const SpecRun &run : runs)
            text += run.digest() + "\n";
        return text;
    }
};

Repeat
runRepeat(const std::vector<ScenarioSpec> &specs)
{
    Repeat repeat;
    for (const ScenarioSpec &spec : specs) {
        repeat.runs.push_back(runDirect(spec));
        const SpecRun &run = repeat.runs.back();
        repeat.passSeconds.push_back(calibrationPassSeconds(
            kCalibrationShare * (run.setupSeconds() + run.runSeconds)));
    }
    return repeat;
}

/** Output checks; each failure is printed as it is recorded. */
class Checks
{
  public:
    void expect(bool ok, const std::string &name,
                const std::string &detail = "")
    {
        std::cout << "check " << name << ": " << (ok ? "ok" : "FAILED")
                  << (detail.empty() || ok ? "" : " (" + detail + ")")
                  << "\n";
        _ok = _ok && ok;
    }
    bool ok() const { return _ok; }

  private:
    bool _ok = true;
};

/** Name -> (value, unit), printed in insertion order. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit)
    {
        _entries.push_back({name, value, unit});
    }

    void print() const
    {
        for (const Entry &e : _entries)
            std::cout << "metric " << e.name << " = " << number(e.value)
                      << " " << e.unit << "\n";
    }

    std::string json() const
    {
        std::string text = "{";
        for (const Entry &e : _entries) {
            if (text.size() > 1)
                text += ", ";
            text += "\"" + e.name + "\": {\"value\": " + number(e.value) +
                    ", \"unit\": \"" + e.unit + "\"}";
        }
        return text + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> _entries;

    static std::string number(double value)
    {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        return text;
    }
};

double
peakRssMb()
{
    // VmHWM belongs to this program's address space. getrusage()'s
    // ru_maxrss is not used: Linux carries it across exec(), so it
    // would report the launching interpreter's footprint when that is
    // larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB.
    }
    return 0.0;
}

std::string
describe(const ScenarioSpec &spec)
{
    std::ostringstream text;
    text << spec.label << ": " << sleepscale::toString(spec.engine) << " "
         << spec.workload << " " << spec.trace.label() << " strategy="
         << spec.strategy << " predictor=" << spec.predictor
         << " T=" << spec.epochMinutes << "min";
    if (spec.engine == sleepscale::EngineKind::Farm)
        text << " servers=" << spec.farmSize
             << " dispatcher=" << spec.dispatcher
             << " control=" << spec.farmControl << " faults=" << spec.faults
             << " mtbf=" << spec.mtbf << "s mttr=" << spec.mttr << "s";
    if (spec.reportRegret)
        text << " regret epsilon=" << spec.optEpsilon;
    return text.str();
}

/** The per-layer ledger of one traced repeat. */
std::map<std::string, double>
layerMetrics(const Repeat &traced)
{
    std::map<std::string, double> m;
    double farm_self = 0.0;
    double sim_self = 0.0;
    std::uint64_t farm_jobs = 0;
    std::uint64_t sim_jobs = 0;
    for (const SpecRun &run : traced.runs) {
        const Ledger &l = run.ledger;
        double decide = 0.0;
        for (double micros : run.decisionMicros)
            decide += micros;
        m["workload.next_us"] += l.nextSeconds * 1e6;
        m["farm.route_us"] += l.routeSeconds * 1e6;
        m["farm.route_fast"] += static_cast<double>(l.routeFast);
        m["farm.route_failover"] += static_cast<double>(l.routeFailover);
        m["farm.failover_view_total"] +=
            static_cast<double>(l.failoverViewTotal);
        m["fault.next_us"] += l.faultSeconds * 1e6;
        m["fault.events"] += static_cast<double>(l.faultCalls);
        m["core.predict_us"] += l.predictSeconds * 1e6;
        m["core.decide_us"] += decide;
        m["core.decisions"] +=
            static_cast<double>(run.decisionMicros.size());
        const double self = (run.runSeconds - run.solveSeconds -
                             l.childSeconds()) * 1e6 - decide;
        if (run.farm) {
            farm_self += self;
            farm_jobs += run.jobs;
        } else {
            sim_self += self;
            sim_jobs += run.jobs;
        }
        m["farm.retries"] += static_cast<double>(run.faults.retries);
        m["farm.degraded_epochs"] +=
            static_cast<double>(run.faults.degradedEpochs);
        m["farm.dropped"] += static_cast<double>(run.faults.dropped);
        m["analytic.solve_us"] += run.solveSeconds * 1e6;
        m["analytic.frontier_peak"] += static_cast<double>(run.frontierPeak);
        m["analytic.epsilon_effective"] += run.epsilonEffective;
        m["analytic.regret_pct"] += run.regretPct;
        m["setup.ctor_us"] += run.ctorSeconds * 1e6;
        m["setup.trace_us"] += run.traceSeconds * 1e6;
    }
    const double routed = m["farm.route_fast"] + m["farm.route_failover"];
    m["farm.failover_frac"] =
        routed > 0.0 ? m["farm.route_failover"] / routed : 0.0;
    m["farm.failover_view_mean"] =
        m["farm.route_failover"] > 0.0
            ? m["farm.failover_view_total"] / m["farm.route_failover"]
            : 0.0;
    m.erase("farm.failover_view_total");
    m["farm.self_us"] = farm_self;
    m["sim.self_us"] = sim_self;
    m["farm.self_ns_per_job"] =
        farm_jobs ? farm_self * 1e3 / static_cast<double>(farm_jobs) : 0.0;
    m["sim.self_ns_per_job"] =
        sim_jobs ? sim_self * 1e3 / static_cast<double>(sim_jobs) : 0.0;
    return m;
}

/** Unit of a per-layer metric, read from its name. */
std::string
layerUnit(const std::string &name)
{
    const auto ends = [&name](const std::string &suffix) {
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0;
    };
    if (ends("_us"))
        return "us";
    if (ends("_ns_per_job"))
        return "ns/job";
    if (ends("_pct"))
        return "%";
    if (ends("_frac") || ends("_effective"))
        return "ratio";
    if (ends("_mean"))
        return "servers";
    return "count";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

#ifndef NDEBUG
    std::cerr << "perfbench: refusing to measure an assert-enabled build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::cerr << "perfbench: refusing to measure a '"
                  << PERFBENCH_BUILD_TYPE
                  << "' build (configure with -DCMAKE_BUILD_TYPE=Release)\n";
        return 2;
    }

    registerTracedComponents();
    const Workload workload = makeWorkload(args.workload, args.seed);
    std::vector<ScenarioSpec> traced_specs;
    for (const ScenarioSpec &spec : workload.specs)
        traced_specs.push_back(tracedSpec(spec));

    std::cout << "perfbench workload=" << workload.name
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n"
              << "machine: nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << PERFBENCH_COMPILER
              << "\" build=" << PERFBENCH_BUILD_TYPE
              << " asserts=off commit=" << args.commit << "\n";
    for (const ScenarioSpec &spec : workload.specs)
        std::cout << "input " << describe(spec) << "\n"
                  << "pools " << spec.label
                  << ": farmShards=" << spec.farmShards
                  << " decisionThreads=" << spec.decisionThreads
                  << " searchThreads=" << spec.searchThreads << "\n";

    // Reference pass through the declarative entry point; it also
    // warms the process (and the calibration kernel) before anything
    // is timed.
    std::vector<ScenarioResult> references;
    for (const ScenarioSpec &spec : workload.specs)
        references.push_back(ExperimentRunner::runScenario(spec));
    calibrationPassSeconds(0.0);

    // Measured repeats: untraced only, or untraced/traced pairs.
    std::vector<Repeat> plain;
    std::vector<Repeat> traced;
    const auto start = std::chrono::steady_clock::now();
    do {
        plain.push_back(runRepeat(workload.specs));
        const Repeat &last = plain.back();
        std::cout << "repeat " << plain.size()
                  << ": setup_s=" << last.setupSeconds()
                  << " run_s=" << last.runSeconds()
                  << " host_setup_s=" << last.hostSetupSeconds()
                  << " host_run_s=" << last.hostRunSeconds()
                  << " pass_s=" << median(last.passSeconds)
                  << " jobs=" << last.jobs() << "\n";
        if (args.trace)
            traced.push_back(runRepeat(traced_specs));
    } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count() < args.seconds);
    if (!args.trace)
        traced.push_back(runRepeat(traced_specs));

    // ------------------------------------------------------- checks
    Checks checks;
    const Repeat &first = plain.front();
    for (std::size_t i = 0; i < workload.specs.size(); ++i) {
        const SpecRun &run = first.runs[i];
        const std::vector<std::string> diffs =
            compareWithRunner(run, references[i]);
        std::string detail;
        for (const std::string &diff : diffs)
            detail += (detail.empty() ? "" : "; ") + diff;
        checks.expect(diffs.empty(),
                      "runner-equivalence[" + workload.specs[i].label + "]",
                      detail);
        std::cout << "digest " << workload.specs[i].label << ": "
                  << run.digest() << "\n";
        if (run.farm) {
            const auto &f = run.faults;
            checks.expect(f.offered == f.completed + f.dropped + f.inFlight,
                          "conservation[" + workload.specs[i].label + "]",
                          "offered " + std::to_string(f.offered) +
                              " != completed " + std::to_string(f.completed) +
                              " + dropped " + std::to_string(f.dropped) +
                              " + in flight " + std::to_string(f.inFlight));
        }
        if (run.oracle) {
            checks.expect(run.regretPct >= 0.0,
                          "regret-nonnegative[" + workload.specs[i].label +
                              "]",
                          "regret_pct " + std::to_string(run.regretPct));
            checks.expect(run.epsilonEffective <= run.epsilon,
                          "oracle-epsilon[" + workload.specs[i].label + "]",
                          "epsilon_effective " +
                              std::to_string(run.epsilonEffective) + " > " +
                              std::to_string(run.epsilon));
        }
    }
    bool repeats_identical = true;
    for (const Repeat &repeat : plain)
        repeats_identical =
            repeats_identical && repeat.digest() == first.digest();
    checks.expect(repeats_identical, "repeats-identical",
                  "simulated outputs differ between repeats");
    bool traced_identical = true;
    for (const Repeat &repeat : traced)
        traced_identical =
            traced_identical && repeat.digest() == first.digest();
    checks.expect(traced_identical, "traced-identical",
                  "traced run changed simulated outputs");

    // ------------------------------------------------------ metrics
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Repeat &repeat : plain) {
        attempted += repeat.jobs();
        failed += repeat.dropped();
    }
    if (!checks.ok())
        failed = attempted;

    std::vector<double> decisions;
    std::vector<double> throughput;
    std::vector<double> setup_samples;
    std::vector<double> host_throughput;
    std::vector<double> host_setup;
    for (const Repeat &repeat : plain) {
        for (const SpecRun &run : repeat.runs)
            decisions.insert(decisions.end(), run.decisionMicros.begin(),
                             run.decisionMicros.end());
        throughput.push_back(static_cast<double>(repeat.jobs()) /
                             repeat.runSeconds());
        setup_samples.push_back(repeat.setupSeconds());
        host_throughput.push_back(static_cast<double>(repeat.jobs()) /
                                  repeat.hostRunSeconds());
        host_setup.push_back(repeat.hostSetupSeconds());
    }

    double power = 0.0;
    double qos_ratio = 0.0;
    for (std::size_t i = 0; i < first.runs.size(); ++i) {
        const SpecRun &run = first.runs[i];
        power += run.powerPerServer / static_cast<double>(first.runs.size());
        qos_ratio = std::max(qos_ratio, run.qosRatio);
        std::cout << "sim " << workload.specs[i].label
                  << ": power_w_per_server=" << run.powerPerServer
                  << " qos_ratio=" << run.qosRatio
                  << (run.withinBudget ? " (within budget)" : " (MISS)")
                  << " drop_frac="
                  << (run.jobs ? static_cast<double>(run.faults.dropped) /
                                     static_cast<double>(run.jobs)
                               : 0.0);
        if (run.oracle)
            std::cout << " regret_pct=" << run.regretPct
                      << " epsilon_effective=" << run.epsilonEffective;
        std::cout << "\n";
    }
    const double drop_frac =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 0.0;
    std::cout << "repeats: " << plain.size() << " untraced, "
              << traced.size() << " traced\n"
              << "figure decision_us_p50 = " << percentile(decisions, 50.0)
              << " us, decision_us_p95 = " << percentile(decisions, 95.0)
              << " us (" << decisions.size() << " decisions)\n"
              << "figure qos_ratio = " << qos_ratio
              << " ratio (worst scenario; above 1 misses the budget)\n"
              << "figure drop_frac = " << drop_frac << " ratio\n"
              << "figure host_jobs_per_s = " << median(host_throughput)
              << " 1/s, host_setup_s = " << median(host_setup)
              << " s (unscaled host time)\n";

    Metrics metrics;
    if (!args.trace) {
        metrics.add("setup_s", median(setup_samples), "s");
        metrics.add("jobs_per_s", median(throughput), "1/s");
        metrics.add("peak_rss_mb", peakRssMb(), "MB");
        metrics.add("power_w_per_server", power, "W");
    } else {
        std::map<std::string, std::vector<double>> samples;
        for (const Repeat &repeat : traced)
            for (const auto &[name, value] : layerMetrics(repeat))
                samples[name].push_back(value);
        std::vector<double> plain_wall;
        std::vector<double> traced_wall;
        for (const Repeat &repeat : plain)
            plain_wall.push_back(repeat.runSeconds());
        for (const Repeat &repeat : traced)
            traced_wall.push_back(repeat.runSeconds());
        std::vector<double> passes;
        for (const Repeat &repeat : traced)
            passes.insert(passes.end(), repeat.passSeconds.begin(),
                          repeat.passSeconds.end());
        samples["calibrate.pass_us"] = {median(passes) * 1e6};
        for (const auto &[name, values] : samples)
            metrics.add(name, median(values), layerUnit(name));
        metrics.add("core.decision_us_p50", percentile(decisions, 50.0),
                    "us");
        metrics.add("core.decision_us_p95", percentile(decisions, 95.0),
                    "us");
        metrics.add("trace.overhead_pct",
                    100.0 * (median(traced_wall) / median(plain_wall) - 1.0),
                    "%");
    }
    metrics.print();
    std::cout << "{\"correct\": " << (checks.ok() ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return checks.ok() ? 0 : 1;
}
