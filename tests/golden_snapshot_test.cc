/**
 * @file
 * Golden decision-snapshot regression for the Table 5 workloads.
 *
 * Pins the per-epoch (frequency, sleep-state) decisions and the total
 * energy of one canonical SleepScale day-slice per workload (dns,
 * mail, google) to committed golden CSVs under tests/golden/, plus
 * the offline-optimal oracle's energy and the strategy's regret on a
 * thinned variant of each slice (docs/OFFLINE_OPT.md). Any change to
 * the predictor chain, the policy-evaluation engine, the QoS budget,
 * the simulator, or the oracle that shifts a single epoch decision or
 * regret number fails here with a per-epoch diff instead of silently
 * changing every figure downstream.
 *
 * Regeneration (after an INTENDED behavior change):
 *
 *   tools/update_goldens.sh
 *
 * which rebuilds this test and reruns it with SLEEPSCALE_UPDATE_GOLDENS=1
 * set, rewriting the committed files; the git diff then shows exactly
 * which decisions moved.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/predictor.hh"
#include "core/runtime.hh"
#include "core/strategies.hh"
#include "experiment/runner.hh"
#include "farm/farm_runtime.hh"
#include "power/platform_model.hh"
#include "util/csv.hh"
#include "util/error.hh"
#include "workload/job_source.hh"
#include "workload/workload_spec.hh"

namespace sleepscale {
namespace {

#ifndef SLEEPSCALE_SOURCE_DIR
#error "SLEEPSCALE_SOURCE_DIR must point at the repository root"
#endif

std::string
goldenPath(const std::string &workload)
{
    return std::string(SLEEPSCALE_SOURCE_DIR) + "/tests/golden/table5_" +
           workload + ".csv";
}

/** The canonical pinned scenario: one 2AM-8AM email-store slice. */
ScenarioSpec
goldenScenario(const std::string &workload)
{
    return ScenarioBuilder("golden " + workload)
        .workload(workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(20140614)
        .window(2, 8)
        .epochMinutes(5)
        .strategy("SS")
        .overProvision(0.35)
        .rhoB(0.8)
        .predictor("LC")
        .seed(20140614)
        .captureEpochs()
        .build();
}

/** Decisions + total energy as a CSV table (constant energy column). */
CsvTable
snapshotOf(const ScenarioResult &result)
{
    CsvTable table;
    table.headers = {"epoch", "frequency", "state_depth",
                     "total_energy_j"};
    const auto epochs = result.epochs.column("epoch");
    const auto frequencies = result.epochs.column("frequency");
    const auto depths = result.epochs.column("state_depth");
    for (std::size_t i = 0; i < epochs.size(); ++i)
        table.addRow(
            {epochs[i], frequencies[i], depths[i], result.energy});
    return table;
}

class GoldenSnapshot : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GoldenSnapshot, Table5DecisionsMatchGolden)
{
    const std::string workload = GetParam();
    const ScenarioResult result =
        ExperimentRunner::runScenario(goldenScenario(workload));
    const CsvTable actual = snapshotOf(result);
    const std::string path = goldenPath(workload);

    if (std::getenv("SLEEPSCALE_UPDATE_GOLDENS") != nullptr) {
        writeCsvFile(path, actual);
        std::cout << "golden updated: " << path << " ("
                  << actual.rows.size() << " epochs)\n";
        return;
    }

    CsvTable golden;
    try {
        golden = readCsvFile(path);
    } catch (const ConfigError &error) {
        FAIL() << "cannot read golden file " << path << ": "
               << error.what()
               << "\n(generate it with tools/update_goldens.sh)";
    }

    ASSERT_EQ(golden.headers, actual.headers) << path;
    ASSERT_EQ(golden.rows.size(), actual.rows.size())
        << workload << ": epoch count changed (golden "
        << golden.rows.size() << ", actual " << actual.rows.size()
        << "); regenerate with tools/update_goldens.sh if intended";

    // Per-epoch diff: collect every divergence before failing, so the
    // failure message shows the whole drift, not just the first row.
    std::string diff;
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        const double golden_f = golden.rows[i][1];
        const double actual_f = actual.rows[i][1];
        const double golden_depth = golden.rows[i][2];
        const double actual_depth = actual.rows[i][2];
        if (std::fabs(golden_f - actual_f) > 1e-9 ||
            golden_depth != actual_depth) {
            diff += "  epoch " + std::to_string(i) + ": golden (f=" +
                    std::to_string(golden_f) + ", depth=" +
                    std::to_string(static_cast<int>(golden_depth)) +
                    ") vs actual (f=" + std::to_string(actual_f) +
                    ", depth=" +
                    std::to_string(static_cast<int>(actual_depth)) +
                    ")\n";
        }
    }
    EXPECT_TRUE(diff.empty())
        << workload << ": per-epoch decisions drifted from " << path
        << ":\n"
        << diff
        << "regenerate with tools/update_goldens.sh if this change is "
           "intended";

    const double golden_energy = golden.rows.front()[3];
    EXPECT_NEAR(result.energy / golden_energy, 1.0, 1e-9)
        << workload << ": total energy drifted (golden "
        << golden_energy << " J, actual " << result.energy << " J)";
}

INSTANTIATE_TEST_SUITE_P(Table5, GoldenSnapshot,
                         ::testing::Values("dns", "mail", "google"));

// ------------------------------------------------ oracle regret pins
//
// Golden regret snapshots (docs/OFFLINE_OPT.md): the same 2AM-8AM
// slices scored against the offline-optimal oracle, pinning the
// per-epoch decisions alongside offline_opt_energy and regret_pct in
// tests/golden/table5_<workload>_regret.csv. The mail and google
// arrival streams are thinned (the slice packs 10-100x more jobs
// than dns at the same utilization) so each oracle solve stays a few
// seconds; the thinned log is pinned like any other scenario knob.
// Regeneration: tools/update_goldens.sh, same as the decision pins.

struct RegretGoldenCase
{
    const char *workload;
    double rate_scale;
};

ScenarioSpec
regretScenario(const RegretGoldenCase &c)
{
    return ScenarioBuilder(std::string("golden regret ") + c.workload)
        .workload(c.workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(20140614)
        .window(2, 8)
        .epochMinutes(5)
        .strategy("SS")
        .overProvision(0.35)
        .rhoB(0.8)
        .predictor("LC")
        .sourceRateScale(c.rate_scale)
        .reportRegret()
        .seed(20140614)
        .captureEpochs()
        .build();
}

/** Decisions + oracle scalars, one row per epoch (the energy, oracle,
 * and regret columns are constant; keeping the per-epoch rows is what
 * makes a failure diff per-epoch). */
CsvTable
regretSnapshotOf(const ScenarioResult &result)
{
    CsvTable table;
    table.headers = {"epoch",          "frequency",
                     "state_depth",    "total_energy_j",
                     "offline_opt_energy_j", "regret_pct"};
    const auto epochs = result.epochs.column("epoch");
    const auto frequencies = result.epochs.column("frequency");
    const auto depths = result.epochs.column("state_depth");
    for (std::size_t i = 0; i < epochs.size(); ++i)
        table.addRow({epochs[i], frequencies[i], depths[i],
                      result.energy,
                      result.extra("offline_opt_energy"),
                      result.extra("regret_pct")});
    return table;
}

class GoldenRegret : public ::testing::TestWithParam<RegretGoldenCase>
{
};

TEST_P(GoldenRegret, Table5RegretMatchesGolden)
{
    const RegretGoldenCase c = GetParam();
    const ScenarioResult result =
        ExperimentRunner::runScenario(regretScenario(c));
    const CsvTable actual = regretSnapshotOf(result);
    const std::string path = std::string(SLEEPSCALE_SOURCE_DIR) +
                             "/tests/golden/table5_" + c.workload +
                             "_regret.csv";

    if (std::getenv("SLEEPSCALE_UPDATE_GOLDENS") != nullptr) {
        writeCsvFile(path, actual);
        std::cout << "golden updated: " << path << " ("
                  << actual.rows.size() << " epochs)\n";
        return;
    }

    CsvTable golden;
    try {
        golden = readCsvFile(path);
    } catch (const ConfigError &error) {
        FAIL() << "cannot read golden file " << path << ": "
               << error.what()
               << "\n(generate it with tools/update_goldens.sh)";
    }

    ASSERT_EQ(golden.headers, actual.headers) << path;
    ASSERT_EQ(golden.rows.size(), actual.rows.size())
        << c.workload << ": epoch count changed (golden "
        << golden.rows.size() << ", actual " << actual.rows.size()
        << "); regenerate with tools/update_goldens.sh if intended";

    // Per-epoch decision diff first: if decisions drifted, the log
    // the oracle scored drifted too, and the regret delta is just a
    // symptom of that.
    std::string diff;
    for (std::size_t i = 0; i < golden.rows.size(); ++i) {
        if (std::fabs(golden.rows[i][1] - actual.rows[i][1]) > 1e-9 ||
            golden.rows[i][2] != actual.rows[i][2]) {
            diff += "  epoch " + std::to_string(i) + ": golden (f=" +
                    std::to_string(golden.rows[i][1]) + ", depth=" +
                    std::to_string(static_cast<int>(golden.rows[i][2])) +
                    ") vs actual (f=" +
                    std::to_string(actual.rows[i][1]) + ", depth=" +
                    std::to_string(static_cast<int>(actual.rows[i][2])) +
                    ")\n";
        }
    }
    EXPECT_TRUE(diff.empty())
        << c.workload << ": per-epoch decisions drifted from " << path
        << ":\n"
        << diff
        << "regenerate with tools/update_goldens.sh if this change is "
           "intended";

    // Oracle pins: a drift here with unchanged decisions means the
    // oracle itself moved (docs/OFFLINE_OPT.md).
    const double golden_opt = golden.rows.front()[4];
    const double actual_opt = result.extra("offline_opt_energy");
    EXPECT_NEAR(actual_opt / golden_opt, 1.0, 1e-9)
        << c.workload << ": offline-optimal energy drifted (golden "
        << golden_opt << " J, actual " << actual_opt << " J)";
    const double golden_regret = golden.rows.front()[5];
    EXPECT_NEAR(result.extra("regret_pct"), golden_regret, 1e-7)
        << c.workload << ": regret drifted (golden " << golden_regret
        << "%, actual " << result.extra("regret_pct") << "%)";
    // And the invariant the pins ride on: the strategy never beats
    // the certified lower bound.
    EXPECT_GE(result.extra("regret_pct"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, GoldenRegret,
    ::testing::Values(RegretGoldenCase{"dns", 1.0},
                      RegretGoldenCase{"mail", 0.3},
                      RegretGoldenCase{"google", 0.05}),
    [](const ::testing::TestParamInfo<RegretGoldenCase> &param_info) {
        return std::string(param_info.param.workload);
    });

// --------------------------------------------- single-server pins
//
// The decision goldens above pin SS at α = 0.35 only. These pins run
// SleepScaleRuntime directly on the same 2AM-8AM slices for every
// registered strategy (and pruned SS) at α ∈ {0, 0.35}, and take the
// whole run bit for bit: an FNV-1a hash of every epoch's decision
// (frequency, sleep plan, decided/feasible/boosted flags), the total
// energy, the sum of response times and the sum of the per-epoch
// measured utilization. A changed value is a regression of the
// single-server epoch loop unless its decision rule moved on purpose.

/** The golden slice's scenario, with the strategy knobs swapped. */
ScenarioSpec
sliceScenario(const std::string &workload, const std::string &strategy,
              bool pruned, double alpha)
{
    return ScenarioBuilder("pin " + workload + "/" + strategy)
        .workload(workload)
        .trace("es")
        .traceDays(1)
        .traceSeed(20140614)
        .window(2, 8)
        .epochMinutes(5)
        .strategy(strategy)
        .prunedSearch(pruned)
        .overProvision(alpha)
        .rhoB(0.8)
        .predictor("LC")
        .seed(20140614)
        .build();
}

/** The per-server configuration a scenario's strategy knobs give. */
RuntimeConfig
sliceConfig(const ScenarioSpec &spec)
{
    StrategyKnobs knobs;
    knobs.epochMinutes = spec.epochMinutes;
    knobs.overProvision = spec.overProvision;
    knobs.rhoB = spec.rhoB;
    knobs.prunedSearch = spec.prunedSearch;
    return strategyConfigByName(spec.strategy, knobs);
}

/** A fresh job source for a scenario (farm-size 1 aggregate). */
std::unique_ptr<JobSource>
sliceSource(const ScenarioSpec &spec, const UtilizationTrace &trace)
{
    JobSourceConfig config;
    config.workload = workloadByName(spec.workload);
    config.trace = trace;
    config.seed = spec.seed;
    return makeJobSource(spec.source, config);
}

RuntimeResult
runSlice(const ScenarioSpec &spec)
{
    const PlatformModel platform = platformByName(spec.platform);
    const UtilizationTrace trace = spec.trace.realize();
    const SleepScaleRuntime runtime(
        platform, workloadByName(spec.workload), sliceConfig(spec));
    const auto source = sliceSource(spec, trace);
    const auto predictor = makePredictor(
        spec.predictor, spec.predictorHistory, trace.values());
    return runtime.run(*source, trace, *predictor);
}

void
fnvMix(std::uint64_t &hash, std::uint64_t value)
{
    hash ^= value;
    hash *= 1099511628211ull;
}

std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

std::uint64_t
decisionHash(const std::vector<EpochReport> &epochs)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const EpochReport &epoch : epochs) {
        fnvMix(hash, doubleBits(epoch.policy.frequency));
        fnvMix(hash,
               static_cast<std::uint64_t>(epoch.policy.plan.deepest()));
        fnvMix(hash, static_cast<std::uint64_t>(epoch.policy.plan.size()));
        fnvMix(hash, (epoch.decided ? 1u : 0u) |
                         (epoch.feasible ? 2u : 0u) |
                         (epoch.boosted ? 4u : 0u));
    }
    return hash;
}

struct SingleServerPin
{
    const char *strategy;
    bool pruned;
    double alpha;
    std::uint64_t decisions;
    double energy;
    double responseSum;
    double measuredSum;
};

struct SingleServerPins
{
    const char *workload;
    std::vector<SingleServerPin> rows;
};

class SingleServerPinTest : public ::testing::TestWithParam<SingleServerPins>
{
};

TEST_P(SingleServerPinTest, DecisionsAndTotalsBitForBit)
{
    const SingleServerPins &pins = GetParam();
    for (const SingleServerPin &pin : pins.rows) {
        const RuntimeResult run = runSlice(sliceScenario(
            pins.workload, pin.strategy, pin.pruned, pin.alpha));
        double measured_sum = 0.0;
        for (const EpochReport &epoch : run.epochs)
            measured_sum += epoch.measuredUtilization;
        const std::uint64_t decisions = decisionHash(run.epochs);
        char row[256];
        std::snprintf(row, sizeof row,
                      "{\"%s\", %s, %g, %" PRIu64 "ull, %a, %a, %a},",
                      pin.strategy, pin.pruned ? "true" : "false",
                      pin.alpha, decisions, run.total.energy,
                      run.total.response.sum(), measured_sum);
        // EXPECT_EQ on doubles on purpose: the contract is bit-for-bit.
        EXPECT_EQ(decisions, pin.decisions) << pins.workload << " " << row;
        EXPECT_EQ(run.total.energy, pin.energy) << pins.workload << " " << row;
        EXPECT_EQ(run.total.response.sum(), pin.responseSum)
            << pins.workload << " " << row;
        EXPECT_EQ(measured_sum, pin.measuredSum)
            << pins.workload << " " << row;
    }
}

// Recorded on the runtime before the farm and the single server shared
// their decision slot.
const std::vector<SingleServerPin> dnsPins = {
    {"SS", false, 0.0, 10779950611389691088ull,
     0x1.fd34027a4d58fp+20, 0x1.4864bcdbf512dp+17, 0x1.a2425949d0dbfp+3},
    {"SS(C3)", false, 0.0, 12476048009927271491ull,
     0x1.1223daaa9d9f4p+21, 0x1.472a179a3ffb3p+16, 0x1.a2425949d0dbfp+3},
    {"DVFS", false, 0.0, 17843294834119114432ull,
     0x1.fd9e09f50ef91p+20, 0x1.486476f8a11adp+17, 0x1.a2425949d0dbfp+3},
    {"R2H(C3)", false, 0.0, 7937070008698515539ull,
     0x1.29be0c9ecd78cp+21, 0x1.5b2d70a6fc5c9p+12, 0x1.a2425949d0dbfp+3},
    {"R2H(C6)", false, 0.0, 4652213217693360835ull,
     0x1.1aed83baec954p+21, 0x1.5c5178d2fbff6p+12, 0x1.a2425949d0dbfp+3},
    {"poet", false, 0.0, 11624449611641900458ull,
     0x1.14f2bf1483f37p+21, 0x1.11b98badae2f4p+18, 0x1.a2425949d0dbfp+3},
    {"SS", true, 0.0, 10779950611389691088ull,
     0x1.fd34027a4d58fp+20, 0x1.4864bcdbf512dp+17, 0x1.a2425949d0dbfp+3},
    {"SS", false, 0.35, 13274364948426151981ull,
     0x1.09ed77dbe3db8p+21, 0x1.3a6fbd2d42272p+15, 0x1.a2425949d0dbfp+3},
    {"SS(C3)", false, 0.35, 10122219116578118443ull,
     0x1.142ce1100cd01p+21, 0x1.8e760de8dd8a5p+13, 0x1.a2425949d0dbfp+3},
    {"DVFS", false, 0.35, 13344323892859305533ull,
     0x1.0ab5b1f2a3dadp+21, 0x1.3a6ea499cd69ep+15, 0x1.a2425949d0dbfp+3},
    {"R2H(C3)", false, 0.35, 7937070008698515539ull,
     0x1.29be0c9ecd78cp+21, 0x1.5b2d70a6fc5c9p+12, 0x1.a2425949d0dbfp+3},
    {"R2H(C6)", false, 0.35, 4652213217693360835ull,
     0x1.1aed83baec954p+21, 0x1.5c5178d2fbff6p+12, 0x1.a2425949d0dbfp+3},
    {"poet", false, 0.35, 5944832673680243321ull,
     0x1.0ea37f853e08p+21, 0x1.6d915a38353ebp+17, 0x1.a2425949d0dbfp+3},
    {"SS", true, 0.35, 13274364948426151981ull,
     0x1.09ed77dbe3db8p+21, 0x1.3a6fbd2d42272p+15, 0x1.a2425949d0dbfp+3},
};

const std::vector<SingleServerPin> mailPins = {
    {"SS", false, 0.0, 10478092441255123726ull,
     0x1.2809516d07af5p+21, 0x1.c40b34013f6c9p+14, 0x1.b86a41b4c9448p+3},
    {"SS(C3)", false, 0.0, 13400468042982618364ull,
     0x1.2211d6a95213fp+21, 0x1.af2ae44a8b97dp+14, 0x1.b86a41b4c9448p+3},
    {"DVFS", false, 0.0, 903633960484931137ull,
     0x1.4bda8293aea1dp+21, 0x1.c91715b79294p+14, 0x1.b86a41b4c9448p+3},
    {"R2H(C3)", false, 0.0, 7937070008698515539ull,
     0x1.2e02bb0b14eb2p+21, 0x1.24f96987ac8a8p+14, 0x1.b86a41b4c9448p+3},
    {"R2H(C6)", false, 0.0, 4652213217693360835ull,
     0x1.1fa24c9cca761p+21, 0x1.25935da67856ep+14, 0x1.b86a41b4c9448p+3},
    {"poet", false, 0.0, 6861364162662835305ull,
     0x1.4b28880874982p+21, 0x1.0944777cbb446p+15, 0x1.b86a41b4c9448p+3},
    {"SS", true, 0.0, 10478092441255123726ull,
     0x1.2809516d07af5p+21, 0x1.c40b34013f6c9p+14, 0x1.b86a41b4c9448p+3},
    {"SS", false, 0.35, 6905666663301285906ull,
     0x1.32d42aed00b43p+21, 0x1.4973bd611cebap+14, 0x1.b86a41b4c9448p+3},
    {"SS(C3)", false, 0.35, 15011558159276153506ull,
     0x1.2b8526c8a8a68p+21, 0x1.41eed47738357p+14, 0x1.b86a41b4c9448p+3},
    {"DVFS", false, 0.35, 9289844850738945661ull,
     0x1.816a3f1aa6069p+21, 0x1.4e3c7c6ce3deap+14, 0x1.b86a41b4c9448p+3},
    {"R2H(C3)", false, 0.35, 7937070008698515539ull,
     0x1.2e02bb0b14eb2p+21, 0x1.24f96987ac8a8p+14, 0x1.b86a41b4c9448p+3},
    {"R2H(C6)", false, 0.35, 4652213217693360835ull,
     0x1.1fa24c9cca761p+21, 0x1.25935da67856ep+14, 0x1.b86a41b4c9448p+3},
    {"poet", false, 0.35, 7222158962591096721ull,
     0x1.42d854fc5c1c4p+21, 0x1.a9c082f37ba1cp+14, 0x1.b86a41b4c9448p+3},
    {"SS", true, 0.35, 6905666663301285906ull,
     0x1.32d42aed00b43p+21, 0x1.4973bd611cebap+14, 0x1.b86a41b4c9448p+3},
};

const std::vector<SingleServerPin> googlePins = {
    {"SS", false, 0.0, 10175209526205378177ull,
     0x1.fdb597017d231p+20, 0x1.8a7c402d90b7bp+22, 0x1.a5308361c5dbep+3},
    {"SS(C3)", false, 0.0, 16545993698758357823ull,
     0x1.12b95ea7e8ed7p+21, 0x1.45fe070876bb5p+21, 0x1.a5308361c5dbep+3},
    {"DVFS", false, 0.0, 9552955214034776770ull,
     0x1.fdbb905b0873ep+20, 0x1.8a7c3f296723ep+22, 0x1.a5308361c5dbep+3},
    {"R2H(C3)", false, 0.0, 7937070008698515539ull,
     0x1.2ba86a14eb822p+21, 0x1.884c27f522973p+12, 0x1.a5308361c5dbep+3},
    {"R2H(C6)", false, 0.0, 4652213217693360835ull,
     0x1.28fc6fc52c249p+21, 0x1.bb8330a59fbdep+12, 0x1.a5308361c5dbep+3},
    {"poet", false, 0.0, 13892889695443981792ull,
     0x1.161c31ac8dee4p+21, 0x1.08409ae2027d2p+23, 0x1.a5308361c5dbep+3},
    {"SS", true, 0.0, 10175209526205378177ull,
     0x1.fdb597017d231p+20, 0x1.8a7c402d90b7bp+22, 0x1.a5308361c5dbep+3},
    {"SS", false, 0.35, 8796590217924888874ull,
     0x1.0b928673be39cp+21, 0x1.93fa9cc2915e9p+19, 0x1.a5308361c5dbep+3},
    {"SS(C3)", false, 0.35, 13075161090384733118ull,
     0x1.159ac4ab2f437p+21, 0x1.1796f54b76514p+14, 0x1.a5308361c5dbep+3},
    {"DVFS", false, 0.35, 9418835734002464593ull,
     0x1.0be433dff36a3p+21, 0x1.93fa94a01baafp+19, 0x1.a5308361c5dbep+3},
    {"R2H(C3)", false, 0.35, 7937070008698515539ull,
     0x1.2ba86a14eb822p+21, 0x1.884c27f522973p+12, 0x1.a5308361c5dbep+3},
    {"R2H(C6)", false, 0.35, 4652213217693360835ull,
     0x1.28fc6fc52c249p+21, 0x1.bb8330a59fbdep+12, 0x1.a5308361c5dbep+3},
    {"poet", false, 0.35, 10657797006673874326ull,
     0x1.12fd2ffcd934ap+21, 0x1.b4b25eb9a15c5p+19, 0x1.a5308361c5dbep+3},
    {"SS", true, 0.35, 8796590217924888874ull,
     0x1.0b928673be39cp+21, 0x1.93fa9cc2915e9p+19, 0x1.a5308361c5dbep+3},
};

INSTANTIATE_TEST_SUITE_P(
    Table5, SingleServerPinTest,
    ::testing::Values(SingleServerPins{"dns", dnsPins},
                      SingleServerPins{"mail", mailPins},
                      SingleServerPins{"google", googlePins}),
    [](const ::testing::TestParamInfo<SingleServerPins> &param_info) {
        return std::string(param_info.param.workload);
    });

// ------------------------------------ one-server farm equivalence
//
// SleepScaleRuntime keeps its own loop over one ServerSim (a one-server
// ServerFarm costs more per job), but both runtimes decide through the
// same epoch procedure. A one-server, fault-free farm therefore has to
// reproduce the single-server run bit for bit under either decision
// scope: every epoch's policy, flags and window, and the total energy.

void
expectSameWindow(const SimStats &farm, const SimStats &single,
                 const std::string &where)
{
    EXPECT_EQ(farm.windowStart, single.windowStart) << where;
    EXPECT_EQ(farm.windowEnd, single.windowEnd) << where;
    EXPECT_EQ(farm.energy, single.energy) << where;
    EXPECT_EQ(farm.busyTime, single.busyTime) << where;
    EXPECT_EQ(farm.wakeTime, single.wakeTime) << where;
    EXPECT_EQ(farm.arrivals, single.arrivals) << where;
    EXPECT_EQ(farm.completions, single.completions) << where;
    EXPECT_EQ(farm.response.sum(), single.response.sum()) << where;
}

class OneServerFarm : public ::testing::TestWithParam<const char *>
{
};

TEST_P(OneServerFarm, ReproducesTheSingleServerRuntime)
{
    const std::string workload = GetParam();
    const struct
    {
        const char *strategy;
        bool pruned;
    } strategies[] = {{"SS", false},
                      {"SS", true},
                      {"poet", false},
                      {"DVFS", false},
                      {"R2H(C6)", false}};
    for (const auto &strategy : strategies) {
        const ScenarioSpec spec = sliceScenario(
            workload, strategy.strategy, strategy.pruned, 0.35);
        const RuntimeResult single = runSlice(spec);
        for (const char *control : {"farm-wide", "per-server"}) {
            const std::string label = workload + "/" + strategy.strategy +
                                      (strategy.pruned ? "/pruned/" : "/") +
                                      control;
            FarmRuntimeConfig config;
            config.farmSize = 1;
            config.control = control;
            config.perServer = sliceConfig(spec);
            const PlatformModel platform = platformByName(spec.platform);
            const UtilizationTrace trace = spec.trace.realize();
            const FarmRuntime runtime(
                platform, workloadByName(spec.workload), config);
            const auto source = sliceSource(spec, trace);
            const auto predictor = makePredictor(
                spec.predictor, spec.predictorHistory, trace.values());
            const FarmRuntimeResult farm =
                runtime.run(*source, trace, *predictor);

            ASSERT_EQ(farm.epochs.size(), single.epochs.size()) << label;
            for (std::size_t i = 0; i < single.epochs.size(); ++i) {
                const EpochReport &f = farm.epochs[i];
                const EpochReport &s = single.epochs[i];
                const std::string where =
                    label + " epoch " + std::to_string(i);
                EXPECT_EQ(f.policy.frequency, s.policy.frequency) << where;
                EXPECT_EQ(f.policy.plan.deepest(), s.policy.plan.deepest())
                    << where;
                EXPECT_EQ(f.policy.plan.size(), s.policy.plan.size())
                    << where;
                EXPECT_EQ(f.decided, s.decided) << where;
                EXPECT_EQ(f.feasible, s.feasible) << where;
                EXPECT_EQ(f.boosted, s.boosted) << where;
                EXPECT_EQ(f.predictedUtilization, s.predictedUtilization)
                    << where;
                expectSameWindow(f.stats, s.stats, where);
            }
            EXPECT_EQ(farm.total.energy, single.total.energy) << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table5, OneServerFarm,
                         ::testing::Values("dns", "mail", "google"));

} // namespace
} // namespace sleepscale
