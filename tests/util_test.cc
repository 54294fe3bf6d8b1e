/**
 * @file
 * Unit tests for the foundation utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/csv.hh"
#include "util/error.hh"
#include "util/online_stats.hh"
#include "util/quantile_histogram.hh"
#include "util/rng.hh"
#include "util/sample_stats.hh"
#include "util/table_printer.hh"

namespace sleepscale {
namespace {

// ---------------------------------------------------------------- errors

TEST(Error, FatalThrowsConfigError)
{
    EXPECT_THROW(fatal("bad input"), ConfigError);
}

TEST(Error, PanicThrowsInternalError)
{
    EXPECT_THROW(panic("broken invariant"), InternalError);
}

TEST(Error, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "fine"));
    EXPECT_THROW(fatalIf(true, "bad"), ConfigError);
}

TEST(Error, MessagesAreForwarded)
{
    try {
        fatal("specific cause");
        FAIL() << "fatal() must throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("specific cause"),
                  std::string::npos);
    }
}

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(2.5, 3.5);
        ASSERT_GE(u, 2.5);
        ASSERT_LT(u, 3.5);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    OnlineStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.005);
}

TEST(Rng, ExponentialMatchesMeanAndCv)
{
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 400000; ++i)
        stats.add(rng.exponential(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.cv(), 1.0, 0.02);
}

TEST(Rng, NormalMatchesMoments)
{
    Rng rng(17);
    OnlineStats stats;
    for (int i = 0; i < 400000; ++i)
        stats.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.02);
}

TEST(Rng, UniformIntCoversRangeUniformly)
{
    Rng rng(19);
    std::array<int, 7> counts{};
    for (int i = 0; i < 70000; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 400);
}

TEST(Rng, ForkedStreamsAreDecorrelated)
{
    Rng parent(23);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    OnlineStats diff;
    for (int i = 0; i < 10000; ++i)
        diff.add(a.uniform() - b.uniform());
    EXPECT_NEAR(diff.mean(), 0.0, 0.02);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, InvalidArgumentsThrow)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), ConfigError);
    EXPECT_THROW(rng.exponential(-1.0), ConfigError);
    EXPECT_THROW(rng.uniformInt(0), ConfigError);
    EXPECT_THROW(rng.uniform(2.0, 1.0), ConfigError);
    EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
}

// ----------------------------------------------------------- OnlineStats

TEST(OnlineStats, KnownSmallSample)
{
    OnlineStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsSafe)
{
    OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.cv(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential)
{
    Rng rng(29);
    OnlineStats whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.exponential(2.0);
        whole.add(x);
        (i < 400 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptySides)
{
    OnlineStats empty, filled;
    filled.add(1.0);
    filled.add(3.0);

    OnlineStats a = filled;
    a.merge(empty);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    OnlineStats b = empty;
    b.merge(filled);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
    EXPECT_EQ(b.count(), 2u);
}

TEST(OnlineStats, CvOfConstantIsZero)
{
    OnlineStats stats;
    for (int i = 0; i < 10; ++i)
        stats.add(4.2);
    EXPECT_NEAR(stats.cv(), 0.0, 1e-9);
}

// ----------------------------------------------------------- SampleStats

TEST(SampleStats, PercentileInterpolates)
{
    SampleStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 3.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(25.0), 2.0);
    EXPECT_DOUBLE_EQ(stats.percentile(12.5), 1.5);
}

TEST(SampleStats, ExceedanceCountsInclusive)
{
    SampleStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        stats.add(x);
    EXPECT_DOUBLE_EQ(stats.exceedance(2.5), 0.5);
    EXPECT_DOUBLE_EQ(stats.exceedance(1.0), 1.0);
    EXPECT_DOUBLE_EQ(stats.exceedance(4.5), 0.0);
}

TEST(SampleStats, AddAfterPercentileStillCorrect)
{
    SampleStats stats;
    stats.add(3.0);
    stats.add(1.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 3.0);
    stats.add(5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(100.0), 5.0);
    EXPECT_DOUBLE_EQ(stats.percentile(50.0), 3.0);
}

TEST(SampleStats, InvalidPercentileThrows)
{
    SampleStats stats;
    stats.add(1.0);
    EXPECT_THROW(stats.percentile(-1.0), ConfigError);
    EXPECT_THROW(stats.percentile(101.0), ConfigError);
}

// ----------------------------------------------------- QuantileHistogram

TEST(QuantileHistogram, PercentileTracksExactWithinResolution)
{
    Rng rng(31);
    QuantileHistogram hist(1e-6, 1e4, 400);
    SampleStats exact;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.exponential(0.2);
        hist.add(x);
        exact.add(x);
    }
    for (double p : {50.0, 90.0, 95.0, 99.0}) {
        const double approx = hist.percentile(p);
        const double truth = exact.percentile(p);
        EXPECT_NEAR(approx / truth, 1.0, 0.02)
            << "p=" << p;
    }
    EXPECT_NEAR(hist.mean(), exact.mean(), 1e-9);
}

TEST(QuantileHistogram, ExceedanceMatchesExact)
{
    Rng rng(37);
    QuantileHistogram hist;
    SampleStats exact;
    for (int i = 0; i < 50000; ++i) {
        const double x = rng.exponential(1.0);
        hist.add(x);
        exact.add(x);
    }
    EXPECT_NEAR(hist.exceedance(1.0), exact.exceedance(1.0), 0.01);
    EXPECT_NEAR(hist.exceedance(3.0), exact.exceedance(3.0), 0.01);
}

TEST(QuantileHistogram, UnderflowAndOverflowLand)
{
    QuantileHistogram hist(1e-3, 1e3, 100);
    hist.add(1e-9);
    hist.add(1e9);
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1e9);
}

TEST(QuantileHistogram, MergeCombinesCounts)
{
    QuantileHistogram a, b;
    a.add(1.0);
    b.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_NEAR(a.mean(), 1.5, 1e-12);
}

TEST(QuantileHistogram, MergeRejectsMismatchedConfig)
{
    QuantileHistogram a(1e-6, 1e4, 400);
    QuantileHistogram b(1e-3, 1e4, 400);
    EXPECT_THROW(a.merge(b), ConfigError);
}

TEST(QuantileHistogram, RejectsNegativeSamples)
{
    QuantileHistogram hist;
    EXPECT_THROW(hist.add(-1.0), ConfigError);
}

TEST(QuantileHistogram, ResetForgets)
{
    QuantileHistogram hist;
    hist.add(1.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
}

TEST(QuantileHistogram, RejectsGridsBeyond32BitIndices)
{
    // 600 decades at 1e8 buckets each: 6e10 buckets, past 32-bit
    // grid indices.
    EXPECT_THROW(QuantileHistogram(1e-300, 1e300, 100000000),
                 ConfigError);
    // A sparse run makes a fine grid cheap: 600 decades at 1e6
    // buckets each fit, and one sample stores a few dozen counts.
    QuantileHistogram fine(1e-300, 1e300, 1000000);
    fine.add(1.0);
    EXPECT_EQ(fine.count(), 1u);
    EXPECT_EQ(fine.percentile(100.0), 1.0);
}

// Boundary audit (SimStats uses floor 1e-7 / ceiling 1e5): samples
// beyond the grid, empty queries, and non-finite inputs must never
// silently misreport.

TEST(QuantileHistogram, RejectsNonFiniteSamples)
{
    QuantileHistogram hist;
    // NaN used to reach an undefined float-to-index cast; +inf would
    // poison the exact max every boundary answer leans on.
    EXPECT_THROW(hist.add(std::nan("")), ConfigError);
    EXPECT_THROW(hist.add(std::numeric_limits<double>::infinity()),
                 ConfigError);
    EXPECT_EQ(hist.count(), 0u);
}

TEST(QuantileHistogram, EmptyHistogramQueriesAreSafe)
{
    const QuantileHistogram hist(1e-7, 1e5, 400);
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(1e12), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(QuantileHistogram, AllSamplesBelowFloor)
{
    QuantileHistogram hist(1e-7, 1e5, 400);
    hist.add(1e-9);
    hist.add(5e-9);
    hist.add(2e-8);
    // The percentile never exceeds the exact max even though every
    // sample sits in the underflow bucket (whose edge is the floor).
    EXPECT_DOUBLE_EQ(hist.percentile(50.0), 2e-8);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 2e-8);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1e-9);
    // Exceedance is exact at and beyond the observed extremes.
    EXPECT_DOUBLE_EQ(hist.exceedance(1e-9), 1.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(3e-8), 0.0);
}

TEST(QuantileHistogram, AllSamplesAboveCeiling)
{
    QuantileHistogram hist(1e-7, 1e5, 400);
    hist.add(2e5);
    hist.add(3e6);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 3e6);
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 2e5);
    // A query between the overflow samples must not count the smaller
    // one as exceeding it just because both share the overflow bucket.
    EXPECT_DOUBLE_EQ(hist.exceedance(1e7), 0.0);
    EXPECT_DOUBLE_EQ(hist.exceedance(2e5), 1.0);
}

TEST(QuantileHistogram, PercentileZeroReturnsExactMin)
{
    QuantileHistogram hist(1e-7, 1e5, 400);
    hist.add(3.0);
    hist.add(7.0);
    // Used to report the underflow bucket's upper edge (the floor).
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 3.0);
    EXPECT_GE(hist.percentile(100.0), 7.0 * (1.0 - 1e-9));
    EXPECT_LE(hist.percentile(100.0), 7.0);
}

TEST(QuantileHistogram, ExactlyAtFloorAndCeilingEdges)
{
    QuantileHistogram hist(1e-3, 1e3, 100);
    hist.add(1e-3); // first grid bucket, not underflow
    hist.add(1e3);  // overflow by the ">= ceiling" convention
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_DOUBLE_EQ(hist.percentile(100.0), 1e3);
    EXPECT_DOUBLE_EQ(hist.exceedance(1e3), 0.5);
}

// --------------------------------------------------- QuantileHistogramPin

// Hexfloat pins of every query over histograms built to reach the
// edges of the bucket storage: growth at either end by samples and by
// merges, the underflow and overflow buckets, reset() and
// never-sampled operands. The queries depend only on integer bucket
// counts and grid indices, so any storage layout must reproduce them
// bit for bit.

constexpr double pinPercentiles[] = {0.0,  0.1,  1.0,  50.0, 90.0,
                                     95.0, 99.0, 99.9, 100.0};

/** Add `n` samples spread over [lo, hi) by the golden-ratio sequence
 * (plain arithmetic, so the samples are the same on every libm). */
void
addBand(QuantileHistogram &hist, double lo, double hi, int n)
{
    double frac = 0.0;
    for (int i = 0; i < n; ++i) {
        frac += 0.6180339887498949;
        if (frac >= 1.0)
            frac -= 1.0;
        hist.add(lo + (hi - lo) * frac);
    }
}

/** The SimStats response-histogram configuration. */
QuantileHistogram
responseGrid()
{
    return QuantileHistogram(1e-7, 1e5, 400);
}

/** Build the named pin case. */
QuantileHistogram
pinCase(const std::string &name)
{
    QuantileHistogram hist = responseGrid();
    if (name == "narrow") {
        addBand(hist, 0.02, 0.05, 2000);
    } else if (name == "low-into-high" || name == "high-into-low") {
        QuantileHistogram low = responseGrid();
        QuantileHistogram high = responseGrid();
        addBand(low, 1e-4, 3e-4, 1500);
        addBand(high, 20.0, 60.0, 500);
        if (name == "low-into-high") {
            high.merge(low);
            hist = high;
        } else {
            low.merge(high);
            hist = low;
        }
    } else if (name == "widening") {
        addBand(hist, 1.0, 2.0, 300);
        addBand(hist, 1e-3, 2e-3, 200);
        addBand(hist, 1e3, 3e3, 100);
        addBand(hist, 1e-6, 2e-6, 50);
    } else if (name == "boundaries") {
        for (int i = 0; i < 3; ++i)
            hist.add(0.0);
        hist.add(5e-8);
        hist.add(5e-8);
        hist.add(1e5);
        hist.add(3e5);
        addBand(hist, 0.5, 2.0, 200);
    } else if (name == "reset") {
        addBand(hist, 1e-3, 2e-3, 400);
        hist.reset();
        addBand(hist, 100.0, 400.0, 300);
    } else if (name == "into-empty") {
        QuantileHistogram source = responseGrid();
        addBand(source, 0.3, 0.9, 700);
        hist.merge(source);
    } else if (name == "from-empty") {
        addBand(hist, 0.3, 0.9, 700);
        hist.merge(responseGrid());
    } else if (name == "empty-both") {
        hist.merge(responseGrid());
    }
    return hist;
}

struct HistogramPin
{
    const char *name;
    double exceedanceAt[5];
    double percentile[9];
    double exceedance[5];
    std::uint64_t count;
    double mean;
    double min;
    double max;
};

constexpr double inf = std::numeric_limits<double>::infinity();

const HistogramPin histogramPins[] = {
    {"narrow",
     {0.01, 0.02, 0.035, 0.0499, 0.1},
     {0x1.47d150fe3a676p-6, 0x1.48ca7fe130a32p-6, 0x1.4e84b23f96cb7p-6,
      0x1.1f55ffd87039ap-5, 0x1.81617487ea572p-5, 0x1.8eec7def5d56cp-5,
      0x1.983746e546438p-5, 0x1.997d17da04103p-5, 0x1.997d17da04103p-5},
     {0x1p+0, 0x1p+0, 0x1.020c49ba5e354p-1, 0x1.6872b020c49bap-8, 0.0},
     2000, 0x1.1eb8ae701cf39p-5, 0x1.47d150fe3a676p-6, 0x1.997d17da04103p-5},
    {"low-into-high",
     {1e-4, 2e-4, 1.0, 30.0, 59.9},
     {0x1.a40b9f59e6ab4p-14, 0x1.a5da0f711d906p-14, 0x1.afad90ac90f05p-14,
      0x1.eb9ed381f5325p-13, 0x1.6141a0ab920d5p+5, 0x1.a16fa3293f89bp+5,
      0x1.d45ef92388ad7p+5, 0x1.df47df4a4eef2p+5, 0x1.df9ed2b791e42p+5},
     {0x1p+0, 0x1.40c49ba5e353fp-1, 0x1p-2, 0x1.810624dd2f1aap-3,
      0x1.47ae147ae147bp-9},
     2000, 0x1.3fd96e2d907dcp+3, 0x1.a40b9f59e6ab4p-14, 0x1.df9ed2b791e42p+5},
    {"high-into-low",
     {1e-4, 2e-4, 1.0, 30.0, 59.9},
     {0x1.a40b9f59e6ab4p-14, 0x1.a5da0f711d906p-14, 0x1.afad90ac90f05p-14,
      0x1.eb9ed381f5325p-13, 0x1.6141a0ab920d5p+5, 0x1.a16fa3293f89bp+5,
      0x1.d45ef92388ad7p+5, 0x1.df47df4a4eef2p+5, 0x1.df9ed2b791e42p+5},
     {0x1p+0, 0x1.40c49ba5e353fp-1, 0x1p-2, 0x1.810624dd2f1aap-3,
      0x1.47ae147ae147bp-9},
     2000, 0x1.3fd96e2d907dcp+3, 0x1.a40b9f59e6ab4p-14, 0x1.df9ed2b791e42p+5},
    {"widening",
     {1e-6, 1.5e-3, 1.5, 2e3, 3e3},
     {0x1.0ff7861d6cdcp-20, 0x1.111c86c66916ap-20, 0x1.2eeda67bbd38dp-20,
      0x1.406f5d121926p+0, 0x1.a3b375086d721p+10, 0x1.26b863e8c8d7cp+11,
      0x1.68810212d850ap+11, 0x1.74f7a3f13aeb8p+11, 0x1.74f7a3f13aeb8p+11},
     {0x1p+0, 0x1.8b6be9f1d2506p-1, 0x1.8b6be9f1d2506p-2,
      0x1.4160e2dafa7c7p-4, 0.0},
     650, 0x1.349b1ae759247p+8, 0x1.0ff7861d6cdcp-20, 0x1.74f7a3f13aeb8p+11},
    {"boundaries",
     {0.0, 5e-8, 1.0, 1e5, 2e5},
     {0.0, 0x1.ad7f29abcaf48p-24, 0x1.ad7f29abcaf48p-24, 0x1.406f5d121926p+0,
      0x1.dcb1be1a44f03p+0, 0x1.f04b8a05b80bp+0, 0x1.00de33e7edff7p+1,
      0x1.24f8p+18, 0x1.24f8p+18},
     {0x1p+0, 0x1p+0, 0x1.5062efec366a6p-1, 0x1.3c995a47babe7p-7,
      0x1.3c995a47babe7p-7},
     207, 0x1.e365042f9799ap+10, 0.0, 0x1.24f8p+18},
    {"reset",
     {1.5e-3, 100.0, 250.0, 399.0, 500.0},
     {0x1.924da215c1a8p+6, 0x1.924f2961fc155p+6, 0x1.9e0e8ed06f58fp+6,
      0x1.f37e61ab9a2c8p+7, 0x1.738904c62c398p+8, 0x1.80977f0733282p+8,
      0x1.8e1b6f87865d1p+8, 0x1.8f117d06a85bep+8, 0x1.8f117d06a85bep+8},
     {0x1p+0, 0x1p+0, 0x1p-1, 0x1.b4e81b4e81b4fp-8, 0.0},
     300, 0x1.f4781c733feb1p+7, 0x1.924da215c1a8p+6, 0x1.8f117d06a85bep+8},
    {"into-empty",
     {0.3, 0.5, 0.75, 0.89, 1.0},
     {0x1.33a6833658726p-2, 0x1.353e38edd9a99p-2, 0x1.38d2ec8d3f8b6p-2,
      0x1.3482b0a8294cfp-1, 0x1.aecb5810c240ap-1, 0x1.bdeef08dbc7acp-1,
      0x1.caf470ddd40dbp-1, 0x1.cc6f829bbf418p-1, 0x1.cc6f829bbf418p-1},
     {0x1p+0, 0x1.564efe898231cp-1, 0x1.fd130463796adp-3,
      0x1.767dce434a9b1p-6, 0.0},
     700, 0x1.330aa8853b784p-1, 0x1.33a6833658726p-2, 0x1.cc6f829bbf418p-1},
    {"from-empty",
     {0.3, 0.5, 0.75, 0.89, 1.0},
     {0x1.33a6833658726p-2, 0x1.353e38edd9a99p-2, 0x1.38d2ec8d3f8b6p-2,
      0x1.3482b0a8294cfp-1, 0x1.aecb5810c240ap-1, 0x1.bdeef08dbc7acp-1,
      0x1.caf470ddd40dbp-1, 0x1.cc6f829bbf418p-1, 0x1.cc6f829bbf418p-1},
     {0x1p+0, 0x1.564efe898231cp-1, 0x1.fd130463796adp-3,
      0x1.767dce434a9b1p-6, 0.0},
     700, 0x1.330aa8853b784p-1, 0x1.33a6833658726p-2, 0x1.cc6f829bbf418p-1},
    {"empty-both",
     {0.0, 1e-3, 1.0, 1e3, 1e6},
     {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
     {0.0, 0.0, 0.0, 0.0, 0.0},
     0, 0.0, inf, -inf},
};

TEST(QuantileHistogramPin, EveryQueryBitForBit)
{
    for (const HistogramPin &pin : histogramPins) {
        SCOPED_TRACE(pin.name);
        const QuantileHistogram hist = pinCase(pin.name);
        // EXPECT_EQ on doubles on purpose: the contract is bit-for-bit
        // equality, not closeness.
        for (std::size_t i = 0; i < std::size(pinPercentiles); ++i)
            EXPECT_EQ(hist.percentile(pinPercentiles[i]),
                      pin.percentile[i])
                << "p=" << pinPercentiles[i];
        for (std::size_t i = 0; i < std::size(pin.exceedanceAt); ++i)
            EXPECT_EQ(hist.exceedance(pin.exceedanceAt[i]),
                      pin.exceedance[i])
                << "x=" << pin.exceedanceAt[i];
        EXPECT_EQ(hist.count(), pin.count);
        EXPECT_EQ(hist.mean(), pin.mean);
        EXPECT_EQ(hist.min(), pin.min);
        EXPECT_EQ(hist.max(), pin.max);
    }
}

// ------------------------------------------------------------------- CSV

TEST(Csv, RoundTripPreservesValues)
{
    CsvTable table;
    table.headers = {"a", "b"};
    table.addRow({1.5, -2.25});
    table.addRow({3.14159, 0.0});
    const CsvTable parsed = fromCsv(toCsv(table));
    ASSERT_EQ(parsed.headers, table.headers);
    ASSERT_EQ(parsed.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(parsed.rows[0][0], 1.5);
    EXPECT_DOUBLE_EQ(parsed.rows[1][0], 3.14159);
}

TEST(Csv, ColumnExtraction)
{
    CsvTable table;
    table.headers = {"x", "y"};
    table.addRow({1.0, 10.0});
    table.addRow({2.0, 20.0});
    const auto y = table.column("y");
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[1], 20.0);
    EXPECT_THROW(table.column("z"), ConfigError);
}

TEST(Csv, RowWidthValidated)
{
    CsvTable table;
    table.headers = {"a", "b"};
    EXPECT_THROW(table.addRow({1.0}), ConfigError);
}

TEST(Csv, NonNumericCellRejected)
{
    EXPECT_THROW(fromCsv("a,b\n1,zzz\n"), ConfigError);
}

TEST(Csv, FileRoundTrip)
{
    CsvTable table;
    table.headers = {"v"};
    table.addRow({42.0});
    const std::string path = "/tmp/sleepscale_csv_test.csv";
    writeCsvFile(path, table);
    const CsvTable loaded = readCsvFile(path);
    EXPECT_DOUBLE_EQ(loaded.rows.at(0).at(0), 42.0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinter, RejectsWrongRowWidth)
{
    TablePrinter printer({"name", "value"});
    printer.addRow({std::string("x"), std::string("1")});
    EXPECT_THROW(printer.addRow({1.23456}, 2), ConfigError);
}

TEST(TablePrinter, PrintsRows)
{
    TablePrinter printer({"col"});
    printer.addRow({3.14159}, 2);
    std::ostringstream out;
    printer.print(out);
    EXPECT_NE(out.str().find("3.14"), std::string::npos);
    EXPECT_NE(out.str().find("col"), std::string::npos);
}

} // namespace
} // namespace sleepscale
