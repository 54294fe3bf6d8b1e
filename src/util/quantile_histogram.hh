/**
 * @file
 * Streaming quantiles through a logarithmically bucketed histogram.
 */

#ifndef SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
#define SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "util/online_stats.hh"

namespace sleepscale {

/**
 * Log-scale histogram for streaming percentile estimation.
 *
 * Day-long runtime simulations complete tens of millions of jobs, too many
 * to store individually. Buckets are spaced logarithmically between a
 * configurable floor and ceiling so the relative quantile error is bounded
 * by the per-decade resolution (default 400 buckets/decade ≈ 0.6% relative
 * error), which is far below the Monte-Carlo noise of the experiments.
 *
 * Only the contiguous run of buckets that samples and merges have
 * touched is stored, so memory and the cost of every operation (add,
 * merge, the queries, reset, copies) follow the touched range, not the
 * grid: a window whose responses span one decade holds a few hundred
 * counts instead of the whole grid, and a never-sampled histogram
 * holds none.
 */
class QuantileHistogram
{
  public:
    /**
     * @param floor Smallest resolvable positive value; samples below land
     *              in an underflow bucket.
     * @param ceiling Largest resolvable value; samples above land in an
     *                overflow bucket.
     * @param buckets_per_decade Resolution of the log grid.
     */
    explicit QuantileHistogram(double floor = 1e-6, double ceiling = 1e4,
                               unsigned buckets_per_decade = 400);

    /** Absorb one sample (must be finite and >= 0). */
    void add(double x);

    /** Number of samples absorbed. */
    std::uint64_t count() const { return _moments.count(); }

    /** Exact streaming mean of all samples. */
    double mean() const { return _moments.mean(); }

    /** Exact streaming max. */
    double max() const { return _moments.max(); }

    /** Exact streaming min. */
    double min() const { return _moments.min(); }

    /**
     * Approximate percentile.
     *
     * @param p Percentile in [0, 100].
     * @return Upper edge of the bucket holding the p-th sample, never
     *         above the exact max; p = 0 returns the exact min. 0 when
     *         the histogram is empty.
     */
    double percentile(double p) const;

    /**
     * Approximate exceedance probability Pr(X >= x). Exact (1 or 0)
     * when x lies at or beyond the observed extremes; 0 when the
     * histogram is empty.
     */
    double exceedance(double x) const;

    /** Merge another histogram configured with identical parameters. */
    void merge(const QuantileHistogram &other);

    /** Forget all samples. */
    void reset();

  private:
    double _floor;
    double _ceiling;
    double _logFloor;
    double _bucketsPerDecade;

    /** Bucket count of the configured grid, including the underflow
     * and overflow buckets. Fixed at construction. */
    std::uint32_t _gridBuckets;

    /** Grid index of _buckets[0]. Packed beside _gridBuckets, which
     * bounds it, so the run costs the object no size. */
    std::uint32_t _first = 0;

    /** Counts of grid buckets [_first, _first + _buckets.size()):
     * empty until the first sample or merge, then a run covering every
     * touched bucket (grid index 0 is underflow, _gridBuckets - 1
     * overflow). Every bucket outside the run is zero. The run grows
     * geometrically at either end, clamped to the grid, and reset()
     * keeps it. */
    std::vector<std::uint64_t> _buckets;

    OnlineStats _moments;

    std::size_t indexOf(double x) const;
    double upperEdge(std::size_t index) const;

    /** Grow the stored run to cover grid indices [lo, hi). */
    void cover(std::size_t lo, std::size_t hi);
};

} // namespace sleepscale

#endif // SLEEPSCALE_UTIL_QUANTILE_HISTOGRAM_HH
