#include "util/quantile_histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hh"

namespace sleepscale {

namespace {

/** Buckets a run reserves beyond what it must cover when it is first
 * allocated or grows; growth also adds at least half the run, so a
 * widening stream reallocates O(log(range)) times. */
constexpr std::size_t runSlack = 32;

} // namespace

QuantileHistogram::QuantileHistogram(double floor, double ceiling,
                                     unsigned buckets_per_decade)
    : _floor(floor), _ceiling(ceiling),
      _logFloor(std::log10(floor)),
      _bucketsPerDecade(static_cast<double>(buckets_per_decade))
{
    fatalIf(floor <= 0.0, "QuantileHistogram: floor must be positive");
    fatalIf(ceiling <= floor, "QuantileHistogram: ceiling must exceed floor");
    fatalIf(buckets_per_decade == 0,
            "QuantileHistogram: need at least one bucket per decade");
    const double decades = std::log10(ceiling) - _logFloor;
    const double grid = std::ceil(decades * _bucketsPerDecade);
    // Grid indices, underflow and overflow included, are 32-bit.
    fatalIf(!(grid <= std::numeric_limits<std::uint32_t>::max() - 2.0),
            "QuantileHistogram: the grid needs too many buckets");
    _gridBuckets = static_cast<std::uint32_t>(grid) + 2;
}

std::size_t
QuantileHistogram::indexOf(double x) const
{
    if (x < _floor)
        return 0;
    if (x >= _ceiling)
        return _gridBuckets - 1;
    const double pos = (std::log10(x) - _logFloor) * _bucketsPerDecade;
    const auto raw = static_cast<std::size_t>(pos);
    return std::min<std::size_t>(raw + 1, _gridBuckets - 2);
}

double
QuantileHistogram::upperEdge(std::size_t index) const
{
    if (index == 0)
        return _floor;
    if (index >= _gridBuckets - 1)
        return _moments.max();
    const double exponent =
        _logFloor + static_cast<double>(index) / _bucketsPerDecade;
    return std::pow(10.0, exponent);
}

void
QuantileHistogram::cover(std::size_t lo, std::size_t hi)
{
    const std::size_t first = _first;
    const std::size_t end = first + _buckets.size();
    if (!_buckets.empty() && lo >= first && hi <= end)
        return;
    const std::size_t grid = _gridBuckets;
    std::size_t new_lo = lo;
    std::size_t new_hi = hi;
    if (_buckets.empty()) {
        new_lo = lo > runSlack ? lo - runSlack : 0;
        new_hi = std::min(hi + runSlack, grid);
    } else {
        const std::size_t grow = std::max(runSlack, _buckets.size() / 2);
        new_lo = lo < first ? std::min(lo, first > grow ? first - grow : 0)
                            : first;
        new_hi = hi > end ? std::max(hi, std::min(end + grow, grid)) : end;
    }
    std::vector<std::uint64_t> grown(new_hi - new_lo, 0);
    if (!_buckets.empty()) {
        std::copy(_buckets.begin(), _buckets.end(),
                  grown.begin() + static_cast<std::ptrdiff_t>(first - new_lo));
    }
    _buckets = std::move(grown);
    _first = static_cast<std::uint32_t>(new_lo);
}

void
QuantileHistogram::add(double x)
{
    // NaN would reach an undefined float-to-index cast in indexOf and
    // +inf would poison the exact moments, so both are rejected rather
    // than silently landing in a boundary bucket.
    fatalIf(!std::isfinite(x) || x < 0.0,
            "QuantileHistogram::add: samples must be finite and >= 0");
    const std::size_t index = indexOf(x);
    // One unsigned compare catches an index on either side of the run
    // (and an empty run).
    if (index - _first >= _buckets.size())
        cover(index, index + 1);
    ++_buckets[index - _first];
    _moments.add(x);
}

double
QuantileHistogram::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        fatal("QuantileHistogram::percentile: p must be in [0, 100]");
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    // p = 0 would otherwise report the first bucket's upper edge (the
    // floor when the data sit in the underflow bucket) even though the
    // exact minimum is tracked; both extremes answer from the moments.
    if (p == 0.0)
        return _moments.min();
    const double target = p / 100.0 * static_cast<double>(n);
    // Every bucket below the run is empty, so a walk from grid index
    // 0 could stop below the run only at index 0, and only for a
    // target of 0 (a p so small that p / 100 underflows).
    if (target <= 0.0)
        return std::min(upperEdge(0), _moments.max());
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (static_cast<double>(seen) >= target) {
            // A bucket's upper edge can exceed the largest sample seen
            // (the max lands mid-bucket); never report past the max.
            return std::min(upperEdge(_first + i), _moments.max());
        }
    }
    return _moments.max();
}

double
QuantileHistogram::exceedance(double x) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    // Beyond the observed extremes the histogram's bucket resolution
    // does not apply; answer exactly. Without these guards a query
    // above the ceiling counted every overflow sample (even those
    // smaller than x) and a query below the floor depended on the
    // underflow bucket rather than the data.
    if (x > _moments.max())
        return 0.0;
    if (x <= _moments.min())
        return 1.0;
    const std::size_t cut = std::max<std::size_t>(indexOf(x), _first);
    std::uint64_t at_least = 0;
    for (std::size_t i = cut - _first; i < _buckets.size(); ++i)
        at_least += _buckets[i];
    return static_cast<double>(at_least) / static_cast<double>(n);
}

void
QuantileHistogram::merge(const QuantileHistogram &other)
{
    fatalIf(other._gridBuckets != _gridBuckets ||
                other._floor != _floor || other._ceiling != _ceiling,
            "QuantileHistogram::merge: incompatible configurations");
    // Only the source's nonzero buckets need a home here: a
    // never-sampled (or reset) source contributes nothing and costs
    // nothing, and a source whose counts sit inside this run merges
    // without reallocating.
    std::size_t lo = 0;
    std::size_t hi = other._buckets.size();
    while (lo < hi && other._buckets[lo] == 0)
        ++lo;
    while (hi > lo && other._buckets[hi - 1] == 0)
        --hi;
    if (lo == hi)
        return;
    cover(other._first + lo, other._first + hi);
    std::uint64_t *into = _buckets.data() + (other._first + lo - _first);
    const std::uint64_t *from = other._buckets.data() + lo;
    for (std::size_t i = 0; i < hi - lo; ++i)
        into[i] += from[i];
    _moments.merge(other._moments);
}

void
QuantileHistogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _moments.reset();
}

} // namespace sleepscale
