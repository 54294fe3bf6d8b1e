#include "util/quantile_histogram.hh"

#include <cmath>

#include "util/error.hh"

namespace sleepscale {

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
    const auto grid =
        static_cast<std::size_t>(std::ceil(decades * _bucketsPerDecade));
    _gridBuckets = grid + 2; // + underflow and overflow
    // _buckets stays empty until the first add(): a histogram that
    // never sees a sample costs O(1) memory.
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
    return std::min(raw + 1, _gridBuckets - 2);
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
QuantileHistogram::add(double x)
{
    // NaN would reach an undefined float-to-index cast in indexOf and
    // +inf would poison the exact moments, so both are rejected rather
    // than silently landing in a boundary bucket.
    fatalIf(!std::isfinite(x) || x < 0.0,
            "QuantileHistogram::add: samples must be finite and >= 0");
    if (_buckets.empty())
        _buckets.assign(_gridBuckets, 0);
    ++_buckets[indexOf(x)];
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
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (static_cast<double>(seen) >= target) {
            // A bucket's upper edge can exceed the largest sample seen
            // (the max lands mid-bucket); never report past the max.
            return std::min(upperEdge(i), _moments.max());
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
    const std::size_t cut = indexOf(x);
    std::uint64_t at_least = 0;
    for (std::size_t i = cut; i < _buckets.size(); ++i)
        at_least += _buckets[i];
    return static_cast<double>(at_least) / static_cast<double>(n);
}

void
QuantileHistogram::merge(const QuantileHistogram &other)
{
    fatalIf(other._gridBuckets != _gridBuckets ||
                other._floor != _floor || other._ceiling != _ceiling,
            "QuantileHistogram::merge: incompatible configurations");
    // An unallocated (never-sampled) source contributes nothing; the
    // early-out is what makes merging a mostly-idle farm's windows
    // O(active servers) rather than O(farm x buckets).
    if (other._buckets.empty())
        return;
    if (_buckets.empty())
        _buckets.assign(_gridBuckets, 0);
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _moments.merge(other._moments);
}

void
QuantileHistogram::reset()
{
    for (auto &bucket : _buckets)
        bucket = 0;
    _moments.reset();
}

} // namespace sleepscale
