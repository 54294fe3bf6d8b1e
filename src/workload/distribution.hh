/**
 * @file
 * Probability distributions for inter-arrival and service times.
 *
 * SleepScale's policy manager consumes *empirical* job logs, so it is
 * distribution-agnostic; these analytic families are used to (a) drive the
 * Section 4 idealized studies (exponential), and (b) synthesize
 * BigHouse-like workloads matching the paper's Table 5 (mean, Cv) pairs —
 * our stand-in for the BigHouse trace archive (see DESIGN.md).
 */

#ifndef SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH
#define SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH

#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace sleepscale {

/**
 * Abstract positive-valued random distribution.
 *
 * Implementations are immutable; all randomness flows through the Rng
 * passed to sample() so streams stay reproducible and decoupled.
 */
class Distribution
{
  public:
    virtual ~Distribution() = default;

    /** Draw one sample (always >= 0). */
    virtual double sample(Rng &rng) const = 0;

    /** Cumulative distribution function Pr(X <= x). */
    virtual double cdf(double x) const = 0;

    /** Theoretical mean. */
    virtual double mean() const = 0;

    /** Theoretical coefficient of variation (stddev / mean). */
    virtual double cv() const = 0;

    /** Family name for diagnostics, e.g. "exponential". */
    virtual std::string name() const = 0;

    /** Deep copy. */
    virtual std::unique_ptr<Distribution> clone() const = 0;
};

/** Degenerate point mass: every sample equals the mean (Cv = 0). */
class DeterministicDist final : public Distribution
{
  public:
    /** @param value The point mass (>= 0). */
    explicit DeterministicDist(double value);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _value; }
    double cv() const override { return 0.0; }
    std::string name() const override { return "deterministic"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _value;
};

/** Exponential distribution (Cv = 1); the paper's idealized model. */
class ExponentialDist final : public Distribution
{
  public:
    /** @param mean Mean (> 0). */
    explicit ExponentialDist(double mean);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return 1.0; }
    std::string name() const override { return "exponential"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _mean;
};

/** Continuous uniform on [lo, hi]. */
class UniformDist final : public Distribution
{
  public:
    /** Bounds with 0 <= lo < hi. */
    UniformDist(double lo, double hi);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override;
    double cv() const override;
    std::string name() const override { return "uniform"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _lo;
    double _hi;
};

/**
 * Gamma distribution parameterized by (mean, Cv); Cv < 1 yields Erlang-like
 * low-variance shapes. Sampling uses Marsaglia & Tsang's method.
 */
class GammaDist final : public Distribution
{
  public:
    /** @param mean Mean (> 0). @param cv Coefficient of variation (> 0). */
    GammaDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "gamma"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Shape parameter k = 1 / Cv^2. */
    double shape() const { return _shape; }

  private:
    double _mean;
    double _cv;
    double _shape;
    double _scale;
};

/** Log-normal distribution parameterized by (mean, Cv). */
class LogNormalDist final : public Distribution
{
  public:
    /** @param mean Mean (> 0). @param cv Coefficient of variation (> 0). */
    LogNormalDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "lognormal"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _mean;
    double _cv;
    double _mu;    ///< Mean of the underlying normal.
    double _sigma; ///< Stddev of the underlying normal.
};

/** Weibull distribution parameterized by (mean, Cv); shape solved
 * numerically from the Cv. */
class WeibullDist final : public Distribution
{
  public:
    /** @param mean Mean (> 0). @param cv Coefficient of variation (> 0). */
    WeibullDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "weibull"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Shape parameter k. */
    double shape() const { return _shape; }

  private:
    double _mean;
    double _cv;
    double _shape;
    double _scale;
};

/**
 * Two-phase hyperexponential with balanced means, parameterized by
 * (mean, Cv) for Cv >= 1. This is the standard H2 fit used to reproduce
 * heavy-tailed service processes such as the paper's Mail workload
 * (service Cv = 3.6).
 */
class HyperExponentialDist final : public Distribution
{
  public:
    /** @param mean Mean (> 0). @param cv Coefficient of variation
     * (>= 1; GammaDist covers Cv below 1). */
    HyperExponentialDist(double mean, double cv);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "hyperexponential"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Probability of drawing from the first (fast) phase. */
    double phaseProbability() const { return _p1; }

  private:
    double _mean;
    double _cv;
    double _p1;
    double _mean1;
    double _mean2;
};

/**
 * Bounded Pareto on [lo, hi] with tail exponent alpha; mean and Cv are
 * derived. Used in heavy-tail stress tests.
 */
class BoundedParetoDist final : public Distribution
{
  public:
    /** Support [lo, hi] with 0 < lo < hi, tail exponent alpha > 0. */
    BoundedParetoDist(double lo, double hi, double alpha);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "bounded_pareto"; }
    std::unique_ptr<Distribution> clone() const override;

  private:
    double _lo;
    double _hi;
    double _alpha;
    double _mean;
    double _cv;

    double rawMoment(double order) const;
};

/**
 * Empirical distribution resampling a fixed set of observations with
 * replacement — how SleepScale's policy manager treats logged job events.
 */
class EmpiricalDist final : public Distribution
{
  public:
    /** @param samples Observations; must be non-empty and non-negative. */
    explicit EmpiricalDist(std::vector<double> samples);
    double sample(Rng &rng) const override;
    double cdf(double x) const override;
    double mean() const override { return _mean; }
    double cv() const override { return _cv; }
    std::string name() const override { return "empirical"; }
    std::unique_ptr<Distribution> clone() const override;

    /** Number of stored observations. */
    std::size_t size() const { return _samples.size(); }

  private:
    std::vector<double> _samples;
    double _mean;
    double _cv;
};

/**
 * Fit a distribution family to a (mean, Cv) target.
 *
 * Chooses deterministic (Cv = 0), gamma (0 < Cv < 1), exponential
 * (Cv = 1 within tolerance), or balanced-means hyperexponential (Cv > 1).
 * The returned distribution matches both moments exactly.
 *
 * @param mean Target mean (> 0).
 * @param cv Target coefficient of variation (>= 0).
 */
std::unique_ptr<Distribution> fitDistribution(double mean, double cv);

} // namespace sleepscale

#endif // SLEEPSCALE_WORKLOAD_DISTRIBUTION_HH
