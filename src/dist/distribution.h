#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace wlgen::util {
class RngStream;
}

namespace wlgen::dist {

class Distribution;

/// Owning handle to a distribution.  core::DistRef wraps the same objects as
/// shared-immutable; DistributionPtr is the unique-ownership flavour used by
/// parsers, fitters and factories.
using DistributionPtr = std::unique_ptr<Distribution>;

/// A univariate continuous distribution: the sampling contract every fitted
/// family of the paper's GDS (section 4.1.1) satisfies, so the workload
/// generator can draw file sizes, accesses-per-byte, think times and
/// inter-session gaps without knowing the family.
///
/// All methods are const and reentrant; sampling state lives in the caller's
/// RngStream, never in the distribution, so one object can be shared by
/// millions of simulated users.  Implementations precompute whatever makes
/// sample() cheap (cumulative phase weights, -theta factors, log-normalisers)
/// at construction time — sample() is the hot path of every experiment.
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one variate using (and advancing) `rng`.
  virtual double sample(util::RngStream& rng) const = 0;

  /// Draws n variates into out[0..n): the scalar loop over sample(), so
  /// the stream advances exactly as n sequential calls would.  Its last
  /// caller is perfbench's dist_replay.
  void sample_n(util::RngStream& rng, double* out, std::size_t n) const;

  /// Density f(x); 0 outside the support.
  virtual double pdf(double x) const = 0;

  /// Cumulative F(x) = P(X <= x), in [0, 1] and non-decreasing.
  virtual double cdf(double x) const = 0;

  /// Inverse CDF.  p must be in [0, 1]; p == 0 / 1 map to the support
  /// bounds (which may be infinite).  The default implementation inverts
  /// cdf() by bracketed bisection; families with closed forms override it.
  virtual double quantile(double p) const;

  virtual double mean() const = 0;
  virtual double variance() const = 0;
  double stddev() const;

  /// Infimum of the support (often 0 or the smallest phase offset).
  virtual double lower_bound() const = 0;

  /// Supremum of the support (+infinity for the parametric families).
  virtual double upper_bound() const = 0;

  /// Short human-readable summary, stable across clone().
  virtual std::string describe() const = 0;

  /// Deep copy.
  virtual DistributionPtr clone() const = 0;

 protected:
  Distribution() = default;
  Distribution(const Distribution&) = default;
  Distribution& operator=(const Distribution&) = default;
};

}  // namespace wlgen::dist
