#pragma once

#include <string>
#include <vector>

#include "dist/distribution.h"

namespace wlgen::dist {

/// One stage of the paper's multi-stage gamma: weight w, shape alpha,
/// scale theta, horizontal shift s.
struct GammaStage {
  double weight = 1.0;
  double alpha = 1.0;
  double theta = 1.0;
  double offset = 0.0;
};

/// Multi-stage gamma mixture — the second parametric family of the paper's
/// GDS (section 4.1.1, Figure 5.2):
///
///   f(x) = sum_i w_i * g(alpha_i, theta_i, x - s_i)
///   g(a, t, y) = y^(a-1) e^(-y/t) / (Gamma(a) t^a)   for y >= 0
///
/// Weights are normalised at construction; the per-stage log-normaliser
/// log Gamma(a) + a log t and the cumulative weights are cached so pdf() is
/// one exp per stage and stage selection in sample() is a branchless scan.
class MultiStageGamma : public Distribution {
 public:
  /// Throws std::invalid_argument when stages is empty, or any
  /// weight/alpha/theta <= 0.
  explicit MultiStageGamma(std::vector<GammaStage> stages);

  /// Normalised stages (weights sum to 1).
  const std::vector<GammaStage>& stages() const { return stages_; }

  /// Figure 5.2 panel (a): a single unshifted gamma g(1.4, 12.4, x).
  static MultiStageGamma paper_example_a();

  /// Figure 5.2 panel (b): f(x) = g(1.5, 25.4, x - 12).
  static MultiStageGamma paper_example_b();

  /// Figure 5.2 panel (c):
  /// f(x) = 0.7 g(1.4,12.4,x) + 0.2 g(1.5,12.4,x-23) + 0.1 g(1.5,12.3,x-41).
  static MultiStageGamma paper_example_c();

  double sample(util::RngStream& rng) const override;
  double pdf(double x) const override;
  double cdf(double x) const override;
  double mean() const override { return mean_; }
  double variance() const override { return variance_; }
  double lower_bound() const override { return lower_; }
  double upper_bound() const override;
  std::string describe() const override;
  DistributionPtr clone() const override;

 private:
  std::vector<GammaStage> stages_;
  std::vector<double> cum_weights_;  ///< cached cumulative weights (last == 1)
  std::vector<double> log_norm_;     ///< cached log Gamma(a) + a log theta
  std::vector<double> inv_theta_;    ///< cached 1/theta_i
  double mean_ = 0.0;
  double variance_ = 0.0;
  double lower_ = 0.0;
};

}  // namespace wlgen::dist
