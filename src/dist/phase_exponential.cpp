#include "dist/phase_exponential.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace wlgen::dist {

PhaseTypeExponential::PhaseTypeExponential(std::vector<ExpPhase> phases)
    : phases_(std::move(phases)) {
  if (phases_.empty()) {
    throw std::invalid_argument("PhaseTypeExponential: at least one phase required");
  }
  double total = 0.0;
  for (const auto& ph : phases_) {
    if (!(std::isfinite(ph.weight) && ph.weight > 0.0)) {
      throw std::invalid_argument("PhaseTypeExponential: weights must be > 0");
    }
    if (!(std::isfinite(ph.theta) && ph.theta > 0.0)) {
      throw std::invalid_argument("PhaseTypeExponential: theta must be > 0");
    }
    if (!std::isfinite(ph.offset)) {
      throw std::invalid_argument("PhaseTypeExponential: offset must be finite");
    }
    total += ph.weight;
  }

  cum_weights_.reserve(phases_.size());
  inv_theta_.reserve(phases_.size());
  double cum = 0.0;
  lower_ = std::numeric_limits<double>::infinity();
  double m2 = 0.0;
  for (auto& ph : phases_) {
    ph.weight /= total;
    cum += ph.weight;
    cum_weights_.push_back(cum);
    inv_theta_.push_back(1.0 / ph.theta);
    const double phase_mean = ph.offset + ph.theta;
    mean_ += ph.weight * phase_mean;
    m2 += ph.weight * (ph.theta * ph.theta + phase_mean * phase_mean);
    lower_ = std::min(lower_, ph.offset);
  }
  cum_weights_.back() = 1.0;  // exact, independent of rounding
  variance_ = m2 - mean_ * mean_;
}

PhaseTypeExponential PhaseTypeExponential::paper_example_a() {
  return PhaseTypeExponential({{1.0, 22.1, 0.0}});
}

PhaseTypeExponential PhaseTypeExponential::paper_example_b() {
  return PhaseTypeExponential({{0.4, 12.7, 0.0}, {0.6, 18.2, 18.0}});
}

PhaseTypeExponential PhaseTypeExponential::paper_example_c() {
  return PhaseTypeExponential({{0.4, 12.7, 0.0}, {0.3, 18.2, 18.0}, {0.3, 15.0, 40.0}});
}

double PhaseTypeExponential::sample(util::RngStream& rng) const {
  const double u = rng.uniform01();
  // Branchless cumulative search: k = #{ thresholds <= u }.
  std::size_t k = 0;
  const std::size_t last = cum_weights_.size() - 1;
  for (std::size_t j = 0; j < last; ++j) {
    k += static_cast<std::size_t>(u >= cum_weights_[j]);
  }
  // Rescale the remainder of u into a fresh uniform for the inverse
  // transform; exact in real arithmetic, so no second RNG draw is needed.
  const double lo = k == 0 ? 0.0 : cum_weights_[k - 1];
  const double span = cum_weights_[k] - lo;
  double v = (u - lo) / span;
  v = std::min(v, 1.0 - 1e-16);  // keep log1p argument > -1
  const ExpPhase& ph = phases_[k];
  return ph.offset - ph.theta * std::log1p(-v);
}

double PhaseTypeExponential::pdf(double x) const {
  double f = 0.0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const double y = x - phases_[i].offset;
    if (y >= 0.0) f += phases_[i].weight * inv_theta_[i] * std::exp(-y * inv_theta_[i]);
  }
  return f;
}

double PhaseTypeExponential::cdf(double x) const {
  double c = 0.0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const double y = x - phases_[i].offset;
    if (y > 0.0) c += phases_[i].weight * -std::expm1(-y * inv_theta_[i]);
  }
  return std::min(c, 1.0);
}

double PhaseTypeExponential::upper_bound() const {
  return std::numeric_limits<double>::infinity();
}

std::string PhaseTypeExponential::describe() const {
  std::ostringstream out;
  out.precision(12);
  out << "phase_exp(";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (i != 0) out << ", ";
    out << "(w=" << phases_[i].weight << ", theta=" << phases_[i].theta
        << ", s=" << phases_[i].offset << ")";
  }
  out << ")";
  return out.str();
}

DistributionPtr PhaseTypeExponential::clone() const {
  return std::make_unique<PhaseTypeExponential>(*this);
}

}  // namespace wlgen::dist
