#include "traffic/arrivals.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"
#include "util/strings.h"

namespace wlgen::traffic {

namespace {

/// Linear part of the profile (knots only), held flat outside the knot range.
double linear_multiplier(const std::vector<ProfilePoint>& points, double t) {
  if (points.empty()) return 1.0;
  if (t <= points.front().t_us) return points.front().multiplier;
  if (t >= points.back().t_us) return points.back().multiplier;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (t <= points[i].t_us) {
      const ProfilePoint& a = points[i - 1];
      const ProfilePoint& b = points[i];
      const double span = b.t_us - a.t_us;
      const double frac = span > 0.0 ? (t - a.t_us) / span : 1.0;
      return a.multiplier + frac * (b.multiplier - a.multiplier);
    }
  }
  return points.back().multiplier;
}

/// Exact integral of the linear part over [t0, t1] (t0 <= t1): trapezoid on
/// every sub-segment between consecutive breakpoints.
double linear_integral(const std::vector<ProfilePoint>& points, double t0, double t1) {
  if (points.empty()) return t1 - t0;
  std::vector<double> cuts{t0, t1};
  for (const ProfilePoint& p : points) {
    if (p.t_us > t0 && p.t_us < t1) cuts.push_back(p.t_us);
  }
  std::sort(cuts.begin(), cuts.end());
  double total = 0.0;
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    const double a = cuts[i - 1];
    const double b = cuts[i];
    total += 0.5 * (linear_multiplier(points, a) + linear_multiplier(points, b)) * (b - a);
  }
  return total;
}

}  // namespace

bool IntensityProfile::constant() const {
  if (flash_magnitude != 1.0 && flash_duration_us > 0.0) return false;
  for (const ProfilePoint& p : points) {
    if (p.multiplier != 1.0) return false;
  }
  return true;
}

double IntensityProfile::multiplier(double t_us) const {
  double m = linear_multiplier(points, t_us);
  if (flash_duration_us > 0.0 && t_us >= flash_at_us && t_us < flash_at_us + flash_duration_us) {
    m *= flash_magnitude;
  }
  return m;
}

double IntensityProfile::peak() const {
  // The linear part is held flat outside the knot range, so its supremum is
  // the largest knot multiplier (1 when there are no knots).
  double linear_peak = points.empty() ? 1.0 : points.front().multiplier;
  for (const ProfilePoint& p : points) linear_peak = std::max(linear_peak, p.multiplier);
  double m = linear_peak;
  if (flash_duration_us > 0.0 && flash_magnitude > 1.0) m *= flash_magnitude;
  return m;
}

double IntensityProfile::integral(double t0_us, double t1_us) const {
  if (t1_us <= t0_us) return 0.0;
  double total = linear_integral(points, t0_us, t1_us);
  if (flash_duration_us > 0.0 && flash_magnitude != 1.0) {
    // Add (magnitude - 1) x the linear integral over the flash overlap: the
    // flash multiplies the linear shape inside its window.
    const double lo = std::max(t0_us, flash_at_us);
    const double hi = std::min(t1_us, flash_at_us + flash_duration_us);
    if (hi > lo) total += (flash_magnitude - 1.0) * linear_integral(points, lo, hi);
  }
  return total;
}

void IntensityProfile::validate() const {
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].multiplier < 0.0) {
      throw std::invalid_argument("IntensityProfile: knot multipliers must be >= 0");
    }
    if (i > 0 && points[i].t_us <= points[i - 1].t_us) {
      throw std::invalid_argument("IntensityProfile: knot times must be strictly increasing");
    }
  }
  if (flash_magnitude <= 0.0) {
    throw std::invalid_argument("IntensityProfile: flash magnitude must be > 0");
  }
  if (flash_duration_us < 0.0) {
    throw std::invalid_argument("IntensityProfile: flash duration must be >= 0");
  }
  if (peak() <= 0.0) {
    throw std::invalid_argument("IntensityProfile: profile is zero everywhere");
  }
}

std::string IntensityProfile::tag() const {
  if (constant()) return "";
  std::string out;
  if (!points.empty()) {
    out += " diurnal=";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) out += '|';
      out += util::exact_double(points[i].t_us) + ':' + util::exact_double(points[i].multiplier);
    }
  }
  if (flash_duration_us > 0.0 && flash_magnitude != 1.0) {
    out += " flash=" + util::exact_double(flash_at_us) + '+' + util::exact_double(flash_duration_us) + 'x' +
           util::exact_double(flash_magnitude);
  }
  return out;
}

const char* to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::poisson: return "poisson";
    case ArrivalKind::mmpp: return "mmpp";
    case ArrivalKind::heavy: return "heavy";
  }
  return "unknown";
}

void ArrivalConfig::validate() const {
  if (!(rate_per_sec > 0.0)) {
    throw std::invalid_argument("ArrivalConfig: arrival rate must be > 0");
  }
  if (sessions == 0) {
    throw std::invalid_argument("ArrivalConfig: need >= 1 session");
  }
  if (kind == ArrivalKind::mmpp) {
    if (!(burst_ratio > 0.0)) {
      throw std::invalid_argument("ArrivalConfig: MMPP burst_ratio must be > 0");
    }
    if (!(mean_burst_us > 0.0) || !(mean_idle_us > 0.0)) {
      throw std::invalid_argument("ArrivalConfig: MMPP state holding times must be > 0");
    }
  }
  if (kind == ArrivalKind::heavy && !(pareto_alpha > 1.0)) {
    throw std::invalid_argument(
        "ArrivalConfig: Pareto alpha must be > 1 so the mean interarrival exists");
  }
  profile.validate();
}

std::string ArrivalConfig::tag() const {
  std::string out = "arrivals=";
  out += to_string(kind);
  out += " rate=" + util::exact_double(rate_per_sec);
  out += " sessions=" + std::to_string(sessions);
  if (kind == ArrivalKind::mmpp) {
    out += " burst=" + util::exact_double(burst_ratio) + '/' + util::exact_double(mean_burst_us) + '/' + util::exact_double(mean_idle_us);
  }
  if (kind == ArrivalKind::heavy) out += " alpha=" + util::exact_double(pareto_alpha);
  out += profile.tag();
  return out;
}

ParetoDistribution::ParetoDistribution(double alpha, double xm) : alpha_(alpha), xm_(xm) {
  if (!(alpha > 0.0)) throw std::invalid_argument("ParetoDistribution: alpha must be > 0");
  if (!(xm > 0.0)) throw std::invalid_argument("ParetoDistribution: xm must be > 0");
}

double ParetoDistribution::sample(util::RngStream& rng) const {
  return quantile(rng.uniform01());
}

double ParetoDistribution::pdf(double x) const {
  if (x < xm_) return 0.0;
  return alpha_ * std::pow(xm_, alpha_) / std::pow(x, alpha_ + 1.0);
}

double ParetoDistribution::cdf(double x) const {
  if (x < xm_) return 0.0;
  return 1.0 - std::pow(xm_ / x, alpha_);
}

double ParetoDistribution::quantile(double p) const {
  if (p <= 0.0) return xm_;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return xm_ * std::pow(1.0 - p, -1.0 / alpha_);
}

double ParetoDistribution::mean() const {
  if (alpha_ <= 1.0) return std::numeric_limits<double>::infinity();
  return alpha_ * xm_ / (alpha_ - 1.0);
}

double ParetoDistribution::variance() const {
  if (alpha_ <= 2.0) return std::numeric_limits<double>::infinity();
  const double m = xm_ / (alpha_ - 1.0);
  return alpha_ * m * m / (alpha_ - 2.0);
}

double ParetoDistribution::upper_bound() const {
  return std::numeric_limits<double>::infinity();
}

std::string ParetoDistribution::describe() const {
  return "pareto(alpha=" + util::exact_double(alpha_) + ", xm=" + util::exact_double(xm_) + ")";
}

dist::DistributionPtr ParetoDistribution::clone() const {
  return std::make_unique<ParetoDistribution>(alpha_, xm_);
}

std::vector<double> generate_arrivals(const ArrivalConfig& config, std::uint64_t seed) {
  config.validate();
  util::RngStream rng(seed, "traffic/arrivals");
  std::vector<double> out;
  out.reserve(config.sessions);

  const double mean_us = 1e6 / config.rate_per_sec;  // base mean interarrival
  const double peak = config.profile.peak();
  const bool flat = config.profile.constant();
  double t = 0.0;

  switch (config.kind) {
    case ArrivalKind::poisson: {
      // Lewis-Shedler thinning: candidates at the peak rate, each kept with
      // probability multiplier(t) / peak.  A constant profile degenerates to
      // the plain homogeneous process without the acceptance draw.
      while (out.size() < config.sessions) {
        t += rng.exponential(mean_us / peak);
        if (flat || rng.uniform01() * peak <= config.profile.multiplier(t)) out.push_back(t);
      }
      break;
    }
    case ArrivalKind::mmpp: {
      // 2-state Markov-modulated Poisson: idle at the base rate, burst at
      // burst_ratio x base.  Candidates run at the joint supremum
      // (max state multiplier x profile peak); the acceptance test folds
      // the current state and the intensity profile in one draw.  The state
      // trajectory advances lazily but independently of acceptance, so the
      // thinning stays exact.
      const double cap = std::max(config.burst_ratio, 1.0) * peak;
      bool burst = false;
      double next_switch = rng.exponential(config.mean_idle_us);
      while (out.size() < config.sessions) {
        t += rng.exponential(mean_us / cap);
        while (t >= next_switch) {
          burst = !burst;
          next_switch += rng.exponential(burst ? config.mean_burst_us : config.mean_idle_us);
        }
        const double state_mult = burst ? config.burst_ratio : 1.0;
        if (rng.uniform01() * cap <= state_mult * config.profile.multiplier(t)) out.push_back(t);
      }
      break;
    }
    case ArrivalKind::heavy: {
      // Renewal process with Pareto interarrivals whose mean matches the
      // base rate; the profile modulates by inverse-scaling each gap (a
      // renewal process has no thinning identity to exploit).
      const double xm = mean_us * (config.pareto_alpha - 1.0) / config.pareto_alpha;
      const ParetoDistribution pareto(config.pareto_alpha, xm);
      while (out.size() < config.sessions) {
        const double gap = pareto.sample(rng);
        const double local = std::max(config.profile.multiplier(t), 1e-12);
        t += gap / local;
        out.push_back(t);
      }
      break;
    }
  }
  return out;
}

std::vector<std::vector<double>> assign_arrivals(const ArrivalConfig& config,
                                                 std::size_t num_users, std::uint64_t seed) {
  if (num_users == 0) throw std::invalid_argument("assign_arrivals: need >= 1 user");
  const std::vector<double> times = generate_arrivals(config, seed);
  std::vector<std::vector<double>> per_user(num_users);
  util::RngStream pick(seed, "traffic/assign");
  for (const double t : times) {
    const auto user = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(num_users) - 1));
    per_user[user].push_back(t);
  }
  return per_user;
}

}  // namespace wlgen::traffic
