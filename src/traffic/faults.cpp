#include "traffic/faults.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"
#include "util/strings.h"

namespace wlgen::traffic {

void FaultPlan::validate() const {
  std::vector<SlowdownWindow> sorted = slowdowns;
  std::sort(sorted.begin(), sorted.end(),
            [](const SlowdownWindow& a, const SlowdownWindow& b) { return a.begin_us < b.begin_us; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const SlowdownWindow& w = sorted[i];
    if (w.begin_us < 0.0) {
      throw std::invalid_argument("FaultPlan: slowdown window begins before t=0");
    }
    if (!(w.end_us > w.begin_us)) {
      throw std::invalid_argument("FaultPlan: slowdown window is inverted or empty");
    }
    if (!(w.factor > 0.0)) {
      throw std::invalid_argument("FaultPlan: slowdown factor must be > 0");
    }
    if (i > 0 && w.begin_us < sorted[i - 1].end_us) {
      throw std::invalid_argument("FaultPlan: slowdown windows overlap");
    }
  }
  for (const double t : flush_times_us) {
    if (t < 0.0) throw std::invalid_argument("FaultPlan: flush time before t=0");
  }
  for (const ChurnWindow& w : churns) {
    if (w.begin_us < 0.0) {
      throw std::invalid_argument("FaultPlan: churn window begins before t=0");
    }
    if (!(w.end_us > w.begin_us)) {
      throw std::invalid_argument("FaultPlan: churn window is inverted or empty");
    }
    if (w.fraction < 0.0 || w.fraction > 1.0) {
      throw std::invalid_argument("FaultPlan: churn fraction must be in [0, 1]");
    }
  }
}

std::string FaultPlan::tag() const {
  if (!any()) return "";
  std::string out = "faults=";
  for (std::size_t i = 0; i < slowdowns.size(); ++i) {
    out += (i == 0 ? "slow:" : "|");
    out += util::exact_double(slowdowns[i].begin_us) + '-' + util::exact_double(slowdowns[i].end_us) + 'x' +
           util::exact_double(slowdowns[i].factor);
  }
  if (!flush_times_us.empty()) {
    if (!slowdowns.empty()) out += ' ';
    out += "flush:";
    for (std::size_t i = 0; i < flush_times_us.size(); ++i) {
      if (i > 0) out += '|';
      out += util::exact_double(flush_times_us[i]);
    }
  }
  if (!churns.empty()) {
    if (!slowdowns.empty() || !flush_times_us.empty()) out += ' ';
    out += "churn:";
    for (std::size_t i = 0; i < churns.size(); ++i) {
      if (i > 0) out += '|';
      out += util::exact_double(churns[i].begin_us) + '-' + util::exact_double(churns[i].end_us) + '@' +
             util::exact_double(churns[i].fraction);
    }
  }
  return out;
}

void install_faults(sim::Simulation& sim, fsmodel::FileSystemModel& model,
                    const FaultPlan& plan) {
  for (const SlowdownWindow& w : plan.slowdowns) {
    const double factor = w.factor;
    sim.schedule_at(w.begin_us, [&model, factor]() { model.set_service_scale(factor); });
    sim.schedule_at(w.end_us, [&model]() { model.set_service_scale(1.0); });
  }
  for (const double t : plan.flush_times_us) {
    sim.schedule_at(t, [&model]() { model.flush_caches(); });
  }
}

bool churned_out(std::uint64_t seed, std::size_t user, std::size_t window_index,
                 double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  std::uint64_t state = seed;
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(user) + 1);
  state ^= 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(window_index) + 1);
  const std::uint64_t mixed = util::splitmix64(state);
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return u < fraction;
}

double churn_adjusted(const std::vector<ChurnWindow>& churns, std::uint64_t seed,
                      std::size_t user, double t_us) {
  double adjusted = t_us;
  bool moved = true;
  while (moved) {  // overlapping windows can cascade; iterate to a fixed point
    moved = false;
    for (std::size_t i = 0; i < churns.size(); ++i) {
      const ChurnWindow& w = churns[i];
      if (adjusted >= w.begin_us && adjusted < w.end_us &&
          churned_out(seed, user, i, w.fraction)) {
        adjusted = w.end_us;
        moved = true;
      }
    }
  }
  return adjusted;
}

}  // namespace wlgen::traffic
