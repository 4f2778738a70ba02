#include "core/presets.h"

#include "core/spec.h"
#include "dist/basic.h"

namespace wlgen::core {

namespace {

/// Exponential DistRef with the given mean.
DistRef exp_dist(double mean) { return make_dist<dist::ExponentialDistribution>(mean); }

FileCategory cat(FileType t, FileOwner o, UseMode u) { return FileCategory{t, o, u}; }

}  // namespace

std::vector<FileCategoryProfile> di86_file_profiles() {
  // Made once and shared: the distributions never change, and every caller
  // then presents the same ones, so FileSystemCreator's /system snapshots
  // (keyed on their addresses) serve every universe of the process.
  static const std::vector<FileCategoryProfile> profiles = [] {
    // Columns: category, mean file size (bytes), percent of files in category.
    std::vector<FileCategoryProfile> out;
    out.push_back({cat(FileType::directory, FileOwner::user, UseMode::read_only), exp_dist(714), 0.077});
    out.push_back({cat(FileType::directory, FileOwner::other, UseMode::read_only), exp_dist(779), 0.034});
    out.push_back({cat(FileType::regular, FileOwner::user, UseMode::read_only), exp_dist(5794), 0.218});
    out.push_back({cat(FileType::regular, FileOwner::user, UseMode::new_file), exp_dist(11164), 0.097});
    out.push_back({cat(FileType::regular, FileOwner::user, UseMode::read_write), exp_dist(17431), 0.046});
    out.push_back({cat(FileType::regular, FileOwner::user, UseMode::temp), exp_dist(12431), 0.382});
    out.push_back({cat(FileType::regular, FileOwner::notes, UseMode::read_only), exp_dist(31347), 0.064});
    out.push_back({cat(FileType::regular, FileOwner::notes, UseMode::read_write), exp_dist(18771), 0.032});
    out.push_back({cat(FileType::regular, FileOwner::other, UseMode::read_only), exp_dist(15072), 0.050});
    return out;
  }();
  return profiles;
}

std::vector<UsageProfile> di86_usage_profiles() {
  // Columns: category, accesses-per-byte, file size, files per session,
  // percent of users accessing the category.  (The first row's
  // accesses-per-byte appears as "3128" in the scanned table; the decimal
  // point is lost in the scan — 3.128 is the value consistent with every
  // other row of the characterisation.)
  std::vector<UsageProfile> out;
  out.push_back({cat(FileType::directory, FileOwner::user, UseMode::read_only),
                 exp_dist(3.128), exp_dist(808), exp_dist(2.9), 0.69});
  out.push_back({cat(FileType::directory, FileOwner::other, UseMode::read_only),
                 exp_dist(2.28), exp_dist(1198), exp_dist(2.5), 0.70});
  out.push_back({cat(FileType::regular, FileOwner::user, UseMode::read_only),
                 exp_dist(1.42), exp_dist(2608), exp_dist(6.0), 1.00});
  out.push_back({cat(FileType::regular, FileOwner::user, UseMode::new_file),
                 exp_dist(2.36), exp_dist(11438), exp_dist(4.0), 0.40});
  out.push_back({cat(FileType::regular, FileOwner::user, UseMode::read_write),
                 exp_dist(3.50), exp_dist(19860), exp_dist(2.2), 0.46});
  out.push_back({cat(FileType::regular, FileOwner::user, UseMode::temp),
                 exp_dist(2.00), exp_dist(9233), exp_dist(9.7), 0.59});
  out.push_back({cat(FileType::regular, FileOwner::notes, UseMode::read_only),
                 exp_dist(0.75), exp_dist(53965), exp_dist(11.3), 0.53});
  out.push_back({cat(FileType::regular, FileOwner::notes, UseMode::read_write),
                 exp_dist(1.77), exp_dist(20383), exp_dist(5.7), 0.38});
  out.push_back({cat(FileType::regular, FileOwner::other, UseMode::read_only),
                 exp_dist(2.11), exp_dist(13578), exp_dist(3.1), 0.55});
  return out;
}

DistRef default_access_size_dist() { return exp_dist(1024.0); }

DistRef default_think_time_dist() { return exp_dist(5000.0); }

UserType extremely_heavy_user() {
  UserType u;
  u.name = "extremely-heavy";
  u.think_time_us = make_dist<dist::ConstantDistribution>(0.0);
  u.access_size_bytes = default_access_size_dist();
  u.usage = di86_usage_profiles();
  return u;
}

UserType heavy_user() {
  UserType u;
  u.name = "heavy";
  u.think_time_us = exp_dist(5000.0);
  u.access_size_bytes = default_access_size_dist();
  u.usage = di86_usage_profiles();
  return u;
}

UserType light_user() {
  UserType u;
  u.name = "light";
  u.think_time_us = exp_dist(20000.0);
  u.access_size_bytes = default_access_size_dist();
  u.usage = di86_usage_profiles();
  return u;
}

Population default_population() {
  Population p;
  p.groups.push_back({heavy_user(), 1.0});
  p.validate_and_normalize();
  return p;
}

Population mixed_population(double heavy_fraction) {
  Population p;
  if (heavy_fraction > 0.0) p.groups.push_back({heavy_user(), heavy_fraction});
  if (heavy_fraction < 1.0) p.groups.push_back({light_user(), 1.0 - heavy_fraction});
  p.validate_and_normalize();
  return p;
}

UserType with_access_size_mean(const UserType& base, double mean_bytes) {
  UserType u = base;
  u.access_size_bytes = exp_dist(mean_bytes);
  return u;
}

void apply_gds_overrides(Population& population, const DistributionSpecifier& gds) {
  for (auto& group : population.groups) {
    if (gds.contains("think_time")) group.type.think_time_us = gds.get("think_time");
    if (gds.contains("access_size")) group.type.access_size_bytes = gds.get("access_size");
  }
}

}  // namespace wlgen::core
