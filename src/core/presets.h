#pragma once

#include <cstdint>
#include <vector>

#include "core/workload.h"

namespace wlgen::core {

class DistributionSpecifier;

/// Paper Table 5.1 — "File characterization by file category": the nine
/// categories with their mean file sizes and fractions of all files.  The
/// paper specifies only means and "assume[s] that the measures are
/// exponentially distributed" (section 5.1); these profiles therefore carry
/// exponential size distributions with those means.  Every call returns the
/// same distribution objects, made once per process.
std::vector<FileCategoryProfile> di86_file_profiles();

/// Paper Table 5.2 — "User characterization by file category": per-category
/// accesses-per-byte, touched-file size, files-per-session (all exponential
/// around the published means, per the paper's stated assumption) and the
/// probability a user touches the category at all.
std::vector<UsageProfile> di86_usage_profiles();

/// Paper section 5.1 defaults for the syscall-level parameters: access size
/// exponential with mean 1024 bytes, think time exponential with mean
/// 5000 µs.
DistRef default_access_size_dist();
DistRef default_think_time_dist();

/// Paper Table 5.4 — the three simulated user types, distinguished by think
/// time: extremely heavy (0 µs), heavy (5000 µs), light (20000 µs).  All use
/// the default access-size distribution and the Table 5.2 usage profiles.
UserType extremely_heavy_user();
UserType heavy_user();
UserType light_user();

/// The default single-type population of section 5.1 (all "heavy", i.e. the
/// 5000 µs think time used for the 600-session characterisation run).
Population default_population();

/// The mixed populations of Figures 5.7–5.11: `heavy_fraction` of heavy
/// users, the rest light.
Population mixed_population(double heavy_fraction);

/// A user type equal to `base` but with the access-size distribution
/// replaced by an exponential of the given mean — the Figure 5.12 sweep
/// ("from a mean of 128 bytes to 2048 bytes").
UserType with_access_size_mean(const UserType& base, double mean_bytes);

/// Applies GDS overrides to every group of `population`: when `gds` names
/// "think_time" and/or "access_size", those distributions replace the
/// groups' presets.  The re-parameterisation hook shared by `wlgen run
/// --spec` and the scenario subsystem's `[workload]` overrides.
void apply_gds_overrides(Population& population, const DistributionSpecifier& gds);

}  // namespace wlgen::core
