#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "runner/model_factory.h"
#include "stats/summary.h"
#include "traffic/traffic.h"

namespace wlgen::exp {

/// One full paper-style workload: FSC builds the file system, USIM runs the
/// population, the analyzer digests the log.  Every registered experiment
/// goes through this so results stay comparable (formerly
/// bench/common/experiment.h).
struct WorkloadConfig {
  std::size_t num_users = 1;
  std::size_t sessions_per_user = 50;  ///< paper: "mean value during 50 login sessions"
  std::uint64_t seed = 1991;
  runner::ModelFactory model_factory;  ///< null = runner::nfs_model_factory()
  core::Population population;         ///< empty = core::default_population()
  core::UsimConfig usim;  ///< num_users/sessions/seed are overwritten from above

  /// Open-system traffic (src/traffic/): when `traffic.arrivals` is set the
  /// run is open-loop (session starts follow the arrival process instead of
  /// think-time gaps) and `traffic.faults` perturbations are installed on
  /// the DES timeline.  Inert by default.
  traffic::TrafficConfig traffic;
};

/// Everything an experiment needs to build its figure/table series.
struct WorkloadOutput {
  double response_per_byte_us = 0.0;
  stats::RunningSummary access_size;
  stats::RunningSummary response_us;
  std::vector<core::SessionSummary> sessions;
  std::map<std::string, core::CategoryUsage> per_category;
  std::map<fsmodel::FsOpType, core::OpTypeStats> per_op;
  std::uint64_t total_ops = 0;
  double simulated_us = 0.0;
  std::string model_stats;
  core::UsageLog log;  ///< full log (for figure histograms)
};

/// Runs one workload to completion.
WorkloadOutput run_workload(const WorkloadConfig& config);

/// Configuration of a contended response sweep (the paper's Figures
/// 5.6–5.11): response time per byte for 1..max_users simultaneous users of
/// one population, each load point replicated `replications` times with
/// independent seeds and executed on runner::ContendedRunner's
/// (point x replication) worker pool.
struct ContendedSweepConfig {
  std::size_t max_users = 6;           ///< sweep points are 1..max_users
  std::size_t sessions_per_user = 50;  ///< paper: mean over 50 login sessions
  std::size_t replications = 1;
  std::size_t threads = 0;  ///< worker threads (0 = hardware concurrency)
  std::uint64_t seed = 1991;
  runner::ModelFactory model_factory;  ///< null = runner::nfs_model_factory()
  core::Population population;         ///< empty = core::default_population()
};

/// One sweep point's merged outcome.
struct ContendedSweepPoint {
  std::size_t users = 0;

  /// Response per byte pooled over the point's replications (total response
  /// over total bytes — the same estimator the single-run path reports).
  double response_per_byte_us = 0.0;

  /// Cross-replication mean/95% CI of the per-replication levels.
  stats::MeanCi ci;
};

/// Runs the contended sweep.  Deterministic: results are a pure function of
/// the config, independent of `threads` (the ContendedRunner merge
/// contract).
std::vector<ContendedSweepPoint> contended_response_sweep(const ContendedSweepConfig& config);

/// The paper's section-5.1 characterisation workload (600 login sessions at
/// full scale); Figures 5.3–5.5 are different projections of one run, so the
/// result is memoised per (sessions, seed) — safe under the parallel harness.
const WorkloadOutput& characterisation_run(std::size_t sessions, std::uint64_t seed);

}  // namespace wlgen::exp
