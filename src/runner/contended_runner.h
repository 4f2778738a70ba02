#pragma once

#include <cstdint>
#include <vector>

#include "core/fsc.h"
#include "core/usim.h"
#include "core/workload.h"
#include "obs/obs.h"
#include "runner/model_factory.h"
#include "runner/stats.h"
#include "sim/simulation.h"
#include "stats/summary.h"
#include "traffic/traffic.h"

namespace wlgen::runner {

/// Deterministic seed of one contended replication: a splitmix64-style mix
/// of the root seed and the replication index.  It depends on nothing else —
/// not the total replication count, the set of sweep points, or scheduling —
/// so replication r reproduces exactly whether it runs alone or as part of a
/// larger sweep.  Deliberately *shared by every sweep point* of a
/// replication: per-user RNG streams are keyed by global user index, so the
/// N-user and (N+1)-user points of one replication draw from identical
/// streams for their first N users — common random numbers, the paper's
/// physical setup (the same terminals, one more switched on), which keeps
/// the response-vs-users differences low-variance.  Caveat: user-*type*
/// assignment apportions the population mix over each point's own user
/// count (an "N users of mix X" point means exactly that, so this is the
/// experiment's semantics, not an accident); single-type populations
/// (Figures 5.6, 5.7, 5.11) therefore get exact behavioural CRN, while
/// mixed ones get it per-stream but may flip a user's type between
/// adjacent points (see DESIGN.md "Contended runner").
std::uint64_t replication_seed(std::uint64_t root_seed, std::size_t replication);

/// Configuration of a contended run: a sweep over simultaneous-user counts
/// (the x-axis of Figures 5.6–5.11), each point replicated R times with
/// independent seeds.
struct ContendedConfig {
  /// Simultaneous-user counts to sweep, in output order (e.g. {1,...,6}).
  std::vector<std::size_t> user_points;

  /// Independent replications per sweep point (>= 1).  Each replication is a
  /// complete universe: its own FSC layout and user streams under its own
  /// replication_seed().
  std::size_t replications = 1;

  /// Worker threads executing (point x replication) jobs (0 = min(jobs,
  /// hardware concurrency)).  Purely an execution knob; never affects
  /// results.
  std::size_t threads = 0;

  /// Root seed; see replication_seed().
  std::uint64_t seed = 1991;

  /// Confidence level of the cross-replication interval (0.90|0.95|0.99).
  double confidence = 0.95;

  /// Per-user behaviour.  num_users, first_user, population_users, seed,
  /// collect_log and the record hook are overwritten per replication.
  core::UsimConfig usim;

  /// File-system layout; num_users/first_user/seed overwritten.
  core::FscConfig fsc;

  /// Initial-file-system category profiles (empty = core::di86_file_profiles()).
  std::vector<core::FileCategoryProfile> profiles;

  /// User-type mixture (empty groups = core::default_population()).
  core::Population population;

  /// Geometry of the per-point response-time histograms.
  HistogramSpec histogram;

  /// Model per replication — shared by all of that replication's users
  /// (null = nfs_model_factory()).  A parameter ablation is a factory that
  /// tunes the model it builds.
  ModelFactory model_factory;

  /// Observability switches (all off by default — the default run takes
  /// exactly the uninstrumented hot path).
  obs::ObsConfig obs;

  /// Open-system traffic (src/traffic/): optional open-loop arrivals plus a
  /// fault plan.  Each replication generates its own arrival timeline from
  /// its replication_seed() (independent replications stay independent) and
  /// installs the fault events on its shared model — pure functions of
  /// (config, point, replication), so thread invariance is unchanged.
  traffic::TrafficConfig traffic;
};

/// Per-replication execution accounting (reporting only — results never
/// depend on it).
struct ReplicationReport {
  std::size_t point = 0;        ///< index into ContendedConfig::user_points
  std::size_t replication = 0;  ///< replication index within the point
  std::uint64_t seed = 0;       ///< the derived replication_seed()
  std::uint64_t ops = 0;        ///< system calls issued
  std::uint64_t events = 0;     ///< DES events dispatched
  double simulated_us = 0.0;    ///< replication's simulated timeline
  double wall_ms = 0.0;
};

/// Merged outcome of one sweep point.
struct ContendedPoint {
  std::size_t users = 0;

  /// Aggregates pooled over the point's replications, folded in ascending
  /// replication order — a fixed floating-point reduction sequence, so the
  /// pooled result is bit-identical for every thread count.
  RunnerStats stats;

  /// Per-replication response-per-byte levels, in replication order.
  std::vector<double> replication_levels;

  /// Cross-replication mean of replication_levels with a Student-t
  /// confidence half-width (half_width 0 when replications == 1).
  stats::MeanCi response_per_byte;

  std::uint64_t total_ops = 0;
  std::uint64_t sessions_completed = 0;
};

/// Merged outcome of a contended run.
struct ContendedResult {
  std::vector<ContendedPoint> points;  ///< user_points order
  std::vector<ReplicationReport> replications;  ///< (point, replication) order
  std::uint64_t total_ops = 0;
  double wall_ms = 0.0;  ///< whole run, including merging

  /// Merged observability outputs (empty/zero-capacity when obs is off).
  /// Stable metrics fold per (point, replication) job in fixed job order,
  /// so they are bit-identical for every thread count.
  obs::Registry registry;
  obs::RunTrace trace;
  runner::PoolObs pool;
};

/// Replication-parallel contended simulation runner — the scale-out path for
/// the paper's shared-machine response curves (Figures 5.6–5.11), where
/// ShardedRunner's independent-universe model deliberately does not apply
/// (architecture in DESIGN.md, "Contended runner").
///
/// Semantics: the unit of parallelism is a *replication* — one
/// sim::Simulation hosting all N users of a sweep point against one shared
/// fsmodel::FileSystemModel (the paper's shared workstation / NFS server),
/// exactly what core::UserSimulator with UsimConfig::num_users == N already
/// computes on the serial path.  Users inside a replication queue against
/// each other (that contention IS the experiment); replications and sweep
/// points share nothing, so the (point x replication) job grid is
/// embarrassingly parallel.
///
/// Execution: a pool of worker threads drains the job grid, each worker
/// reusing one warm Simulation (clock/arena reset per job).  Results land in
/// per-job slots and fold in fixed (point, replication) order, mirroring the
/// ShardedRunner merge contract: every output — pooled RunnerStats,
/// per-replication levels, mean/CI — is bit-identical for any thread count
/// and for any larger run containing the same (seed, users, replication)
/// triples.
class ContendedRunner {
 public:
  explicit ContendedRunner(ContendedConfig config);

  /// Executes the run.  May be called once.
  ContendedResult run();

  const ContendedConfig& config() const { return config_; }

 private:
  struct JobOutcome;

  /// Simulates one replication (all users of one sweep point) on the
  /// worker's Simulation.  `sample`/`op_ring` are the per-job obs sinks;
  /// null means the uninstrumented record hook.
  void run_replication(sim::Simulation& sim, std::size_t users, std::uint64_t seed,
                       JobOutcome& out, obs::SimSample* sample,
                       obs::TraceRing* op_ring) const;

  ContendedConfig config_;
  bool ran_ = false;
};

}  // namespace wlgen::runner
