#pragma once

// Shared declarations of the end-to-end benchmark program (see README.md in
// this directory).  Every timing here is host time; simulated-time results
// enter only through the digests and per-point aggregates.

#include <cstdint>
#include <string>
#include <vector>

#include "core/fsc.h"
#include "scenario/run.h"

namespace perfbench {

/// Workload scale: `full` is the measured size, `tiny` the smoke-test size.
enum class Size { full, tiny };

inline constexpr std::uint64_t kDefaultSeed = 1991;

/// The workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// Worker threads every workload runs on (capped at `nproc` by make_spec).
/// One thread would be the simpler choice for the contended sweep, but on a
/// shared 4-CPU VM (gcc 12.2, Release) a single-threaded run's speed swings
/// with whatever its one CPU is sharing: over six seeds the contended sweep's
/// run-to-run spread (IQR/median of syscalls_per_s) was 0.31 on one thread
/// and 0.10 on two.
inline constexpr std::size_t kWorkloadThreads = 2;

/// The ScenarioSpec of (workload, seed), generated as scenario text and
/// parsed through ScenarioSpec::parse_text — the CLI's front door.
/// `spool_dir` is used by spilling workloads only.  Throws
/// std::invalid_argument on an unknown workload.
wlgen::scenario::ScenarioSpec make_spec(const std::string& workload, std::uint64_t seed,
                                        Size size, std::size_t nproc,
                                        const std::string& spool_dir);

/// True when the workload keeps a usage log (and so gets the analyzer report).
bool keeps_log(const wlgen::scenario::ScenarioSpec& spec);

/// Pinned outputs of a workload at the default seed and full size.
struct Pin {
  std::uint64_t digest_hash = 0;  ///< fnv1a64 of ScenarioOutcome::stats_digest
  std::uint64_t syscalls = 0;
  std::uint64_t events = 0;       ///< DES events (checked by the traced run)
};

/// The pin for (workload, seed, size), or null when none is pinned.
const Pin* pinned(const std::string& workload, std::uint64_t seed, Size size);

std::uint64_t fnv1a64(const std::string& text);

/// The per-point numbers the traced run must reproduce exactly.
struct PointAggregate {
  std::size_t users = 0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  double response_mean_us = 0.0;
  double response_per_byte_pooled = 0.0;
  double response_per_byte_mean = 0.0;

  bool operator==(const PointAggregate&) const = default;
};

std::string describe(const PointAggregate& point);

/// One untraced repetition: run_scenario plus, for log-keeping workloads,
/// the UsageAnalyzer report over the merged log (what `wlgen run --shards`
/// prints).
struct RepResult {
  std::string digest;
  std::uint64_t syscalls = 0;
  std::uint64_t sessions = 0;
  std::vector<PointAggregate> points;
  std::string report;  ///< analyzer report text ("" without a log)
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Runs one repetition.  Throws std::runtime_error when the analyzer report
/// disagrees with the runner's counts.
RepResult run_untraced(const wlgen::scenario::ScenarioSpec& spec);

/// One universe of a workload: users [first_user, first_user + users) on a
/// fresh file system under `seed` — one user of a sharded run, or one
/// replication of a contended sweep point.
struct Universe {
  std::size_t first_user = 0;
  std::size_t users = 0;
  std::uint64_t seed = 0;
};

/// The universes the runners build for `spec`, in their fold order (users
/// ascending; contended points in order, replications within a point).
std::vector<Universe> universes_of(const wlgen::scenario::ScenarioSpec& spec);

/// The FSC configuration the runners use for `universe`.
wlgen::core::FscConfig fsc_config(const Universe& universe);

/// Builds every universe of the workload through the public API without
/// simulating (fresh SimulatedFileSystem, model factory, FSC create — once
/// per user for sharded workloads, once per replication for contended
/// ones) on the workload's `threads`, as the runners do inline; returns
/// host wall seconds.
double setup_once(const wlgen::scenario::ScenarioSpec& spec);

/// The UsageAnalyzer report text, with the CLI's tables.
std::string render_analysis(wlgen::core::LogReader& reader, std::uint64_t* op_count,
                            std::uint64_t* session_count);

// --- allocation counting (global operator new in main.cpp) ----------------

/// Allocations counted while counting was on.  The counter only moves inside
/// traced boundaries, which run single-threaded.
std::uint64_t alloc_count();
void set_alloc_counting(bool on);

// --- clocks ----------------------------------------------------------------

double now_s();
std::uint64_t now_ns();
/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();

// --- traced run (traced.cpp) ----------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  std::vector<Metric> metrics;         ///< every per-layer metric, in order
  std::vector<PointAggregate> points;  ///< must equal the untraced points
  std::uint64_t syscalls = 0;
  std::uint64_t events = 0;
  std::vector<std::string> notes;      ///< reconciliation lines for the log
};

/// Re-executes the workload single-threaded through the runners' public
/// calls with bench-owned timing hooks, then runs the isolated fs/sim/dist
/// replays.  `untraced` supplies the CPU/wall figures the overhead and
/// parallel-efficiency metrics are taken against.  Spans go to `span_file`.
TracedResult run_traced(const wlgen::scenario::ScenarioSpec& spec, const RepResult& untraced,
                        const std::string& span_file);

}  // namespace perfbench
