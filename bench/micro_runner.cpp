// Microbenchmark (google-benchmark): scaling of the two parallel runners,
// plus the serial post-run tail (log merge, Usage Analyzer).
//
// BM_ShardedRunner — wall-clock throughput of the same fixed workload
// (users x sessions against the NFS model, log collection off) as the
// worker-thread count grows.  BM_ContendedRunner — the same question for
// the contended path: a fixed (load points x replications) grid of
// shared-machine simulations drained by a growing pool.  Both are
// scoreboard entries behind the DESIGN.md scaling tables: on an M-core
// machine the /T rate should approach T-fold the /1 rate until T exceeds M
// (on a single-core CI container the curves are flat).

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "core/analysis.h"
#include "runner/contended_runner.h"
#include "runner/merge.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"
#include "util/rng.h"

namespace {

using namespace wlgen;

constexpr std::size_t kUsers = 24;
constexpr std::size_t kSessions = 4;

// Pool utilization as a percentage: busy / (busy + idle) across all workers.
// Two steady_clock reads per job (obs.pool), invisible at shard granularity.
double busy_pct(std::uint64_t busy_ns, std::uint64_t idle_ns) {
  const double total = static_cast<double>(busy_ns + idle_ns);
  return total > 0.0 ? 100.0 * static_cast<double>(busy_ns) / total : 0.0;
}

void BM_ShardedRunner(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (auto _ : state) {
    runner::RunnerConfig config;
    config.num_users = kUsers;
    config.shards = 4 * threads;  // a few shards per worker
    config.threads = threads;
    config.usim.sessions_per_user = kSessions;
    config.collect_log = false;  // measure the engine, not log retention
    config.obs.pool = true;      // busy/idle split for the utilization column
    runner::ShardedRunner run(std::move(config));
    const auto result = run.run();
    ops += result.total_ops;
    sessions += result.sessions_completed;
    busy_ns += result.pool.busy_ns();
    idle_ns += result.pool.idle_ns();
    benchmark::DoNotOptimize(result.stats.response_us().mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kUsers));
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["sessions/s"] =
      benchmark::Counter(static_cast<double>(sessions), benchmark::Counter::kIsRate);
  // Self-diagnosis for flat scaling curves: saturated workers show ~100,
  // a starved pool (more workers than cores, or skewed shards) shows less.
  state.counters["pool_busy_pct"] = benchmark::Counter(busy_pct(busy_ns, idle_ns));
}
BENCHMARK(BM_ShardedRunner)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Contended-replication scaling: Figures 5.6-5.11's job shape in miniature
// (a users sweep, R replications per point, every job one shared-machine
// Simulation).  Items = replications completed.
void BM_ContendedRunner(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kReplications = 4;
  std::uint64_t ops = 0;
  std::size_t replications = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  for (auto _ : state) {
    runner::ContendedConfig config;
    config.user_points = {1, 2, 4};
    config.replications = kReplications;
    config.threads = threads;
    config.usim.sessions_per_user = kSessions;
    config.obs.pool = true;
    runner::ContendedRunner run(std::move(config));
    const auto result = run.run();
    ops += result.total_ops;
    replications += result.replications.size();
    busy_ns += result.pool.busy_ns();
    idle_ns += result.pool.idle_ns();
    benchmark::DoNotOptimize(result.points.back().response_per_byte.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replications));
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["pool_busy_pct"] = benchmark::Counter(busy_pct(busy_ns, idle_ns));
}
BENCHMARK(BM_ContendedRunner)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

// Per-user logs shaped like USIM's: each user's records in issue order on a
// coarse time grid, so cross-user timestamp ties are frequent (and a few
// within-user ones), several login sessions per user, open/read/write/close
// over a small per-session file set.  The merge then takes the loser-tree
// path with no fallback sort, as in a real run.
constexpr std::size_t kTailUsers = 64;

std::vector<core::UsageLog> issue_ordered_user_logs(std::size_t users,
                                                    std::size_t ops_per_user) {
  constexpr fsmodel::FsOpType kCycle[] = {fsmodel::FsOpType::open, fsmodel::FsOpType::read,
                                          fsmodel::FsOpType::write, fsmodel::FsOpType::close};
  std::vector<core::UsageLog> logs(users);
  for (std::size_t u = 0; u < users; ++u) {
    util::RngStream rng(1991, u);
    double t = 0.0;
    for (std::size_t i = 0; i < ops_per_user; ++i) {
      core::OpRecord r;
      t += 10.0 * static_cast<double>(rng.uniform_int(0, 3));
      r.issue_time_us = t;
      r.response_us = rng.uniform(50.0, 5000.0);
      r.user = static_cast<std::uint32_t>(u);
      r.session = static_cast<std::uint32_t>(i * 4 / ops_per_user);
      r.op = kCycle[i % 4];
      r.requested_bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 8192));
      r.actual_bytes = r.requested_bytes;
      r.file_id = 1000 * u + static_cast<std::uint64_t>(rng.uniform_int(0, 40));
      r.file_size = 4096 * (r.file_id % 7 + 1);
      logs[u].append(r);
    }
  }
  return logs;
}

// The post-run log merge in isolation: 64 issue-ordered per-user logs
// through runner::merge_user_logs (one loser-tree merge over in-RAM runs).
void BM_MergeUserLogs(benchmark::State& state) {
  const std::size_t ops_per_user = static_cast<std::size_t>(state.range(0));
  const std::vector<core::UsageLog> prototype =
      issue_ordered_user_logs(kTailUsers, ops_per_user);
  for (auto _ : state) {
    std::vector<core::UsageLog> logs = prototype;
    benchmark::DoNotOptimize(runner::merge_user_logs(std::move(logs)).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTailUsers * ops_per_user));
}
BENCHMARK(BM_MergeUserLogs)->Arg(1000);

// The Usage Analyzer's single pass over the same merged log: per-op and
// per-session accumulation, then the end-of-run sort into session order.
void BM_UsageAnalyzer(benchmark::State& state) {
  const std::size_t ops_per_user = static_cast<std::size_t>(state.range(0));
  const core::UsageLog log =
      runner::merge_user_logs(issue_ordered_user_logs(kTailUsers, ops_per_user));
  for (auto _ : state) {
    const core::UsageAnalyzer analyzer(log);
    benchmark::DoNotOptimize(analyzer.sessions().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_UsageAnalyzer)->Arg(1000);

// Scenario-level parallelism: one three-backend sharded scenario, run with a
// growing --threads budget.  run_scenario fans the independent backends over
// the worker pool (scenario/run.cpp), so on an M-core machine the /T time
// should shrink toward 1/min(T, 3, M) of /1 — flat on a single-core
// container (num_cpus in this file's recorded context says which).  The
// stats digest is bit-identical at every thread count; the benchmark only
// measures wall clock.
void BM_ScenarioMultiBackend(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(R"(
[scenario]
name = bench-multi-backend
mode = sharded

[workload]
users = 12
sessions = 3

[sharded]
shards = 4
collect_log = false

[model]
names = nfs, local, wholefile
)");
  for (auto _ : state) {
    scenario::RunOptions options;
    options.threads = threads;
    const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, options);
    benchmark::DoNotOptimize(outcome.stats_digest.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_ScenarioMultiBackend)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

WLGEN_BENCHMARK_MAIN();
