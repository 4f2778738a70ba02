#include "runner/contended_runner.h"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/presets.h"
#include "obs/progress.h"
#include "runner/pool.h"
#include "runner/universe.h"
#include "util/rng.h"

namespace wlgen::runner {

std::uint64_t replication_seed(std::uint64_t root_seed, std::size_t replication) {
  // Chain two util::splitmix64 steps so nearby (root, replication) pairs
  // never collide by simple arithmetic coincidence; the result is a pure
  // function of the two inputs.
  std::uint64_t state = root_seed;
  state = util::splitmix64(state) + static_cast<std::uint64_t>(replication);
  return util::splitmix64(state);
}

/// Everything one replication produces; slots are per-job, so workers never
/// write to shared state.
struct ContendedRunner::JobOutcome {
  explicit JobOutcome(HistogramSpec spec) : stats(spec) {}

  RunnerStats stats;
  double simulated_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
};

ContendedRunner::ContendedRunner(ContendedConfig config) : config_(std::move(config)) {
  if (config_.user_points.empty()) {
    throw std::invalid_argument("ContendedRunner: need >= 1 sweep point");
  }
  for (const std::size_t users : config_.user_points) {
    if (users == 0) throw std::invalid_argument("ContendedRunner: sweep points need >= 1 user");
  }
  if (config_.replications == 0) {
    throw std::invalid_argument("ContendedRunner: need >= 1 replication");
  }
  if (config_.profiles.empty()) config_.profiles = core::di86_file_profiles();
  if (config_.population.groups.empty()) config_.population = core::default_population();
  if (!config_.model_factory) config_.model_factory = nfs_model_factory();
  config_.traffic.validate();
  if (config_.traffic.arrivals && config_.usim.windows_per_user != 1) {
    throw std::invalid_argument(
        "ContendedRunner: open-loop arrivals require windows_per_user == 1");
  }
}

void ContendedRunner::run_replication(sim::Simulation& sim, std::size_t users,
                                      std::uint64_t seed, JobOutcome& out,
                                      obs::SimSample* sample, obs::TraceRing* op_ring) const {
  sim.reset();

  core::UsimConfig usim_config = config_.usim;
  usim_config.num_users = users;
  usim_config.first_user = 0;
  usim_config.population_users = users;
  usim_config.seed = seed;
  usim_config.collect_log = false;  // aggregates only; replications do not share a log
  // Open-loop arrivals: each replication deals its own timeline from its
  // replication seed — a pure function of (config, users, seed), so results
  // stay thread-invariant and replications stay independent.
  if (config_.traffic.arrivals) {
    usim_config.arrival_times_us = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config_.traffic.arrivals, users, seed));
  }
  // Same single-observation-point pattern as ShardedRunner::run_user: obs
  // off means the historical record hook, bit for bit.
  if (sample == nullptr) {
    usim_config.on_record = [&out](const core::OpRecord& r) { out.stats.add(r); };
  } else if (op_ring == nullptr) {
    usim_config.on_record = [&out, sample](const core::OpRecord& r) {
      out.stats.add(r);
      sample->ops.add(r);
    };
  } else {
    usim_config.on_record = [&out, sample, op_ring](const core::OpRecord& r) {
      out.stats.add(r);
      sample->ops.add(r);
      obs::record_op(*op_ring, r);
    };
  }

  // Fault events land on the replication's shared model — the server-side
  // disturbance every user of the point experiences together.
  Universe universe(sim, config_.model_factory, config_.profiles, config_.fsc,
                    config_.population, std::move(usim_config), config_.traffic.faults);
  core::UserSimulator& usim = universe.usim();
  usim.run();

  out.simulated_us = sim.now();
  out.ops = usim.total_ops();
  out.sessions = usim.sessions_completed();
  out.events = sim.events_processed();
  if (sample != nullptr) {
    sample->sim_events = out.events;
    sample->heap_high_water = sim.arena_high_water();
    sample->rng_draws = usim.rng_draws();
    sample->sessions = out.sessions;
  }
}

ContendedResult ContendedRunner::run() {
  if (ran_) throw std::logic_error("ContendedRunner::run: may only run once");
  ran_ = true;
  const auto run_start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim

  const std::size_t points = config_.user_points.size();
  const std::size_t reps = config_.replications;
  const std::size_t jobs = points * reps;

  std::vector<JobOutcome> outcomes(jobs, JobOutcome(config_.histogram));
  std::vector<ReplicationReport> reports(jobs);

  // Observability sinks: per-job samples (fold in fixed job order) and
  // per-job trace rings; all empty when obs is off.
  const bool collect = config_.obs.collect();
  const bool trace_on = config_.obs.trace();
  std::vector<obs::SimSample> samples(collect ? jobs : 0);
  std::vector<obs::TraceRing> op_rings;
  std::vector<obs::TraceRing> stage_rings;
  if (trace_on) {
    const std::size_t share = obs::ring_share(config_.obs.trace_events / 2, jobs);
    op_rings.assign(jobs, obs::TraceRing(share));
    stage_rings.assign(jobs, obs::TraceRing(share));
  }
  std::optional<obs::ProgressReporter> progress;
  if (config_.obs.progress) {
    obs::ProgressReporter::Options options;
    options.label = config_.obs.label.empty() ? "contended sweep" : config_.obs.label;
    options.unit = "replications";
    options.total_units = jobs;
    options.interval_ms = config_.obs.progress_interval_ms;
    progress.emplace(std::move(options));
  }
  PoolObs pool_obs;
  pool_obs.record_spans = trace_on;
  PoolObs* const pool_ptr = config_.obs.any() ? &pool_obs : nullptr;

  // Workers drain the (point x replication) grid; each owns one Simulation
  // whose clock and event arena are reset between jobs.  Job j = p * reps + r
  // writes only to slot j, so scheduling never touches shared state.
  drain_pool(jobs, config_.threads, [&]() -> PoolJob {
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t j, const std::atomic<bool>& cancelled) {
      if (cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t p = j / reps;
      const std::size_t r = j % reps;
      const std::size_t users = config_.user_points[p];
      const std::uint64_t seed = replication_seed(config_.seed, r);
      const auto job_start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
      obs::ScopedStageTrace stage_trace(trace_on ? &stage_rings[j] : nullptr);
      run_replication(*sim, users, seed, outcomes[j], collect ? &samples[j] : nullptr,
                      trace_on ? &op_rings[j] : nullptr);
      reports[j] = {p, r, seed, outcomes[j].ops, outcomes[j].events,
                    outcomes[j].simulated_us, elapsed_ms(job_start)};
      if (progress) progress->advance(1, outcomes[j].events, outcomes[j].simulated_us);
    };
  }, pool_ptr);

  // Deterministic fold: fixed (point, replication) order, independent of
  // which thread produced each slot.
  ContendedResult result;
  result.points.reserve(points);
  for (std::size_t p = 0; p < points; ++p) {
    ContendedPoint point;
    point.users = config_.user_points[p];
    point.stats = RunnerStats(config_.histogram);
    point.replication_levels.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      const JobOutcome& out = outcomes[p * reps + r];
      point.stats.merge(out.stats);
      point.replication_levels.push_back(out.stats.response_per_byte_us());
      point.total_ops += out.ops;
      point.sessions_completed += out.sessions;
    }
    point.response_per_byte =
        stats::mean_confidence_interval(point.replication_levels, config_.confidence);
    result.total_ops += point.total_ops;
    result.points.push_back(std::move(point));
  }
  result.replications = std::move(reports);

  if (progress) progress->stop();
  if (collect) {
    obs::SimSample merged;
    for (std::size_t j = 0; j < jobs; ++j) merged.merge(samples[j]);
    merged.export_into(result.registry);
    if (config_.traffic.any()) {
      // Pure functions of the config — thread invariant, so stable.
      if (config_.traffic.arrivals) {
        result.registry.add_counter("traffic.arrivals",
                                    config_.traffic.arrivals->sessions * jobs);
      }
      result.registry.add_counter("traffic.slowdown_windows",
                                  config_.traffic.faults.slowdowns.size());
      result.registry.add_counter("traffic.flush_events",
                                  config_.traffic.faults.flush_times_us.size());
      result.registry.add_counter("traffic.churn_windows",
                                  config_.traffic.faults.churns.size());
    }
    if (pool_ptr != nullptr) obs::export_pool(pool_obs, result.registry);
  }
  if (trace_on) {
    for (std::size_t j = 0; j < jobs; ++j) {
      result.trace.ops.append(op_rings[j]);
      result.trace.stages.append(stage_rings[j]);
    }
    result.trace.pool = obs::TraceRing(pool_obs.spans.size());
    obs::pool_spans_into(pool_obs, result.trace.pool);
  }
  result.pool = std::move(pool_obs);

  result.wall_ms = elapsed_ms(run_start);
  return result;
}

}  // namespace wlgen::runner
