#include "runner/sharded_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/presets.h"
#include "obs/progress.h"
#include "runner/checkpoint.h"
#include "runner/pool.h"
#include "runner/universe.h"

namespace wlgen::runner {

namespace {

std::string shard_stem(std::size_t shard) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "shard%06zu", shard);
  return buffer;
}

}  // namespace

/// Everything one user's universe produces; slots are per-user, so workers
/// never write to shared state.
struct ShardedRunner::UserOutcome {
  explicit UserOutcome(HistogramSpec spec) : stats(spec) {}

  core::UsageLog log;
  RunnerStats stats;
  double simulated_us = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::uint64_t rng_draws = 0;        ///< always set (checkpoints need it)
  std::uint64_t heap_high_water = 0;  ///< always set (checkpoints need it)
};

ShardedRunner::ShardedRunner(RunnerConfig config) : config_(std::move(config)) {
  if (config_.num_users == 0) throw std::invalid_argument("ShardedRunner: need >= 1 user");
  if (config_.shards == 0) throw std::invalid_argument("ShardedRunner: need >= 1 shard");
  if (config_.spill.enabled) {
    if (config_.spill.spool_dir.empty()) {
      throw std::invalid_argument("ShardedRunner: spill requires a spool directory");
    }
    if (!config_.collect_log) {
      throw std::invalid_argument(
          "ShardedRunner: spill streams the log to disk, which conflicts with "
          "collect_log = false (aggregates-only mode); enable the log or disable spill");
    }
    if (config_.spill.buffer_records == 0) {
      throw std::invalid_argument("ShardedRunner: spill.buffer_records must be >= 1");
    }
  }
  if (config_.spill.checkpoint && !config_.spill.enabled) {
    throw std::invalid_argument(
        "ShardedRunner: checkpointing persists spilled runs; it requires spill");
  }
  if (config_.spill.resume && !config_.spill.checkpoint) {
    throw std::invalid_argument("ShardedRunner: resume requires checkpointing");
  }
  profiles_ = core::di86_file_profiles();
  if (config_.population.groups.empty()) config_.population = core::default_population();
  if (!config_.model_factory) config_.model_factory = nfs_model_factory();
  config_.traffic.validate();
  if (config_.traffic.arrivals && config_.usim.windows_per_user != 1) {
    throw std::invalid_argument(
        "ShardedRunner: open-loop arrivals require windows_per_user == 1");
  }
}

std::string ShardedRunner::fingerprint() const {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "v1 seed=%llu users=%zu shards=%zu sessions=%zu windows=%zu",
                static_cast<unsigned long long>(config_.seed), config_.num_users,
                config_.shards, config_.usim.sessions_per_user, config_.usim.windows_per_user);
  std::string fp = buffer;
  fp += " tag=";
  fp += config_.spill.config_tag;
  // Traffic identity: any arrival/fault change must invalidate checkpoints.
  // Appended only when configured so pre-traffic checkpoints stay valid.
  if (config_.traffic.any()) {
    fp += " traffic=";
    fp += config_.traffic.tag();
  }
  return fp;
}

void ShardedRunner::run_user(sim::Simulation& sim, std::size_t user, UserOutcome& out,
                             obs::SimSample* sample, obs::TraceRing* op_ring,
                             core::LogSink* sink, stats::QuantileSketch* sketch) const {
  sim.reset();

  core::UsimConfig usim_config = config_.usim;
  usim_config.num_users = 1;
  usim_config.first_user = user;
  usim_config.population_users = config_.num_users;
  usim_config.seed = config_.seed;
  usim_config.collect_log = config_.collect_log;
  usim_config.sink = sink;  // non-null => records stream to the shard's runs
  usim_config.arrival_times_us = arrivals_;
  // The record hook is the single observation point: when obs is off the
  // lambda is the minimal stats+sketch one, so the hot path stays lean.
  if (sample == nullptr) {
    usim_config.on_record = [&out, sketch](const core::OpRecord& r) {
      out.stats.add(r);
      sketch->add(r.response_us);
    };
  } else if (op_ring == nullptr) {
    usim_config.on_record = [&out, sketch, sample](const core::OpRecord& r) {
      out.stats.add(r);
      sketch->add(r.response_us);
      sample->ops.add(r);
    };
  } else {
    usim_config.on_record = [&out, sketch, sample, op_ring](const core::OpRecord& r) {
      out.stats.add(r);
      sketch->add(r.response_us);
      sample->ops.add(r);
      obs::record_op(*op_ring, r);
    };
  }

  // Every user universe gets the same fault timeline — slowdown windows and
  // cache flushes are server-side events that exist in each universe's copy
  // of the environment, keeping the per-user purity the merge relies on.
  Universe universe(sim, config_.model_factory, profiles_, core::FscConfig{},
                    config_.population, std::move(usim_config), config_.traffic.faults);
  core::UserSimulator& usim = universe.usim();
  usim.run();

  out.log = usim.take_log();
  out.simulated_us = sim.now();
  out.ops = usim.total_ops();
  out.sessions = usim.sessions_completed();
  out.events = sim.events_processed();
  out.rng_draws = usim.rng_draws();
  out.heap_high_water = sim.arena_high_water();
  if (sample != nullptr) {
    sample->sim_events = out.events;
    sample->heap_high_water = out.heap_high_water;
    sample->rng_draws = out.rng_draws;
    sample->sessions = out.sessions;
  }
}

RunnerResult ShardedRunner::run() {
  if (ran_) throw std::logic_error("ShardedRunner::run: may only run once");
  ran_ = true;
  const auto run_start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim

  const std::size_t num_users = config_.num_users;
  const std::vector<UserRange> ranges = partition_users(num_users, config_.shards);
  const bool spill = config_.spill.enabled;
  const bool merge_in_memory = config_.collect_log && !spill;

  // Open-loop arrivals: one global timeline from the root seed, dealt to
  // users before the pool starts — a pure function of the config, never of
  // the shard cut or scheduling.
  if (config_.traffic.arrivals) {
    arrivals_ = std::make_shared<const std::vector<std::vector<double>>>(
        traffic::assign_arrivals(*config_.traffic.arrivals, num_users, config_.seed));
  }

  std::vector<UserOutcome> outcomes(num_users, UserOutcome(config_.histogram));
  std::vector<ShardReport> reports(ranges.size());
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    reports[s].shard = s;
    reports[s].range = ranges[s];
  }

  // Spill state: one lazily-created sink per shard (each slot touched only
  // by the worker that owns the shard), one quantile sketch per shard
  // (integer merge => any shard grouping yields the same merged sketch),
  // and — under resume — the shards whose checkpoints were accepted.
  const std::string fp = fingerprint();
  std::vector<std::unique_ptr<core::SpillSink>> sinks(ranges.size());
  std::vector<stats::QuantileSketch> sketches(ranges.size());
  std::vector<std::optional<ShardCheckpoint>> resumed(ranges.size());
  std::vector<char> wrote_ckpt(ranges.size(), 0);
  std::vector<core::UsageLog> shard_logs(merge_in_memory ? ranges.size() : 0);
  if (spill) {
    std::filesystem::create_directories(config_.spill.spool_dir);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      const std::string ckpt_path = checkpoint_path(config_.spill.spool_dir, s);
      if (config_.spill.resume) {
        resumed[s] = load_checkpoint(ckpt_path, fp, ranges[s].begin, ranges[s].end);
      }
      if (config_.spill.checkpoint && !resumed[s].has_value()) {
        // Drop any stale/rejected checkpoint so an interruption during this
        // run can never leave a file that lies about the new run files.
        std::error_code ec;
        std::filesystem::remove(ckpt_path, ec);
      }
    }
  }

  // Observability sinks: per-user samples (merge in user order, like stats)
  // and per-shard trace rings (each touched by one worker, appended in
  // shard order).  All empty when obs is off.
  const bool collect = config_.obs.collect();
  const bool trace_on = config_.obs.trace();
  std::vector<obs::SimSample> samples(collect ? num_users : 0);
  std::vector<obs::TraceRing> op_rings;
  std::vector<obs::TraceRing> stage_rings;
  if (trace_on) {
    const std::size_t share = obs::ring_share(config_.obs.trace_events / 2, ranges.size());
    op_rings.assign(ranges.size(), obs::TraceRing(share));
    stage_rings.assign(ranges.size(), obs::TraceRing(share));
  }
  std::optional<obs::ProgressReporter> progress;
  if (config_.obs.progress) {
    obs::ProgressReporter::Options options;
    options.label = config_.obs.label.empty() ? "sharded run" : config_.obs.label;
    options.unit = "users";
    options.total_units = num_users;
    options.interval_ms = config_.obs.progress_interval_ms;
    progress.emplace(std::move(options));
  }
  PoolObs pool_obs;
  pool_obs.record_spans = trace_on;
  PoolObs* const pool_ptr = config_.obs.any() ? &pool_obs : nullptr;

  // Workers drain the shard queue (runner::drain_pool); each owns one
  // Simulation whose clock and event arena are reset between users, so the
  // arena's allocation ramp-up is paid once per worker, not once per user.
  // A failure in any worker cancels the remaining shards — a 1M-user run
  // must not keep simulating for minutes after the error is known — and the
  // cancellation flag is also polled between users inside a shard.
  drain_pool(ranges.size(), config_.threads, [&]() -> PoolJob {
    auto sim = std::make_shared<sim::Simulation>();
    return [&, sim](std::size_t s, const std::atomic<bool>& cancelled) {
      const auto shard_start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
      // Installs this shard's stage ring (or null) for the worker while it
      // runs this shard; save/restore keeps nested pools correct.
      obs::ScopedStageTrace stage_trace(trace_on ? &stage_rings[s] : nullptr);

      if (resumed[s].has_value()) {
        // Checkpointed shard: skip the simulation and rebuild the per-user
        // accumulators by re-reading its sorted runs.  The stable per-run
        // sort preserved each user's original append order, so every
        // per-user slot sees the exact same sequence of add() calls as a
        // live run — which is what keeps the floating-point folds (and
        // therefore the digest) bit-identical.  Shard totals that records
        // cannot reproduce (events, RNG draws, ...) come from the
        // checkpoint's grouping-invariant integer scalars instead.
        const ShardCheckpoint& ckpt = *resumed[s];
        auto reader = core::open_spilled_log(ckpt.runs);
        core::OpRecord r;
        while (reader->next(r)) {
          if (cancelled.load(std::memory_order_relaxed)) return;
          // load_checkpoint checks only run-file sizes, so a same-size
          // corruption can carry any user id: refuse it before it indexes
          // the per-user slots.
          if (r.user < ranges[s].begin || r.user >= ranges[s].end) {
            throw std::runtime_error(
                "ShardedRunner: resumed shard " + std::to_string(s) + " (checkpoint '" +
                checkpoint_path(config_.spill.spool_dir, s) + "') holds a record of user " +
                std::to_string(r.user) + " outside its range [" +
                std::to_string(ranges[s].begin) + ", " + std::to_string(ranges[s].end) + ")");
          }
          outcomes[r.user].stats.add(r);
          sketches[s].add(r.response_us);
          if (collect) samples[r.user].ops.add(r);
        }
        reports[s].wall_ms = elapsed_ms(shard_start);
        reports[s].events = ckpt.events;
        reports[s].ops = ckpt.ops;
        if (progress) {
          progress->advance(ranges[s].size(), ckpt.events, ckpt.max_simulated_us);
        }
        return;
      }

      core::LogSink* sink = nullptr;
      if (spill) {
        sinks[s] = std::make_unique<core::SpillSink>(
            config_.spill.spool_dir, shard_stem(s), config_.spill.buffer_records);
        sink = sinks[s].get();
      }
      std::uint64_t events = 0;
      std::uint64_t ops = 0;
      for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        run_user(*sim, u, outcomes[u], collect ? &samples[u] : nullptr,
                 trace_on ? &op_rings[s] : nullptr, sink, &sketches[s]);
        events += outcomes[u].events;
        ops += outcomes[u].ops;
        if (progress) progress->advance(1, outcomes[u].events, outcomes[u].simulated_us);
      }
      if (sink != nullptr) sinks[s]->close();
      if (merge_in_memory) {
        // Pre-merge this shard's users on the pool thread: shards own
        // disjoint ascending user ranges, so the fold below only has to
        // merge the shard logs to get the exact all-user merge.
        std::vector<core::UsageLog> user_logs;
        user_logs.reserve(ranges[s].size());
        for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
          user_logs.push_back(std::move(outcomes[u].log));
        }
        shard_logs[s] = merge_user_logs(std::move(user_logs));
      }
      if (config_.spill.checkpoint) {
        // Reached only when every user in the shard completed (cancellation
        // returns early above), so the checkpoint always describes a whole
        // shard.  Written atomically; a crash between shards leaves the
        // finished ones resumable and the in-flight one absent.
        ShardCheckpoint ckpt;
        ckpt.shard = s;
        ckpt.begin = ranges[s].begin;
        ckpt.end = ranges[s].end;
        ckpt.events = events;
        ckpt.ops = ops;
        for (std::size_t u = ranges[s].begin; u < ranges[s].end; ++u) {
          ckpt.sessions += outcomes[u].sessions;
          ckpt.rng_draws += outcomes[u].rng_draws;
          ckpt.heap_high_water = std::max(ckpt.heap_high_water, outcomes[u].heap_high_water);
          ckpt.max_simulated_us = std::max(ckpt.max_simulated_us, outcomes[u].simulated_us);
        }
        ckpt.runs = sinks[s]->runs();
        write_checkpoint(checkpoint_path(config_.spill.spool_dir, s), ckpt, fp);
        wrote_ckpt[s] = 1;
      }
      reports[s].wall_ms = elapsed_ms(shard_start);
      reports[s].events = events;
      reports[s].ops = ops;
    };
  }, pool_ptr);

  // Deterministic fold: ascending global user order, independent of which
  // shard or thread produced each slot.  Resumed shards contributed their
  // per-user statistics through the reconstruction above; their integer
  // shard totals fold afterwards (sums/maxima — grouping-invariant).
  RunnerResult result;
  result.stats = RunnerStats(config_.histogram);
  for (std::size_t u = 0; u < num_users; ++u) {
    UserOutcome& out = outcomes[u];
    result.stats.merge(out.stats);
    result.total_ops += out.ops;
    result.sessions_completed += out.sessions;
    if (out.simulated_us > result.max_simulated_us) result.max_simulated_us = out.simulated_us;
  }
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    if (!resumed[s].has_value()) continue;
    const ShardCheckpoint& ckpt = *resumed[s];
    result.total_ops += ckpt.ops;
    result.sessions_completed += ckpt.sessions;
    if (ckpt.max_simulated_us > result.max_simulated_us) {
      result.max_simulated_us = ckpt.max_simulated_us;
    }
    result.shards_resumed += 1;
  }
  if (merge_in_memory) result.log = merge_user_logs(std::move(shard_logs));
  if (spill) {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      const auto& shard_runs = resumed[s].has_value() ? resumed[s]->runs : sinks[s]->runs();
      result.spilled_runs.insert(result.spilled_runs.end(), shard_runs.begin(),
                                 shard_runs.end());
    }
  }
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    result.response_sketch.merge(sketches[s]);
    result.checkpoints_written += wrote_ckpt[s];
  }
  result.shards = std::move(reports);

  if (progress) progress->stop();
  if (collect) {
    obs::SimSample merged;
    for (std::size_t u = 0; u < num_users; ++u) merged.merge(samples[u]);
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      if (!resumed[s].has_value()) continue;
      const ShardCheckpoint& ckpt = *resumed[s];
      merged.sim_events += ckpt.events;
      merged.rng_draws += ckpt.rng_draws;
      merged.sessions += ckpt.sessions;
      merged.heap_high_water = std::max(merged.heap_high_water, ckpt.heap_high_water);
    }
    merged.export_into(result.registry);
    if (spill) {
      std::uint64_t records = 0;
      std::uint64_t bytes = 0;
      for (const auto& run : result.spilled_runs) {
        records += run.records;
        bytes += run.bytes;
      }
      // Record count equals the merged log length — shard/thread invariant.
      // Run/byte/fan-in shapes depend on the shard cut, so they live with
      // the unstable (timing-ish) metrics.
      result.registry.add_counter("spill.records", records);
      result.registry.add_counter("spill.runs_written", result.spilled_runs.size(),
                                  /*stable=*/false);
      result.registry.add_counter("spill.bytes", bytes, /*stable=*/false);
      result.registry.add_gauge_max("spill.merge_fan_in", result.spilled_runs.size(),
                                    /*stable=*/false);
    }
    if (config_.spill.checkpoint) {
      result.registry.add_counter("checkpoint.written", result.checkpoints_written,
                                  /*stable=*/false);
      result.registry.add_counter("checkpoint.resumed", result.shards_resumed,
                                  /*stable=*/false);
    }
    if (config_.traffic.any()) {
      // Pure functions of the config — shard/thread invariant, so stable.
      std::uint64_t total_arrivals = 0;
      if (arrivals_) {
        for (const auto& user_arrivals : *arrivals_) total_arrivals += user_arrivals.size();
      }
      result.registry.add_counter("traffic.arrivals", total_arrivals);
      result.registry.add_counter("traffic.slowdown_windows",
                                  config_.traffic.faults.slowdowns.size());
      result.registry.add_counter("traffic.flush_events",
                                  config_.traffic.faults.flush_times_us.size());
      result.registry.add_counter("traffic.churn_windows",
                                  config_.traffic.faults.churns.size());
    }
  }
  if (pool_ptr != nullptr && collect) obs::export_pool(pool_obs, result.registry);
  if (trace_on) {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      result.trace.ops.append(op_rings[s]);
      result.trace.stages.append(stage_rings[s]);
    }
    result.trace.pool = obs::TraceRing(pool_obs.spans.size());
    obs::pool_spans_into(pool_obs, result.trace.pool);
  }
  result.pool = std::move(pool_obs);

  result.wall_ms = elapsed_ms(run_start);
  return result;
}

std::unique_ptr<core::LogReader> RunnerResult::open_log_reader() const {
  if (!spilled_runs.empty()) return core::open_spilled_log(spilled_runs);
  return std::make_unique<core::MemoryLogReader>(log);
}

}  // namespace wlgen::runner
