#include "scenario/run.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "core/log_sink.h"
#include "core/presets.h"
#include "core/replay.h"
#include "core/spec.h"
#include "obs/progress.h"
#include "runner/checkpoint.h"
#include "runner/contended_runner.h"
#include "runner/pool.h"
#include "runner/sharded_runner.h"
#include "runner/universe.h"
#include "util/strings.h"
#include "util/svg.h"
#include "util/table.h"

namespace wlgen::scenario {

namespace {

runner::RunnerStats stats_of_log(const core::UsageLog& log) {
  runner::RunnerStats stats;
  for (const auto& record : log.records()) stats.add(record);
  return stats;
}

/// Effective obs switches of one invocation: the spec's [obs] keys with the
/// CLI overrides applied on top.
obs::ObsConfig resolve_obs(const ScenarioSpec& spec, const RunOptions& options) {
  obs::ObsConfig obs;
  obs.metrics_file = options.metrics_file.empty() ? spec.obs_metrics : options.metrics_file;
  obs.trace_file = options.trace_file.empty() ? spec.obs_trace : options.trace_file;
  obs.trace_events = options.trace_events.value_or(spec.obs_trace_events);
  obs.progress = options.progress.value_or(spec.obs_progress);
  obs.label = spec.name;
  return obs;
}

/// One serial shared-machine USIM run — the classic single-Simulation path,
/// used by replay mode both to record the trace and to generate the
/// synthetic comparison leg.  `sample`, when non-null, receives the run's
/// sim/RNG observability counters (op tallies are the caller's job — it
/// owns the returned log).
core::UsageLog generate_shared(const ScenarioSpec& spec, const ModelChoice& model,
                               std::size_t users, std::uint64_t& sessions_out,
                               obs::SimSample* sample = nullptr) {
  sim::Simulation simulation;
  core::UsimConfig config = spec.usim_config();
  config.num_users = users;
  config.seed = spec.seed;
  runner::Universe universe(simulation, model.factory(), core::di86_file_profiles(), {},
                            spec.population(), std::move(config), {});
  core::UserSimulator& usim = universe.usim();
  usim.run();
  sessions_out = usim.sessions_completed();
  if (sample != nullptr) {
    sample->sim_events = simulation.events_processed();
    sample->heap_high_water = simulation.arena_high_water();
    sample->rng_draws = usim.rng_draws();
    sample->sessions = sessions_out;
  }
  return usim.take_log();
}

/// Scenario-level identity folded into checkpoint fingerprints: everything
/// that shapes the record streams but is invisible to RunnerConfig's own
/// fingerprint fields (model + overrides, population shape, behaviour
/// switches, the GDS file's path and contents).  Single line — the
/// checkpoint format is line-based.
/// A distribution override as it parses, not as it was typed ("" = none).
std::string parsed_identity(const std::string& expression) {
  if (expression.empty()) return "";
  return core::exact_distribution_text(*core::parse_distribution(expression));
}

std::string spill_config_tag(const ScenarioSpec& spec, const ModelChoice& model) {
  std::ostringstream tag;
  tag << "model=" << model.name;
  for (const auto& o : model.overrides) tag << "," << o.key << "=" << util::exact_double(o.value);
  tag << " heavy=" << util::exact_double(spec.heavy_fraction)
      << " pattern=" << static_cast<int>(spec.pattern) << " markov=" << util::exact_double(spec.markov)
      << " think=" << parsed_identity(spec.think_time)
      << " access=" << parsed_identity(spec.access_size)
      << " gds=" << runner::file_identity(spec.gds_file);
  // Traffic identity (arrivals + faults): appended only when configured so
  // pre-traffic checkpoints keep validating.
  if (spec.traffic.any()) tag << " " << spec.traffic.tag();
  return tag.str();
}

ModelOutcome run_sharded(const ScenarioSpec& spec, const ModelChoice& model,
                         std::size_t threads, const obs::ObsConfig& obs) {
  runner::RunnerConfig config;
  config.num_users = spec.user_points.front();
  config.shards = spec.shards;
  config.threads = threads;
  config.seed = spec.seed;
  config.usim = spec.usim_config();
  config.population = spec.population();
  config.collect_log = spec.collect_log;
  config.model_factory = model.factory();
  config.obs = obs;
  config.traffic = spec.traffic;
  if (spec.log_spill) {
    config.spill.enabled = true;
    // Multi-model scenarios get one spool subdirectory per backend so their
    // run/checkpoint files never collide.
    config.spill.spool_dir = spec.models.size() > 1
                                 ? spec.log_spool_dir + "/" + model.name
                                 : spec.log_spool_dir;
    config.spill.checkpoint = spec.log_checkpoint;
    config.spill.resume = spec.resume;
    config.spill.config_tag = spill_config_tag(spec, model);
  }

  runner::ShardedRunner run(std::move(config));
  runner::RunnerResult result = run.run();

  ModelOutcome outcome;
  outcome.model = model.name;
  PointOutcome point;
  point.users = spec.user_points.front();
  point.stats = result.stats;
  point.response_per_byte = {result.stats.response_per_byte_us(), 0.0, 1};
  point.ops = result.total_ops;
  point.sessions = result.sessions_completed;
  outcome.points.push_back(std::move(point));
  outcome.log = std::move(result.log);
  outcome.spilled_runs = std::move(result.spilled_runs);
  outcome.response_sketch = result.response_sketch;
  outcome.registry = std::move(result.registry);
  outcome.trace = std::move(result.trace);
  return outcome;
}

ModelOutcome run_contended(const ScenarioSpec& spec, const ModelChoice& model,
                           std::size_t threads, const obs::ObsConfig& obs) {
  runner::ContendedConfig config;
  config.user_points = spec.user_points;
  config.replications = spec.replications;
  config.threads = threads;
  config.seed = spec.seed;
  config.confidence = spec.confidence;
  config.usim = spec.usim_config();
  config.population = spec.population();
  config.model_factory = model.factory();
  config.obs = obs;
  config.traffic = spec.traffic;

  runner::ContendedRunner run(std::move(config));
  runner::ContendedResult result = run.run();

  ModelOutcome outcome;
  outcome.model = model.name;
  for (const auto& p : result.points) {
    PointOutcome point;
    point.users = p.users;
    point.stats = p.stats;
    point.response_per_byte = p.response_per_byte;
    point.ops = p.total_ops;
    point.sessions = p.sessions_completed;
    outcome.points.push_back(std::move(point));
  }
  outcome.registry = std::move(result.registry);
  outcome.trace = std::move(result.trace);
  return outcome;
}

ModelOutcome run_replay(const ScenarioSpec& spec, const ModelChoice& model,
                        const core::UsageLog& trace, std::size_t trace_users,
                        std::uint64_t trace_sessions, const obs::ObsConfig& obs) {
  ModelOutcome outcome;
  outcome.model = model.name;

  const bool collect = obs.collect();
  const bool trace_on = obs.trace();
  if (trace_on) {
    const std::size_t share = obs::ring_share(obs.trace_events / 2, 1);
    outcome.trace.ops = obs::TraceRing(share);
    outcome.trace.stages = obs::TraceRing(share);
  }
  // Replay is serial: the model-stage ring can stay installed for both legs.
  obs::ScopedStageTrace stage_trace(trace_on ? &outcome.trace.stages : nullptr);

  sim::Simulation simulation;
  auto fsmodel = model.factory()(simulation);
  core::TraceReplayer replayer(simulation, *fsmodel, trace);
  core::TraceReplayer::Options options;
  options.preserve_timing = !spec.closed_loop;
  options.time_scale = spec.time_scale;
  core::UsageLog replayed = replayer.run(options);

  obs::SimSample merged;
  if (collect) {
    obs::SimSample sample;
    sample.sim_events = simulation.events_processed();
    sample.heap_high_water = simulation.arena_high_water();
    sample.sessions = trace_sessions;
    for (const auto& record : replayed.records()) {
      sample.ops.add(record);
      if (trace_on) obs::record_op(outcome.trace.ops, record);
    }
    merged.merge(sample);
  }

  PointOutcome replay_point;
  replay_point.label = spec.closed_loop ? "trace replay (closed loop)"
                                        : "trace replay (open loop)";
  replay_point.users = trace_users;
  replay_point.stats = stats_of_log(replayed);
  replay_point.response_per_byte = {replay_point.stats.response_per_byte_us(), 0.0, 1};
  replay_point.ops = replayer.ops_replayed();
  replay_point.sessions = trace_sessions;
  outcome.points.push_back(std::move(replay_point));
  outcome.log = std::move(replayed);

  if (spec.synthetic_users > 0) {
    // The paper's section 2.1 contrast: the generator can answer the
    // "what about N users?" question the trace cannot.
    std::uint64_t sessions = 0;
    obs::SimSample synthetic_sample;
    const core::UsageLog synthetic = generate_shared(
        spec, model, spec.synthetic_users, sessions, collect ? &synthetic_sample : nullptr);
    if (collect) {
      for (const auto& record : synthetic.records()) {
        synthetic_sample.ops.add(record);
        if (trace_on) obs::record_op(outcome.trace.ops, record);
      }
      merged.merge(synthetic_sample);
    }
    PointOutcome point;
    point.label = "synthetic";
    point.users = spec.synthetic_users;
    point.stats = stats_of_log(synthetic);
    point.response_per_byte = {point.stats.response_per_byte_us(), 0.0, 1};
    point.ops = synthetic.size();
    point.sessions = sessions;
    outcome.points.push_back(std::move(point));
  }
  if (collect) merged.export_into(outcome.registry);
  return outcome;
}

void append_digest(std::ostringstream& out, const ModelOutcome& model) {
  out << "model " << model.model << "\n";
  for (const auto& p : model.points) {
    out << "point users=" << p.users;
    if (!p.label.empty()) out << " label=\"" << p.label << "\"";
    out << " ops=" << p.ops << " sessions=" << p.sessions << " bytes="
        << p.stats.bytes_moved() << "\n";
    const auto& r = p.stats.response_us();
    out << "  response_us count=" << r.count() << " mean=" << util::exact_double(r.mean())
        << " stddev=" << util::exact_double(r.stddev()) << " min=" << util::exact_double(r.min())
        << " max=" << util::exact_double(r.max()) << "\n";
    const auto& a = p.stats.access_size();
    out << "  access_size count=" << a.count() << " mean=" << util::exact_double(a.mean())
        << " stddev=" << util::exact_double(a.stddev()) << "\n";
    out << "  response_per_byte pooled=" << util::exact_double(p.stats.response_per_byte_us())
        << " mean=" << util::exact_double(p.response_per_byte.mean)
        << " ci_half=" << util::exact_double(p.response_per_byte.half_width) << "\n";
  }
  // Sharded runs also pin the bounded-memory sketch: integer bucket counts,
  // so the quantiles are exact and identical for every shard/thread count
  // and for spill on vs off.
  if (model.response_sketch.count() > 0) {
    const auto& sketch = model.response_sketch;
    out << "  response_sketch count=" << sketch.count()
        << " p50=" << util::exact_double(sketch.quantile(0.50)) << " p90=" << util::exact_double(sketch.quantile(0.90))
        << " p99=" << util::exact_double(sketch.quantile(0.99)) << "\n";
  }
}

std::string render_report(const ScenarioSpec& spec, const std::vector<ModelOutcome>& models) {
  std::ostringstream out;
  out << "scenario: " << spec.name << "  (mode: " << to_string(spec.mode) << ", seed: "
      << spec.seed << ")\n";
  if (!spec.description.empty()) out << spec.description << "\n";
  out << "\n";

  // Label the interval with the level the scenario configured (0.90/0.95/0.99).
  const std::string ci_header =
      "mean +/- ci" + std::to_string(static_cast<int>(spec.confidence * 100.0 + 0.5));
  for (const auto& model : models) {
    out << "--- model: " << model.model << " ---\n";
    util::TextTable table({"point", "users", "us/byte", ci_header,
                           "response us mean(std)", "syscalls", "sessions"});
    for (const auto& p : model.points) {
      table.add_row({p.label.empty() ? "-" : p.label, std::to_string(p.users),
                     util::TextTable::num(p.stats.response_per_byte_us(), 4),
                     util::TextTable::num(p.response_per_byte.mean, 4) + " +/- " +
                         util::TextTable::num(p.response_per_byte.half_width, 4),
                     p.stats.response_us().mean_std_string(), std::to_string(p.ops),
                     std::to_string(p.sessions)});
    }
    out << table.render() << "\n";
  }

  if (models.size() > 1) {
    // Cross-backend comparison over the last (largest) point — the paper's
    // section 5.3 "compare" step.
    util::TextTable compare({"model", "us/byte", "mean resp us", "syscalls"});
    for (const auto& model : models) {
      const auto& p = model.points.back();
      compare.add_row({model.model, util::TextTable::num(p.stats.response_per_byte_us(), 4),
                       util::TextTable::num(p.stats.response_us().mean(), 0),
                       std::to_string(p.ops)});
    }
    out << "--- comparison (final point) ---\n" << compare.render();
  }
  return out.str();
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  const auto start = std::chrono::steady_clock::now();  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
  const std::size_t threads = options.threads.value_or(spec.threads);

  ScenarioOutcome outcome;

  // Per-model obs slices: each backend gets a labelled copy with an equal
  // share of the trace-ring budget (the shares sum to the run budget, so
  // merging never evicts).
  const obs::ObsConfig effective_obs = resolve_obs(spec, options);
  std::vector<obs::ObsConfig> model_obs(spec.models.size(), effective_obs);
  for (std::size_t m = 0; m < spec.models.size(); ++m) {
    model_obs[m].label = spec.name + "/" + spec.models[m].name;
    model_obs[m].trace_events =
        obs::ring_share(effective_obs.trace_events, spec.models.size());
  }

  // Replay mode shares one trace across every backend: record it on the
  // first model (or load it) so the comparison replays identical input.
  core::UsageLog trace;
  std::size_t trace_users = 0;
  std::uint64_t trace_sessions = 0;
  if (spec.mode == RunMode::replay) {
    if (spec.trace_file.empty()) {
      trace_users = spec.user_points.front();
      trace = generate_shared(spec, spec.models.front(), trace_users, trace_sessions);
    } else {
      trace = core::UsageLog::parse(util::read_text_file(spec.trace_file));
      // Recover the recorded population/session shape from the trace itself.
      std::set<std::pair<std::uint32_t, std::uint32_t>> sessions;
      for (const auto& record : trace.records()) {
        trace_users = std::max<std::size_t>(trace_users, record.user + 1);
        sessions.insert({record.user, record.session});
      }
      trace_sessions = sessions.size();
    }
  }

  // Independent backends fan out over the worker pool.  Each job writes its
  // ModelOutcome to a per-index slot and the digest is folded in spec order
  // below, so the digest is bit-identical for any --threads: every backend's
  // own result is already thread-invariant (the runners' merge contracts),
  // and the fold order never depends on completion order.  The thread budget
  // splits across the two levels — `outer` backends in flight, each running
  // its internal runner pool with an equal share of the remainder — so a
  // multi-model scenario never oversubscribes the requested thread count.
  outcome.models.resize(spec.models.size());
  const std::size_t total_threads =
      runner::resolve_pool_threads(threads, std::numeric_limits<std::size_t>::max());
  const std::size_t outer = std::min(total_threads, spec.models.size());
  const std::size_t inner = std::max<std::size_t>(1, total_threads / std::max<std::size_t>(1, outer));
  runner::drain_pool(spec.models.size(), outer, [&]() -> runner::PoolJob {
    return [&](std::size_t index, const std::atomic<bool>& /*cancelled*/) {
      const ModelChoice& model = spec.models[index];
      switch (spec.mode) {
        case RunMode::sharded:
          outcome.models[index] = run_sharded(spec, model, inner, model_obs[index]);
          break;
        case RunMode::contended:
          outcome.models[index] = run_contended(spec, model, inner, model_obs[index]);
          break;
        case RunMode::replay:
          outcome.models[index] = run_replay(spec, model, trace, trace_users,
                                             trace_sessions, model_obs[index]);
          break;
      }
    };
  });

  std::ostringstream digest;
  digest << "scenario " << spec.name << " mode=" << to_string(spec.mode) << " seed="
         << spec.seed << "\n";
  for (const auto& model : outcome.models) append_digest(digest, model);
  outcome.stats_digest = digest.str();
  outcome.report = render_report(spec, outcome.models);

  if (!spec.log_file.empty()) {
    // Stream through a reader so a spilled run writes the identical text
    // without ever materializing the merged log in RAM.
    const ModelOutcome& first = outcome.models.front();
    const auto reader = first.spilled_runs.empty()
                            ? std::make_unique<core::MemoryLogReader>(first.log)
                            : core::open_spilled_log(first.spilled_runs);
    core::write_log_file(*reader, spec.log_file);
  }
  if (!spec.stats_file.empty()) {
    util::write_text_file(spec.stats_file, outcome.stats_digest);
  }

  outcome.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)  // wlgen-lint: allow(wall-clock): reported wall_ms only; never enters the sim
                        .count();

  // Observability artifacts, assembled in spec model order so the documents
  // — like the digest — never depend on completion order.
  if (effective_obs.collect()) {
    std::ostringstream obs_text;
    for (const auto& model : outcome.models) {
      obs_text << "model " << model.model << "\n" << model.registry.stable_text();
    }
    outcome.obs_text = obs_text.str();
  }
  if (effective_obs.metrics()) {
    util::JsonValue doc = obs::metrics_document(spec.name, outcome.wall_ms);
    for (const auto& model : outcome.models) {
      obs::add_metrics_group(doc, model.model, model.registry);
    }
    outcome.metrics_json = doc.dump();
    util::write_text_file(effective_obs.metrics_file, outcome.metrics_json);
  }
  if (effective_obs.trace()) {
    std::vector<obs::TraceGroup> groups;
    for (const auto& model : outcome.models) {
      for (auto& group : obs::run_trace_groups(model.model, model.trace)) {
        groups.push_back(std::move(group));
      }
    }
    outcome.trace_json = obs::chrome_trace_json(groups);
    util::write_text_file(effective_obs.trace_file, outcome.trace_json);
  }
  return outcome;
}

}  // namespace wlgen::scenario
