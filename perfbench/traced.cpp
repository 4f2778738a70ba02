// The traced run: re-executes a workload single-threaded through the same
// public calls the runners make, timing the calls into each layer from this
// file, then replays a fixed subset of the captured stream through single
// layers in isolation (namespace ops, stage chains, distribution draws).
//
// Coarse calls (model factory, FSC, USIM, merge, analysis) are kept as spans
// and written out at the end.  Per-syscall boundaries (model plan, record
// fold, sink append) cost a clock pair each, so they are summed into
// per-universe counters instead of being kept as spans.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "bench.h"
#include "core/analysis.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fsmodel/model.h"
#include "runner/contended_runner.h"
#include "runner/merge.h"
#include "runner/partition.h"
#include "runner/stats.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stages.h"
#include "stats/sketch.h"
#include "stats/summary.h"

namespace perfbench {

namespace {

namespace core = wlgen::core;
namespace sc = wlgen::scenario;
namespace sim = wlgen::sim;
namespace fsmodel = wlgen::fsmodel;
namespace runner = wlgen::runner;

/// Captured syscalls kept for the isolated replays, over all sampled universes.
constexpr std::size_t kCaptureBudget = 262144;
/// Universes sampled for the replays (every universes/kSampledUniverses-th).
constexpr std::size_t kSampledUniverses = 32;
/// Uniform draws the distribution replay consumes.
constexpr std::uint64_t kDistDraws = 4000000;

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  long universe = -1;
};

class SpanLog {
 public:
  int open(std::string name, int parent, long universe = -1) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, universe});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::uint64_t close(int id) {
    spans_[id].end_ns = now_ns();
    return spans_[id].end_ns - spans_[id].start_ns;
  }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[320];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"universe\":%ld}}%s\n",
                    s.name.c_str(), (s.start_ns - origin) / 1e3,
                    (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.universe,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Per-syscall boundary sums (raw clock deltas, clock cost included).
struct Boundaries {
  std::uint64_t plan_ns = 0, plans = 0, plan_allocs = 0, stages = 0;
  std::uint64_t fold_ns = 0, folds = 0;
  std::uint64_t append_ns = 0, appends = 0, close_ns = 0;
};

/// One sampled universe's syscall stream, captured for the replays.
struct Captured {
  Universe universe;
  std::vector<std::pair<std::string, std::size_t>> resources;  ///< name, capacity
  std::unordered_map<const sim::Resource*, std::uint32_t> resource_index;
  struct Stage {
    std::uint32_t resource = 0;  ///< index into resources; unused for delays
    bool use = false;
    double duration = 0.0;
  };
  std::vector<double> issue_times;
  std::vector<std::uint32_t> chain_begin;  ///< into stages; one per chain
  std::vector<Stage> stages;
  std::vector<core::OpRecord> records;
  std::size_t cap = 0;
};

struct CaptureFull {};

/// Bench-owned model decorator: times `plan` (and counts its allocations)
/// in the traced pass, or records the planned chains in the capture pass.
class TracedModel final : public fsmodel::FileSystemModel {
 public:
  TracedModel(std::unique_ptr<fsmodel::FileSystemModel> inner, sim::Simulation& sim,
              Boundaries* bounds, Captured* capture)
      : inner_(std::move(inner)), sim_(sim), bounds_(bounds), capture_(capture) {}

  void flush_caches() override { inner_->flush_caches(); }
  std::string name() const override { return inner_->name(); }
  std::string stats_summary() const override { return inner_->stats_summary(); }
  void reset_stats() override { inner_->reset_stats(); }

 protected:
  sim::StageChain plan_op(const fsmodel::FsOp& op) override {
    if (capture_ != nullptr) {
      sim::StageChain chain = inner_->plan(op);
      record(chain);
      return chain;
    }
    const std::uint64_t a0 = alloc_count();
    const std::uint64_t t0 = now_ns();
    sim::StageChain chain = inner_->plan(op);
    bounds_->plan_ns += now_ns() - t0;
    bounds_->plan_allocs += alloc_count() - a0;
    ++bounds_->plans;
    bounds_->stages += chain.size();
    return chain;
  }

 private:
  void record(const sim::StageChain& chain) {
    Captured& c = *capture_;
    if (c.issue_times.size() >= c.cap) return;
    c.issue_times.push_back(sim_.now());
    c.chain_begin.push_back(static_cast<std::uint32_t>(c.stages.size()));
    for (const sim::Stage& stage : chain) {
      Captured::Stage s;
      s.duration = stage.duration;
      s.use = stage.kind == sim::Stage::Kind::use;
      if (s.use) {
        auto [it, added] = c.resource_index.try_emplace(
            stage.resource, static_cast<std::uint32_t>(c.resources.size()));
        if (added) c.resources.emplace_back(stage.resource->name(), stage.resource->capacity());
        s.resource = it->second;
      }
      c.stages.push_back(s);
    }
  }

  std::unique_ptr<fsmodel::FileSystemModel> inner_;
  sim::Simulation& sim_;
  Boundaries* bounds_;
  Captured* capture_;
};

/// Bench-owned sink wrapper: times every append (and the final close).
class TimedSink final : public core::LogSink {
 public:
  TimedSink(core::LogSink& inner, Boundaries& bounds) : inner_(inner), bounds_(bounds) {}
  void append(const core::OpRecord& record) override {
    const std::uint64_t t0 = now_ns();
    inner_.append(record);
    bounds_.append_ns += now_ns() - t0;
    ++bounds_.appends;
  }
  void close() override {
    const std::uint64_t t0 = now_ns();
    inner_.close();
    bounds_.close_ns += now_ns() - t0;
  }

 private:
  core::LogSink& inner_;
  Boundaries& bounds_;
};

/// Reads a stream to its end without analysing it (the read-cost pass).
std::uint64_t drain(core::LogReader& reader) {
  core::OpRecord record;
  std::uint64_t n = 0;
  while (reader.next(record)) ++n;
  return n;
}

/// Cost of one steady_clock read, for taking the tracing clock out of the
/// per-syscall boundary sums.
double calibrate_clock_ns() {
  constexpr int kReads = 1000000;
  const std::uint64_t t0 = now_ns();
  std::uint64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = now_ns();
  return static_cast<double>(last - t0) / kReads;
}

class Tracer {
 public:
  explicit Tracer(const sc::ScenarioSpec& spec)
      : spec_(spec),
        sharded_(spec.mode == sc::RunMode::sharded),
        factory_(spec.models.front().factory()),
        profiles_(core::di86_file_profiles()),
        population_(spec.population()),
        base_usim_(spec.usim_config()),
        universes_(universes_of(spec)) {}

  TracedResult run(const RepResult& untraced, const std::string& span_file);

 private:
  core::UsimConfig usim_config(const Universe& u) const {
    core::UsimConfig config = base_usim_;
    config.num_users = u.users;
    config.first_user = u.first_user;
    config.population_users = sharded_ ? spec_.user_points.front() : u.users;
    config.seed = u.seed;
    config.collect_log = false;
    return config;
  }

  void traced_pass();
  void merge_and_analyze();
  void capture_pass();
  double fs_replay(std::uint64_t* ops);
  double sim_replay(std::uint64_t* chains, std::uint64_t* allocs);
  double dist_replay(std::uint64_t* draws);

  const sc::ScenarioSpec& spec_;
  const bool sharded_;
  runner::ModelFactory factory_;
  std::vector<core::FileCategoryProfile> profiles_;
  core::Population population_;
  core::UsimConfig base_usim_;
  const std::vector<Universe> universes_;

  SpanLog spans_;
  int root_ = -1;
  Boundaries bounds_;
  sim::Simulation sim_;

  // Traced-pass totals.
  std::uint64_t factory_ns_ = 0, fsc_ns_ = 0, fsc_allocs_ = 0, files_ = 0;
  std::uint64_t usim_ns_ = 0, usim_allocs_ = 0;
  std::uint64_t syscalls_ = 0, sessions_ = 0, events_ = 0, draws_ = 0;
  std::vector<runner::RunnerStats> stats_;  ///< one per universe
  std::vector<std::uint64_t> ops_, session_counts_;
  wlgen::stats::QuantileSketch sketch_;
  std::vector<core::UsageLog> user_logs_;
  std::vector<std::unique_ptr<core::SpillSink>> spill_sinks_;
  std::vector<core::SpillRun> runs_;
  core::UsageLog merged_;
  double merge_s_ = 0.0;
  std::uint64_t analysis_ns_ = 0, records_read_ = 0;
  double spill_mb_ = 0.0;
  std::vector<PointAggregate> points_;

  std::vector<Captured> captured_;
};

void Tracer::traced_pass() {
  const int phase = spans_.open("universes", root_);
  const bool spill = sharded_ && spec_.log_spill;
  const bool memory_log = keeps_log(spec_) && !spill;
  std::vector<runner::UserRange> shards;
  if (spill) {
    shards = runner::partition_users(universes_.size(), spec_.shards);
    spill_sinks_.resize(shards.size());
  }
  std::size_t shard = 0;
  for (std::size_t i = 0; i < universes_.size(); ++i) {
    const Universe& u = universes_[i];
    const int span = spans_.open("universe", phase, static_cast<long>(i));
    sim_.reset();

    core::LogSink* inner_sink = nullptr;
    core::MemorySink memory_sink;
    if (spill) {
      while (i >= shards[shard].end) ++shard;
      if (!spill_sinks_[shard]) {
        char stem[24];
        std::snprintf(stem, sizeof stem, "shard%06zu", shard);
        spill_sinks_[shard] = std::make_unique<core::SpillSink>(spec_.log_spool_dir, stem);
      }
      inner_sink = spill_sinks_[shard].get();
    } else if (memory_log) {
      inner_sink = &memory_sink;
    }
    std::optional<TimedSink> sink;
    if (inner_sink != nullptr) sink.emplace(*inner_sink, bounds_);

    wlgen::fs::SimulatedFileSystem fsys;
    fsys.set_clock([this] { return sim_.now(); });
    int s = spans_.open("model_factory", span, static_cast<long>(i));
    TracedModel model(factory_(sim_), sim_, &bounds_, nullptr);
    factory_ns_ += spans_.close(s);

    s = spans_.open("fsc.create", span, static_cast<long>(i));
    set_alloc_counting(true);
    const std::uint64_t fa0 = alloc_count();
    core::FileSystemCreator fsc(fsys, profiles_, fsc_config(u));
    const core::CreatedFileSystem manifest = fsc.create();
    fsc_allocs_ += alloc_count() - fa0;
    set_alloc_counting(false);
    fsc_ns_ += spans_.close(s);
    files_ += manifest.file_count();

    runner::RunnerStats& stats = stats_.emplace_back();
    core::UsimConfig config = usim_config(u);
    config.sink = sink ? &*sink : nullptr;
    Boundaries& b = bounds_;
    if (sharded_) {
      config.on_record = [&stats, &b, this](const core::OpRecord& r) {
        const std::uint64_t t0 = now_ns();
        stats.add(r);
        sketch_.add(r.response_us);
        b.fold_ns += now_ns() - t0;
        ++b.folds;
      };
    } else {
      config.on_record = [&stats, &b](const core::OpRecord& r) {
        const std::uint64_t t0 = now_ns();
        stats.add(r);
        b.fold_ns += now_ns() - t0;
        ++b.folds;
      };
    }

    s = spans_.open("usim.run", span, static_cast<long>(i));
    set_alloc_counting(true);
    const std::uint64_t ua0 = alloc_count();
    core::UserSimulator usim(sim_, fsys, model, manifest, population_, std::move(config));
    usim.run();
    usim_allocs_ += alloc_count() - ua0;
    set_alloc_counting(false);
    usim_ns_ += spans_.close(s);

    syscalls_ += usim.total_ops();
    sessions_ += usim.sessions_completed();
    events_ += sim_.events_processed();
    draws_ += usim.rng_draws();
    ops_.push_back(usim.total_ops());
    session_counts_.push_back(usim.sessions_completed());
    if (memory_log) user_logs_.push_back(memory_sink.take_log());
    if (spill && i + 1 == shards[shard].end) {
      sink->close();
    }
    spans_.close(span);
  }
  spans_.close(phase);
}

void Tracer::merge_and_analyze() {
  // The runners' merge phase: the fixed-order aggregate fold, plus the log
  // merge when a log is kept.
  const int merge_span = spans_.open("runner.merge", root_);
  if (sharded_) {
    runner::RunnerStats total;
    std::uint64_t ops = 0;
    std::uint64_t sessions = 0;
    for (std::size_t i = 0; i < stats_.size(); ++i) {
      total.merge(stats_[i]);
      ops += ops_[i];
      sessions += session_counts_[i];
    }
    if (!user_logs_.empty()) merged_ = runner::merge_user_logs(std::move(user_logs_));
    for (const auto& sink : spill_sinks_) {
      runs_.insert(runs_.end(), sink->runs().begin(), sink->runs().end());
    }
    points_.push_back({spec_.user_points.front(), ops, sessions, total.response_us().mean(),
                       total.response_per_byte_us(), total.response_per_byte_us()});
  } else {
    const std::size_t reps = spec_.replications;
    for (std::size_t p = 0; p < spec_.user_points.size(); ++p) {
      runner::RunnerStats total;
      std::vector<double> levels;
      std::uint64_t ops = 0;
      std::uint64_t sessions = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const std::size_t j = p * reps + r;
        total.merge(stats_[j]);
        levels.push_back(stats_[j].response_per_byte_us());
        ops += ops_[j];
        sessions += session_counts_[j];
      }
      const auto ci = wlgen::stats::mean_confidence_interval(levels, spec_.confidence);
      points_.push_back({spec_.user_points[p], ops, sessions, total.response_us().mean(),
                         total.response_per_byte_us(), ci.mean});
    }
  }
  merge_s_ = spans_.close(merge_span) / 1e9;
  for (const auto& run : runs_) spill_mb_ += run.bytes / (1024.0 * 1024.0);

  if (!keeps_log(spec_)) return;
  const int analysis_span = spans_.open("analysis", root_);
  std::unique_ptr<core::LogReader> reader;
  if (runs_.empty()) {
    reader = std::make_unique<core::MemoryLogReader>(merged_);
  } else {
    reader = core::open_spilled_log(runs_);
  }
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  render_analysis(*reader, &ops, &sessions);
  analysis_ns_ = spans_.close(analysis_span);
  records_read_ = ops;
  if (ops != syscalls_ || sessions != sessions_) {
    throw std::runtime_error("traced analyzer report disagrees with the traced runner");
  }
}

void Tracer::capture_pass() {
  const std::size_t stride = std::max<std::size_t>(1, universes_.size() / kSampledUniverses);
  std::vector<std::size_t> sampled;
  for (std::size_t i = 0; i < universes_.size(); i += stride) sampled.push_back(i);
  const std::size_t cap = kCaptureBudget / sampled.size();
  for (const std::size_t i : sampled) {
    const Universe& u = universes_[i];
    Captured& c = captured_.emplace_back();
    c.universe = u;
    c.cap = cap;
    // A fresh Simulation per capture: the record hook stops the run by
    // throwing once the budget is full, which leaves its queue abandoned.
    sim::Simulation capture_sim;
    wlgen::fs::SimulatedFileSystem fsys;
    fsys.set_clock([&capture_sim] { return capture_sim.now(); });
    TracedModel model(factory_(capture_sim), capture_sim, nullptr, &c);
    core::FileSystemCreator fsc(fsys, profiles_, fsc_config(u));
    const core::CreatedFileSystem manifest = fsc.create();
    core::UsimConfig config = usim_config(u);
    config.on_record = [&c](const core::OpRecord& r) {
      c.records.push_back(r);
      if (c.records.size() >= c.cap && c.issue_times.size() >= c.cap) throw CaptureFull{};
    };
    core::UserSimulator usim(capture_sim, fsys, model, manifest, population_,
                             std::move(config));
    try {
      usim.run();
    } catch (const CaptureFull&) {
    }
    c.resource_index.clear();
  }
}

double Tracer::fs_replay(std::uint64_t* replayed) {
  using wlgen::fs::SimulatedFileSystem;
  namespace wfs = wlgen::fs;
  std::uint64_t total_ns = 0;
  for (Captured& c : captured_) {
    SimulatedFileSystem fsys;
    core::FileSystemCreator fsc(fsys, profiles_, fsc_config(c.universe));
    const core::CreatedFileSystem manifest = fsc.create();

    // Resolve every record to a path and a descriptor slot before timing, so
    // the timed loop is namespace calls only.
    std::unordered_map<std::uint64_t, std::size_t> path_of;  // inode -> paths index
    std::vector<std::string> paths;
    for (const core::CreatedFile& f : manifest.files()) {
      path_of.emplace(f.inode, paths.size());
      paths.push_back(f.path);
    }
    std::stable_sort(c.records.begin(), c.records.end(),
                     [](const core::OpRecord& a, const core::OpRecord& b) {
                       return a.issue_time_us < b.issue_time_us;
                     });
    struct Op {
      fsmodel::FsOpType type;
      std::size_t path;
      std::size_t slot;
      std::uint64_t bytes;
      unsigned flags;
    };
    std::vector<Op> ops;
    ops.reserve(c.records.size());
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>, std::size_t> slot_of;
    std::size_t slots = 0;
    for (const core::OpRecord& r : c.records) {
      const auto key = std::make_tuple(r.user, r.session, r.file_id);
      Op op{r.op, 0, 0, r.requested_bytes, wfs::kRead};
      if (r.op == fsmodel::FsOpType::creat) {
        if (!path_of.count(r.file_id)) {
          path_of.emplace(r.file_id, paths.size());
          paths.push_back(core::CreatedFileSystem::user_dir(r.user) + "/replay_" +
                          std::to_string(r.file_id));
        }
        op.flags = wfs::kRead | wfs::kWrite | wfs::kCreate | wfs::kTruncate;
      }
      const auto path = path_of.find(r.file_id);
      if (path == path_of.end()) continue;  // file outside the captured prefix
      op.path = path->second;
      if (r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
        slot_of[key] = slots++;
        if (r.op == fsmodel::FsOpType::open && r.category.use == core::UseMode::read_write) {
          op.flags |= wfs::kWrite;
        }
      }
      const auto slot = slot_of.find(key);
      if (slot == slot_of.end() && r.op != fsmodel::FsOpType::stat &&
          r.op != fsmodel::FsOpType::unlink) {
        continue;
      }
      op.slot = slot == slot_of.end() ? 0 : slot->second;
      ops.push_back(op);
    }
    std::vector<wfs::Fd> fds(slots + 1, -1);

    // The namespace calls USIM makes around each syscall kind.
    const std::uint64_t t0 = now_ns();
    for (const Op& op : ops) {
      wfs::Fd& fd = fds[op.slot];
      switch (op.type) {
        case fsmodel::FsOpType::creat: {
          const auto opened = fsys.open(paths[op.path], op.flags);
          fd = opened.ok() ? opened.value() : -1;
          if (fd >= 0) (void)fsys.fstat(fd);
          break;
        }
        case fsmodel::FsOpType::open: {
          (void)fsys.stat(paths[op.path]);
          const auto opened = fsys.open(paths[op.path], op.flags);
          fd = opened.ok() ? opened.value() : -1;
          break;
        }
        case fsmodel::FsOpType::read:
          (void)fsys.fstat(fd);
          (void)fsys.tell(fd);
          (void)fsys.read(fd, op.bytes);
          (void)fsys.tell(fd);
          break;
        case fsmodel::FsOpType::write:
          (void)fsys.fstat(fd);
          (void)fsys.tell(fd);
          (void)fsys.write(fd, op.bytes);
          (void)fsys.tell(fd);
          break;
        case fsmodel::FsOpType::lseek:
          (void)fsys.fstat(fd);
          (void)fsys.tell(fd);
          (void)fsys.lseek(fd, 0, wfs::Seek::set);
          break;
        case fsmodel::FsOpType::close:
          (void)fsys.close(fd);
          fd = -1;
          break;
        case fsmodel::FsOpType::unlink:
          (void)fsys.unlink(paths[op.path]);
          break;
        case fsmodel::FsOpType::stat:
          (void)fsys.stat(paths[op.path]);
          break;
        default:
          break;
      }
    }
    total_ns += now_ns() - t0;
    *replayed += ops.size();
  }
  return static_cast<double>(total_ns);
}

double Tracer::sim_replay(std::uint64_t* chains_run, std::uint64_t* allocs) {
  std::uint64_t total_ns = 0;
  sim::Simulation rs;  // reused across universes, so its arena stays warm
  for (const Captured& c : captured_) {
    if (c.issue_times.empty()) continue;
    rs.reset();
    std::vector<std::unique_ptr<sim::Resource>> resources;
    for (const auto& [name, capacity] : c.resources) {
      resources.push_back(std::make_unique<sim::Resource>(rs, name, capacity));
    }
    std::vector<sim::StageChain> chains(c.issue_times.size());
    for (std::size_t k = 0; k < chains.size(); ++k) {
      const std::size_t end = k + 1 < chains.size() ? c.chain_begin[k + 1] : c.stages.size();
      for (std::size_t s = c.chain_begin[k]; s < end; ++s) {
        const Captured::Stage& stage = c.stages[s];
        chains[k].push_back(stage.use
                                ? sim::Stage::make_use(*resources[stage.resource], stage.duration)
                                : sim::Stage::make_delay(stage.duration));
      }
    }
    // Each chain starts at its recorded issue time; the next issue is
    // scheduled from the previous one, so the event queue stays as short as
    // in the live run.
    std::size_t next = 0;
    struct Issuer {
      sim::Simulation& sim;
      std::vector<sim::StageChain>& chains;
      const std::vector<double>& times;
      std::size_t& next;
      void fire() {
        sim::execute_chain(sim, std::move(chains[next]), [](double) {});
        if (++next < chains.size()) sim.schedule_at(times[next], [this] { fire(); });
      }
    } issuer{rs, chains, c.issue_times, next};
    rs.schedule_at(c.issue_times.front(), [&issuer] { issuer.fire(); });
    set_alloc_counting(true);
    const std::uint64_t a0 = alloc_count();
    const std::uint64_t t0 = now_ns();
    rs.run();
    total_ns += now_ns() - t0;
    *allocs += alloc_count() - a0;
    set_alloc_counting(false);
    *chains_run += chains.size();
  }
  return static_cast<double>(total_ns);
}

double Tracer::dist_replay(std::uint64_t* draws) {
  // The per-syscall draws: every user type's think time and access size,
  // round robin, one draw at a time as USIM's unbatched buffers take them.
  std::vector<const wlgen::dist::Distribution*> dists;
  for (const auto& group : population_.groups) {
    dists.push_back(group.type.think_time_us.get());
    dists.push_back(group.type.access_size_bytes.get());
  }
  wlgen::util::RngStream rng(spec_.seed, "perfbench/dist");
  double value = 0.0;
  std::uint64_t samples = 0;
  const std::uint64_t t0 = now_ns();
  while (rng.uniform_draws() < kDistDraws && samples < 4 * kDistDraws) {
    dists[samples % dists.size()]->sample_n(rng, &value, 1);
    ++samples;
  }
  const std::uint64_t elapsed = now_ns() - t0;
  *draws = rng.uniform_draws();
  return static_cast<double>(elapsed);
}

TracedResult Tracer::run(const RepResult& untraced, const std::string& span_file) {
  const double clock_ns = calibrate_clock_ns();
  spans_.reserve(universes_.size() * 4 + 16);
  stats_.reserve(universes_.size());
  root_ = spans_.open("traced_run", -1);

  const double cpu0 = process_cpu_s();
  traced_pass();
  merge_and_analyze();
  const double traced_cpu = process_cpu_s() - cpu0;

  // Read cost alone: one more pass over the same merged stream, no analysis.
  std::uint64_t read_ns = 0;
  if (records_read_ > 0) {
    const int span = spans_.open("log_sink.read", root_);
    std::unique_ptr<core::LogReader> reader;
    if (runs_.empty()) {
      reader = std::make_unique<core::MemoryLogReader>(merged_);
    } else {
      reader = core::open_spilled_log(runs_);
    }
    if (drain(*reader) != records_read_) throw std::runtime_error("drain pass lost records");
    read_ns = spans_.close(span);
  }
  merged_ = core::UsageLog();

  int span = spans_.open("replay.capture", root_);
  capture_pass();
  spans_.close(span);
  std::uint64_t fs_ops = 0, chains = 0, chain_allocs = 0, dist_draws = 0;
  span = spans_.open("replay.fs", root_);
  const double fs_ns = fs_replay(&fs_ops);
  spans_.close(span);
  span = spans_.open("replay.sim", root_);
  const double sim_ns = sim_replay(&chains, &chain_allocs);
  spans_.close(span);
  span = spans_.open("replay.dist", root_);
  const double dist_ns = dist_replay(&dist_draws);
  spans_.close(span);
  spans_.close(root_);
  spans_.write(span_file);

  const auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
  const double S = static_cast<double>(syscalls_);
  const double U = static_cast<double>(universes_.size());
  const Boundaries& b = bounds_;
  // Each boundary's raw sum carries about one clock read per call; the
  // enclosing usim span carries two.  Both are taken out below.
  const double plan_ns = per(b.plan_ns - clock_ns * b.plans, b.plans);
  const double fold_ns = per(b.fold_ns - clock_ns * b.folds, b.folds);
  const double append_ns = per(b.append_ns - clock_ns * b.appends + b.close_ns, b.appends);
  const double nested = static_cast<double>(b.plans + b.folds + b.appends);
  const double usim_incl = per(usim_ns_, S);
  const double usim_self =
      per(static_cast<double>(usim_ns_) - b.plan_ns - b.fold_ns - b.append_ns - clock_ns * nested,
          S);
  const double fs_per = per(fs_ns, fs_ops);
  const double sim_per = per(sim_ns, chains);
  const double dist_per = per(dist_ns, dist_draws);
  const double draws_per = per(draws_, S);
  const double residue = usim_self - fs_per - sim_per - dist_per * draws_per;
  const double read_per = per(read_ns, records_read_);
  const double analysis_per =
      records_read_ > 0 ? per(static_cast<double>(analysis_ns_) - read_ns, records_read_) : 0.0;

  TracedResult out;
  out.points = points_;
  out.syscalls = syscalls_;
  out.events = events_;
  out.metrics = {
      {"fsc.ms_per_universe", per(fsc_ns_, U) / 1e6, "ms"},
      {"fsc.allocs_per_universe", per(fsc_allocs_, U), "count"},
      {"fsc.files_per_universe", per(files_, U), "count"},
      {"fs.ns_per_syscall", fs_per, "ns"},
      {"usim.ns_per_syscall", usim_incl, "ns"},
      {"usim.self_ns_per_syscall", usim_self, "ns"},
      {"usim.allocs_per_syscall", per(usim_allocs_, S), "count"},
      {"usim.events_per_syscall", per(events_, S), "count"},
      {"usim.draws_per_syscall", draws_per, "count"},
      {"dist.ns_per_draw", dist_per, "ns"},
      {"fsmodel.plan_ns", plan_ns, "ns"},
      {"fsmodel.allocs_per_plan", per(b.plan_allocs, b.plans), "count"},
      {"fsmodel.stages_per_plan", per(b.stages, b.plans), "count"},
      {"sim.chain_ns_per_syscall", sim_per, "ns"},
      {"sim.allocs_per_chain", per(chain_allocs, chains), "count"},
      {"runner.fold_ns_per_record", fold_ns, "ns"},
      {"runner.merge_s", merge_s_, "s"},
      {"runner.parallel_efficiency",
       per(untraced.cpu_s, untraced.wall_s * static_cast<double>(spec_.threads)), "ratio"},
      {"log_sink.append_ns_per_record", append_ns, "ns"},
      {"log_sink.read_ns_per_record", read_per, "ns"},
      {"log_sink.spill_mb", spill_mb_, "MB"},
      {"analysis.ns_per_record", analysis_per, "ns"},
      {"trace.residue_ns_per_syscall", residue, "ns"},
      {"trace.overhead_frac", per(traced_cpu, untraced.cpu_s) - 1.0, "ratio"},
  };

  char line[512];
  std::snprintf(line, sizeof line,
                "usim.ns_per_syscall %.1f = fsmodel.plan %.1f + runner.fold %.1f + "
                "log_sink.append %.1f + tracing clock %.1f + usim.self %.1f",
                usim_incl, per(b.plan_ns - clock_ns * b.plans, S),
                per(b.fold_ns - clock_ns * b.folds, S),
                per(b.append_ns - clock_ns * b.appends, S), per(2.0 * clock_ns * nested, S),
                usim_self);
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "usim.self %.1f = fs %.1f + sim %.1f + dist %.1f (%.2f draws x %.2f ns) + "
                "residue %.1f  [replays over %llu syscalls of %zu sampled universes]",
                usim_self, fs_per, sim_per, dist_per * draws_per, draws_per, dist_per, residue,
                static_cast<unsigned long long>(chains), captured_.size());
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "universe construction (what setup_s times): fsc.create %.3f ms + model "
                "factory %.3f ms per universe; fsc share %.1f%%",
                per(fsc_ns_, U) / 1e6, per(factory_ns_, U) / 1e6,
                100.0 * per(fsc_ns_, fsc_ns_ + factory_ns_));
  out.notes.push_back(line);
  const double traced_per = per((fsc_ns_ + usim_ns_) + merge_s_ * 1e9 + analysis_ns_, S);
  std::snprintf(line, sizeof line,
                "traced host ns per syscall (fsc + usim + merge + analysis) %.1f vs untraced "
                "cpu_ns_per_syscall %.1f; tracing overhead %.1f%%; clock read %.1f ns",
                traced_per, per(untraced.cpu_s * 1e9, S),
                100.0 * (per(traced_cpu, untraced.cpu_s) - 1.0), clock_ns);
  out.notes.push_back(line);
  return out;
}

}  // namespace

TracedResult run_traced(const sc::ScenarioSpec& spec, const RepResult& untraced,
                        const std::string& span_file) {
  Tracer tracer(spec);
  return tracer.run(untraced, span_file);
}

}  // namespace perfbench
