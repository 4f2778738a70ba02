// Workload definitions, pinned digests and the untraced repetition.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "bench.h"
#include "core/analysis.h"
#include "core/fsc.h"
#include "core/log_sink.h"
#include "core/presets.h"
#include "fs/filesystem.h"
#include "runner/contended_runner.h"
#include "sim/simulation.h"
#include "util/table.h"

namespace perfbench {

namespace sc = wlgen::scenario;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sharded_warm", "contended_sweep",
                                                 "wide_spill"};
  return names;
}

sc::ScenarioSpec make_spec(const std::string& workload, std::uint64_t seed, Size size,
                           std::size_t nproc, const std::string& spool_dir) {
  const bool tiny = size == Size::tiny;
  const std::size_t threads = std::min(kWorkloadThreads, std::max<std::size_t>(1, nproc));
  std::ostringstream text;
  text << "[scenario]\nname = " << workload << "\nseed = " << seed << "\nthreads = " << threads
       << "\n";
  if (workload == "sharded_warm") {
    // 200 private universes whose NFS caches warm over 20 sessions each: the
    // per-syscall pipeline dominates, then a large single-threaded tail
    // (merge_user_logs + analyzer) over the in-RAM log.
    text << "mode = sharded\n[workload]\nusers = " << (tiny ? 8 : 200)
         << "\nsessions = " << (tiny ? 2 : 20) << "\nheavy_fraction = 0.5\n"
         << "[sharded]\nshards = " << (tiny ? 4 : 8) << "\n";
  } else if (workload == "contended_sweep") {
    // Every user of a replication shares one Simulation and one model, so
    // resources hold deep FCFS queues (Figures 5.6-5.11); no log, no merge,
    // and only 16 universes to build.
    text << "mode = contended\n[workload]\nusers = " << (tiny ? "2:4:2" : "2:16:2")
         << "\nsessions = " << (tiny ? 3 : 30) << "\nheavy_fraction = 1.0\n"
         << "[contended]\nreplications = " << (tiny ? 1 : 2) << "\n";
  } else if (workload == "wide_spill") {
    // 4000 cold universes (FSC is a large share of the work) whose log is
    // spilled to sorted runs and read back through the k-way merge.
    text << "mode = sharded\n[workload]\nusers = " << (tiny ? 40 : 4000)
         << "\nsessions = 1\n[sharded]\nshards = " << (tiny ? 4 : 16)
         << "\n[log]\nspill = true\nspool_dir = " << spool_dir << "\n";
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  text << "[model]\nname = nfs\n";
  return sc::ScenarioSpec::parse_text(text.str(), "<perfbench:" + workload + ">");
}

bool keeps_log(const sc::ScenarioSpec& spec) {
  return spec.mode == sc::RunMode::sharded && spec.collect_log;
}

const Pin* pinned(const std::string& workload, std::uint64_t seed, Size size) {
  // Measured once at the default seed; a change to any of these numbers is
  // a model change, not a speed-up.
  static const Pin sharded_warm{0x1ad07186361f44a1ull, 2860073, 9268104};
  static const Pin contended_sweep{0x4d02802ef7569bd2ull, 2860187, 9544815};
  static const Pin wide_spill{0x002b1a566747975bull, 2842807, 9723474};
  if (seed != kDefaultSeed || size != Size::full) return nullptr;
  if (workload == "sharded_warm") return &sharded_warm;
  if (workload == "contended_sweep") return &contended_sweep;
  if (workload == "wide_spill") return &wide_spill;
  return nullptr;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string describe(const PointAggregate& p) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "users=%zu ops=%llu sessions=%llu response_mean=%.17g rpb_pooled=%.17g "
                "rpb_mean=%.17g",
                p.users, static_cast<unsigned long long>(p.ops),
                static_cast<unsigned long long>(p.sessions), p.response_mean_us,
                p.response_per_byte_pooled, p.response_per_byte_mean);
  return buffer;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

std::string render_analysis(wlgen::core::LogReader& reader, std::uint64_t* op_count,
                            std::uint64_t* session_count) {
  using wlgen::util::TextTable;
  const wlgen::core::UsageAnalyzer analyzer(reader);
  TextTable ops({"op", "count", "access size mean(std)", "response us mean(std)"});
  for (const auto& [op, s] : analyzer.per_op_stats()) {
    ops.add_row({wlgen::fsmodel::to_string(op), std::to_string(s.response_us.count()),
                 s.access_size.count() ? s.access_size.mean_std_string() : "-",
                 s.response_us.mean_std_string()});
  }
  TextTable summary({"metric", "value"});
  summary.add_row({"system calls", std::to_string(analyzer.op_count())});
  summary.add_row({"sessions", std::to_string(analyzer.sessions().size())});
  summary.add_row({"access size B mean(std)", analyzer.access_size_stats().count()
                                                  ? analyzer.access_size_stats().mean_std_string()
                                                  : "-"});
  summary.add_row({"response us mean(std)", analyzer.response_stats().mean_std_string()});
  summary.add_row(
      {"response per byte us", TextTable::num(analyzer.response_per_byte_us(), 4)});
  *op_count = analyzer.op_count();
  *session_count = analyzer.sessions().size();
  return ops.render() + "\n" + summary.render();
}

RepResult run_untraced(const sc::ScenarioSpec& spec) {
  RepResult rep;
  const double cpu0 = process_cpu_s();
  const double wall0 = now_s();
  {
    const sc::ScenarioOutcome outcome = sc::run_scenario(spec);
    const sc::ModelOutcome& model = outcome.models.front();
    rep.digest = outcome.stats_digest;
    for (const sc::PointOutcome& p : model.points) {
      rep.points.push_back({p.users, p.ops, p.sessions, p.stats.response_us().mean(),
                            p.stats.response_per_byte_us(), p.response_per_byte.mean});
      rep.syscalls += p.ops;
      rep.sessions += p.sessions;
    }
    if (keeps_log(spec)) {
      std::unique_ptr<wlgen::core::LogReader> reader;
      if (model.spilled_runs.empty()) {
        reader = std::make_unique<wlgen::core::MemoryLogReader>(model.log);
      } else {
        reader = wlgen::core::open_spilled_log(model.spilled_runs);
      }
      std::uint64_t ops = 0;
      std::uint64_t sessions = 0;
      rep.report = render_analysis(*reader, &ops, &sessions);
      if (ops != rep.syscalls || sessions != rep.sessions) {
        throw std::runtime_error("analyzer report disagrees with the runner: " +
                                 std::to_string(ops) + " ops / " + std::to_string(sessions) +
                                 " sessions vs " + std::to_string(rep.syscalls) + " / " +
                                 std::to_string(rep.sessions));
      }
    }
  }  // the outcome (and its log) is freed inside the timed region, as at CLI exit
  rep.wall_s = now_s() - wall0;
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

std::vector<Universe> universes_of(const sc::ScenarioSpec& spec) {
  std::vector<Universe> universes;
  if (spec.mode == sc::RunMode::sharded) {
    for (std::size_t u = 0; u < spec.user_points.front(); ++u) universes.push_back({u, 1, spec.seed});
  } else {
    for (const std::size_t users : spec.user_points) {
      for (std::size_t r = 0; r < spec.replications; ++r) {
        universes.push_back({0, users, wlgen::runner::replication_seed(spec.seed, r)});
      }
    }
  }
  return universes;
}

wlgen::core::FscConfig fsc_config(const Universe& universe) {
  wlgen::core::FscConfig config;
  config.num_users = universe.users;
  config.first_user = universe.first_user;
  config.seed = universe.seed;
  return config;
}

double setup_once(const sc::ScenarioSpec& spec) {
  namespace core = wlgen::core;
  const std::vector<Universe> universes = universes_of(spec);
  const auto factory = spec.models.front().factory();
  const auto profiles = core::di86_file_profiles();

  // Workers drain the universe list as the runners' pool does, each reusing
  // one Simulation; the first failure is rethrown after the join.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&] {
    try {
      wlgen::sim::Simulation sim;
      for (std::size_t i = next++; i < universes.size(); i = next++) {
        sim.reset();
        wlgen::fs::SimulatedFileSystem fsys;
        fsys.set_clock([&sim] { return sim.now(); });
        const auto model = factory(sim);
        core::FileSystemCreator fsc(fsys, profiles, fsc_config(universes[i]));
        if (fsc.create().file_count() == 0) throw std::runtime_error("FSC built an empty universe");
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  const double start = now_s();
  std::vector<std::thread> helpers;
  try {
    for (std::size_t t = 1; t < spec.threads; ++t) helpers.emplace_back(worker);
  } catch (...) {
    next = universes.size();  // stops the helpers already started
    for (auto& helper : helpers) helper.join();
    throw;
  }
  worker();
  for (auto& helper : helpers) helper.join();
  const double elapsed = now_s() - start;
  if (error) std::rethrow_exception(error);
  return elapsed;
}

}  // namespace perfbench
