// wlgen_perfbench: the end-to-end benchmark of wlgen (see README.md here).
//
//   wlgen_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--size full|tiny] [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up time, then untraced
// repetitions of the workload for --seconds (at least two), each checked
// against the pinned digest.  --trace 1 runs one untraced repetition and one
// traced re-execution and prints the per-layer metrics.  The last line of
// standard output is one JSON object with the result.

#include <sys/resource.h>
#include <sys/statvfs.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench.h"
#include "util/version.h"

// --- allocation counting ----------------------------------------------------
//
// Global operator new is replaced here, in the benchmark's own translation unit,
// so allocations are counted from outside the library.  Counting is switched
// on only inside traced boundaries, which run on one thread.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_one() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  count_one();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t alignment) {
  count_one();
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate_aligned(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return allocate_aligned(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

namespace {

namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  std::string work_dir = ".bench_build";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "wlgen_perfbench: " << message
            << "\nusage: wlgen_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--size full|tiny] [--work-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        o.size = value == "tiny" ? Size::tiny : Size::full;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("--workload must be one of sharded_warm, contended_sweep, wide_spill");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  return o;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void print_metrics(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string spool_path(const Options& o, const std::string& tag) {
  return (fs::path(o.work_dir) / "spool" /
          (o.workload + "-" + std::to_string(getpid()) + "-" + tag))
      .string();
}

/// Empties and creates a spilling workload's spool after a free-space check
/// (the full-size spool is about 165 MB).
void prepare_spool(const Options& o, const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct statvfs vfs {};
  const std::uint64_t need = o.size == Size::full ? (512ull << 20) : (16ull << 20);
  if (statvfs(dir.c_str(), &vfs) != 0 ||
      static_cast<std::uint64_t>(vfs.f_bavail) * vfs.f_frsize < need) {
    throw std::runtime_error("less than " + std::to_string(need >> 20) +
                             " MiB free for the spool under " + o.work_dir);
  }
}

/// Runs one checked repetition with a fresh spool; returns false (and says
/// why) on a failure.
bool checked_rep(const Options& o, std::size_t nproc, const std::string& tag,
                 const std::string* reference, RepResult* out) {
  const std::string spool = spool_path(o, tag);
  try {
    const auto spec = make_spec(o.workload, o.seed, o.size, nproc, spool);
    if (spec.log_spill) prepare_spool(o, spool);
    *out = run_untraced(spec);
    fs::remove_all(spool);
  } catch (const std::exception& e) {
    fs::remove_all(spool);
    std::printf("  rep %s FAILED: %s\n", tag.c_str(), e.what());
    return false;
  }
  const std::uint64_t hash = fnv1a64(out->digest);
  std::printf("  rep %-8s wall %.3f s  cpu %.3f s  syscalls %llu  digest %016llx\n", tag.c_str(),
              out->wall_s, out->cpu_s, static_cast<unsigned long long>(out->syscalls),
              static_cast<unsigned long long>(hash));
  if (const Pin* pin = pinned(o.workload, o.seed, o.size)) {
    if (hash != pin->digest_hash || out->syscalls != pin->syscalls) {
      std::printf("  rep %s FAILED: digest/syscalls differ from the pin (%016llx, %llu)\n",
                  tag.c_str(), static_cast<unsigned long long>(pin->digest_hash),
                  static_cast<unsigned long long>(pin->syscalls));
      return false;
    }
  } else if (reference != nullptr && out->digest != *reference) {
    std::printf("  rep %s FAILED: digest differs from the first repetition\n", tag.c_str());
    return false;
  }
  return true;
}

int run_end_to_end(const Options& o, std::size_t nproc) {
  // Set-up: universes built without simulating, repeated for a median after
  // one untimed build that lets the heap and code pages settle.
  const auto setup_spec = make_spec(o.workload, o.seed, o.size, nproc, o.work_dir);
  setup_once(setup_spec);
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < 5 || (setup_total < 6.0 && setups.size() < 100)) {
    setups.push_back(setup_once(setup_spec));
    setup_total += setups.back();
  }
  std::printf("setup: %zu builds, median %.4f s (min %.4f, max %.4f)\n", setups.size(),
              median(setups), *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  std::vector<double> throughput;
  std::vector<double> cpu_per_syscall;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string reference;
  const double start = now_s();
  while (attempted < 2 || now_s() - start < o.seconds) {
    RepResult rep;
    const bool ok = checked_rep(o, nproc, std::to_string(attempted),
                                reference.empty() ? nullptr : &reference, &rep);
    ++attempted;
    if (!ok) {
      ++failed;
      continue;
    }
    if (reference.empty()) reference = rep.digest;
    throughput.push_back(static_cast<double>(rep.syscalls) / rep.wall_s);
    cpu_per_syscall.push_back(rep.cpu_s * 1e9 / static_cast<double>(rep.syscalls));
    if (attempted == 1 && !rep.report.empty()) std::printf("%s", rep.report.c_str());
  }
  if (throughput.empty()) {
    std::printf("every repetition failed\n");
    print_result(false, attempted, failed, {});
    return 1;
  }

  const std::vector<Metric> metrics = {
      {"syscalls_per_s", median(throughput), "1/s"},
      {"cpu_ns_per_syscall", median(cpu_per_syscall), "ns"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_metrics("end-to-end (" + std::to_string(attempted) + " repetitions, medians)", metrics);
  std::printf("  %-32s %16.6g  %s\n", "runs_failed",
              static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

int run_layers(const Options& o, std::size_t nproc) {
  RepResult rep;
  const bool untraced_ok = checked_rep(o, nproc, "untraced", nullptr, &rep);
  std::size_t failed = untraced_ok ? 0 : 1;
  std::vector<Metric> metrics;
  if (untraced_ok) {
    const std::string spool = spool_path(o, "traced");
    try {
      const auto spec = make_spec(o.workload, o.seed, o.size, nproc, spool);
      if (spec.log_spill) prepare_spool(o, spool);
      const std::string span_file =
          (fs::path(o.work_dir) / ("spans-" + o.workload + ".json")).string();
      const TracedResult traced = run_traced(spec, rep, span_file);
      fs::remove_all(spool);
      metrics = traced.metrics;
      std::printf("traced run: %llu syscalls, %llu events, spans in %s\n",
                  static_cast<unsigned long long>(traced.syscalls),
                  static_cast<unsigned long long>(traced.events), span_file.c_str());
      bool same = traced.points == rep.points && traced.syscalls == rep.syscalls;
      if (!same) {
        std::printf("traced run FAILED: its aggregates differ from the untraced run\n");
        for (const auto& p : rep.points) std::printf("  untraced %s\n", describe(p).c_str());
        for (const auto& p : traced.points) std::printf("  traced   %s\n", describe(p).c_str());
      }
      if (const Pin* pin = pinned(o.workload, o.seed, o.size)) {
        if (traced.events != pin->events) {
          std::printf("traced run FAILED: %llu events, pinned %llu\n",
                      static_cast<unsigned long long>(traced.events),
                      static_cast<unsigned long long>(pin->events));
          same = false;
        }
      }
      if (!same) ++failed;
      print_metrics("per-layer (traced run)", metrics);
      std::printf("reconciliation:\n");
      for (const std::string& note : traced.notes) std::printf("  %s\n", note.c_str());
    } catch (const std::exception& e) {
      fs::remove_all(spool);
      std::printf("traced run FAILED: %s\n", e.what());
      ++failed;
    }
  }
  print_result(failed == 0 && !metrics.empty(), untraced_ok ? 2 : 1, failed, metrics);
  return metrics.empty() ? 1 : 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
#ifndef NDEBUG
  std::cerr << "wlgen_perfbench: refusing to measure a build without NDEBUG\n";
  return 2;
#endif
  const auto& build = wlgen::util::build_info();
  if (build.build_type != "Release") {
    std::cerr << "wlgen_perfbench: refusing to measure a " << build.build_type
              << " build of libwlgen\n";
    return 2;
  }
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::printf("perfbench %s seed=%llu size=%s trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.size == Size::full ? "full" : "tiny",
              o.trace ? 1 : 0);
  std::printf("provenance: git %s%s, %s, %s, nproc %zu, threads %zu, load %.2f %.2f %.2f\n",
              build.git_sha.c_str(), build.git_dirty ? " (dirty)" : "", build.build_type.c_str(),
              build.compiler.c_str(), nproc, std::min(kWorkloadThreads, nproc),
              load[0], load[1], load[2]);
  std::fflush(stdout);
  try {
    std::filesystem::create_directories(o.work_dir);
    return o.trace ? run_layers(o, nproc) : run_end_to_end(o, nproc);
  } catch (const std::exception& e) {
    std::cerr << "wlgen_perfbench: " << e.what() << "\n";
    return 1;
  }
}
