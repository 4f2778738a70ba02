// Microbenchmarks (google-benchmark): throughput of the hot paths every
// experiment leans on — distribution sampling, CDF-table lookup, the DES
// event loop, resource queueing, the simulated file system, the File
// System Creator, and the LRU caches.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "dist/basic.h"
#include "dist/cdf_table.h"
#include "dist/multistage_gamma.h"
#include "dist/phase_exponential.h"
#include "fs/filesystem.h"
#include "fsmodel/lru_cache.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stages.h"
#include "util/rng.h"

namespace {

using namespace wlgen;

// Batched uniform path: RngStream::uniform01 serves from a 128-draw block
// filled in one tight mt19937_64 loop (see DESIGN.md "Batched RNG").
void BM_RngUniform01(benchmark::State& state) {
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform01);

// Reference path: one std::uniform_real_distribution dispatch per draw on
// the same engine — what uniform01 cost before batching; kept on the
// scoreboard to document the amortisation.
void BM_RngUniform01Unbatched(benchmark::State& state) {
  util::RngStream rng(1, "bm");
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(dist(rng.engine()));
}
BENCHMARK(BM_RngUniform01Unbatched);

void BM_SampleExponential(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SampleExponential);

void BM_SamplePhaseTypeExponential(benchmark::State& state) {
  const auto d = dist::PhaseTypeExponential::paper_example_c();
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SamplePhaseTypeExponential);

void BM_SampleMultiStageGamma(benchmark::State& state) {
  const auto d = dist::MultiStageGamma::paper_example_c();
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(d.sample(rng));
}
BENCHMARK(BM_SampleMultiStageGamma);

void BM_CdfTableSample(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  const dist::CdfTable table = dist::build_cdf_table(d, static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_CdfTableSample)->Arg(16)->Arg(256)->Arg(4096);

// Reference path: O(log n) binary search over the F column.  Kept on the
// scoreboard to document the alias method's flat profile against it.
void BM_CdfTableSampleBinarySearch(benchmark::State& state) {
  dist::ExponentialDistribution d(1024.0);
  const dist::CdfTable table = dist::build_cdf_table(d, static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (auto _ : state) benchmark::DoNotOptimize(table.sample_binary(rng));
}
BENCHMARK(BM_CdfTableSampleBinarySearch)->Arg(16)->Arg(256)->Arg(4096);

void BM_SimulationEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationEventLoop)->Arg(1000)->Arg(10000);

// Steady-state event churn: a fixed-size pending set where every dispatched
// event reschedules a successor at a random future time — the USIM's actual
// heap access pattern (BM_SimulationEventLoop above is the fill-then-drain
// shape).  Items = events dispatched.
struct ChurnState {
  sim::Simulation sim;
  util::RngStream rng{1, "bm"};
  std::uint64_t remaining = 0;
};

void churn_hop(ChurnState* cs) {
  if (cs->remaining == 0) return;
  --cs->remaining;
  cs->sim.schedule(cs->rng.uniform01() * 100.0, [cs] { churn_hop(cs); });
}

void BM_SimulationEventChurn(benchmark::State& state) {
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kHops = 32;
  for (auto _ : state) {
    ChurnState cs;
    cs.remaining = kHops * pending;
    for (std::size_t i = 0; i < pending; ++i) {
      cs.sim.schedule(cs.rng.uniform01() * 100.0, [p = &cs] { churn_hop(p); });
    }
    cs.sim.run();
    benchmark::DoNotOptimize(cs.sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>((kHops + 1) * pending));
}
BENCHMARK(BM_SimulationEventChurn)->Arg(1024)->Arg(65536);

// --- AoS vs SoA heap layout, isolated ----------------------------------
// Two minimal 4-ary min-heaps with the Simulation's exact sift logic: the
// former 24-byte {when, seq, slot} AoS entry versus the current split into
// a 16-byte key array plus a parallel 4-byte slot array (DESIGN.md "SoA
// event heap").  Same keys, same comparisons — only the bytes moved per
// sift level differ, so the pair isolates the pure layout effect.  The AoS
// variant is the reference path kept on the scoreboard.
struct HeapAos {
  struct Entry {
    double when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  std::vector<Entry> entries;

  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void push(double when, std::uint64_t seq, std::uint32_t slot) {
    entries.push_back({when, seq, slot});
    std::size_t i = entries.size() - 1;
    const Entry e = entries[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, entries[parent])) break;
      entries[i] = entries[parent];
      i = parent;
    }
    entries[i] = e;
  }
  std::uint32_t pop() {
    const std::uint32_t top = entries.front().slot;
    entries.front() = entries.back();
    entries.pop_back();
    const std::size_t n = entries.size();
    if (n == 0) return top;
    std::size_t i = 0;
    const Entry e = entries[0];
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(entries[c], entries[best])) best = c;
      }
      if (!before(entries[best], e)) break;
      entries[i] = entries[best];
      i = best;
    }
    entries[i] = e;
    return top;
  }
  bool empty() const { return entries.empty(); }
};

struct HeapSoa {
  struct Key {
    double when;
    std::uint64_t seq;
  };
  std::vector<Key> keys;
  std::vector<std::uint32_t> slots;

  static bool before(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void push(double when, std::uint64_t seq, std::uint32_t slot) {
    keys.push_back({when, seq});
    slots.push_back(slot);
    std::size_t i = keys.size() - 1;
    const Key key = keys[i];
    const std::uint32_t s = slots[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(key, keys[parent])) break;
      keys[i] = keys[parent];
      slots[i] = slots[parent];
      i = parent;
    }
    keys[i] = key;
    slots[i] = s;
  }
  std::uint32_t pop() {
    const std::uint32_t top = slots.front();
    keys.front() = keys.back();
    slots.front() = slots.back();
    keys.pop_back();
    slots.pop_back();
    const std::size_t n = keys.size();
    if (n == 0) return top;
    std::size_t i = 0;
    const Key key = keys[0];
    const std::uint32_t s = slots[0];
    while (true) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(keys[c], keys[best])) best = c;
      }
      if (!before(keys[best], key)) break;
      keys[i] = keys[best];
      slots[i] = slots[best];
      i = best;
    }
    keys[i] = key;
    slots[i] = s;
    return top;
  }
  bool empty() const { return keys.empty(); }
};

template <typename Heap>
void heap_fill_drain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::RngStream rng(1, "bm");
  std::vector<double> whens(n);
  for (auto& w : whens) w = rng.uniform01() * 1e6;
  Heap heap;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      heap.push(whens[i], i, static_cast<std::uint32_t>(i));
    }
    std::uint64_t sum = 0;
    while (!heap.empty()) sum += heap.pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_EventHeapAos(benchmark::State& state) { heap_fill_drain<HeapAos>(state); }
BENCHMARK(BM_EventHeapAos)->Arg(100000);

void BM_EventHeapSoa(benchmark::State& state) { heap_fill_drain<HeapSoa>(state); }
BENCHMARK(BM_EventHeapSoa)->Arg(100000);

void BM_ResourceQueueing(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource disk(sim, "disk", 1);
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) disk.use(1.0, [] {});
    sim.run();
    benchmark::DoNotOptimize(disk.completed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ResourceQueueing)->Arg(1000);

void BM_StageChainExecution(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Resource disk(sim, "disk", 1);
    for (int i = 0; i < 500; ++i) {
      sim::execute_chain(sim,
                         {sim::Stage::make_delay(1.0), sim::Stage::make_use(disk, 2.0),
                          sim::Stage::make_delay(1.0)},
                         [](double) {});
    }
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_StageChainExecution);

void BM_FsCreateWriteUnlink(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/f" + std::to_string(i++ % 1000);
    const auto fd = fsys.creat(path);
    fsys.write(fd.value(), 4096);
    fsys.close(fd.value());
    fsys.unlink(path);
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_FsCreateWriteUnlink);

void BM_FsSequentialRead(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/big");
  fsys.write(fd.value(), 1 << 20);
  fsys.close(fd.value());
  const auto rd = fsys.open("/big", fs::kRead);
  for (auto _ : state) {
    if (fsys.read(rd.value(), 1024).value() == 0) fsys.lseek(rd.value(), 0, fs::Seek::set);
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FsSequentialRead);

void BM_FsPathResolutionDeep(benchmark::State& state) {
  fs::SimulatedFileSystem fsys;
  std::string path;
  for (int d = 0; d < 8; ++d) {
    path += "/d" + std::to_string(d);
    fsys.mkdir(path);
  }
  const std::string file = path + "/leaf";
  fsys.close(fsys.creat(file).value());
  for (auto _ : state) benchmark::DoNotOptimize(fsys.stat(file));
}
BENCHMARK(BM_FsPathResolutionDeep);

// One FSC universe build per iteration on a fresh file system, as every
// runner builds a user's (or a replication's) universe: directories made
// once, then open_at + write + close per file through the directory handle.
// Every iteration after the first shares the profiles, so it restores the
// thread's /system snapshot and builds only the user part.
// Arg = users; items = files created.
void BM_FscCreate(benchmark::State& state) {
  const auto profiles = core::di86_file_profiles();
  core::FscConfig config;
  config.num_users = static_cast<std::size_t>(state.range(0));
  std::size_t files = 0;
  for (auto _ : state) {
    fs::SimulatedFileSystem fsys;
    core::FileSystemCreator fsc(fsys, profiles, config);
    const core::CreatedFileSystem manifest = fsc.create();
    files += manifest.file_count();
    benchmark::DoNotOptimize(manifest.files().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(files));
}
BENCHMARK(BM_FscCreate)->Arg(1)->Arg(16);

// BM_FscCreate with fresh size distributions every iteration, so no build
// matches a snapshot: the whole tree is built, then the /system part is
// snapshotted.  Making the distributions is timed too.
void BM_FscCreateCold(benchmark::State& state) {
  core::FscConfig config;
  config.num_users = static_cast<std::size_t>(state.range(0));
  std::size_t files = 0;
  for (auto _ : state) {
    auto profiles = core::di86_file_profiles();
    for (core::FileCategoryProfile& p : profiles) p.size_dist = p.size_dist->clone();
    fs::SimulatedFileSystem fsys;
    core::FileSystemCreator fsc(fsys, std::move(profiles), config);
    const core::CreatedFileSystem manifest = fsc.create();
    files += manifest.file_count();
    benchmark::DoNotOptimize(manifest.files().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(files));
}
BENCHMARK(BM_FscCreateCold)->Arg(1);

void BM_LruCacheAccess(benchmark::State& state) {
  fsmodel::LruCache cache(static_cast<std::size_t>(state.range(0)));
  util::RngStream rng(1, "bm");
  for (std::int64_t i = 0; i < state.range(0); ++i) cache.insert(static_cast<std::uint64_t>(i));
  for (auto _ : state) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 2 * state.range(0)));
    if (!cache.access(key)) cache.insert(key);
  }
}
BENCHMARK(BM_LruCacheAccess)->Arg(384)->Arg(4096);

}  // namespace

WLGEN_BENCHMARK_MAIN();
