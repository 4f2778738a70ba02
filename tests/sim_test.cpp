// Unit tests for src/sim: event ordering, clock semantics, FCFS resources
// with utilisation accounting, and stage-chain execution — plus the
// allocation pins of the syscall pipeline built on them (fsmodel plans,
// pooled chains, USIM completions).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fsmodel/nfs_model.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "sim/stages.h"

// Global allocation counter: lets the event-core tests assert that the
// arena + small-buffer-callback design really schedules without touching
// the heap (DESIGN.md "Event core").  The operators below intentionally
// pair std::malloc with std::free; GCC's -Wmismatched-new-delete cannot see
// through the override.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates via ::operator new(n, std::nothrow) and frees via the
// sized ::operator delete above — replacing only the throwing forms pairs
// the library default's allocation with this file's std::free (caught by
// ASan as an alloc-dealloc mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wlgen::sim {
namespace {

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30.0, [&] { order.push_back(3); });
  sim.schedule(10.0, [&] { order.push_back(1); });
  sim.schedule(20.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
  Simulation sim;
  double inner_time = -1.0;
  sim.schedule(10.0, [&] {
    sim.schedule(5.0, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(inner_time, 15.0);
}

TEST(Simulation, RejectsInvalidScheduling) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_at(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule(1.0, nullptr), std::invalid_argument);
  // An empty std::function must be rejected at schedule time, not crash
  // with bad_function_call at dispatch time.
  std::function<void()> empty_fn;
  EXPECT_THROW(sim.schedule(1.0, empty_fn), std::invalid_argument);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule(10.0, [&] { ++fired; });
  sim.schedule(20.0, [&] { ++fired; });
  sim.run_until(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// Regression: run_until must advance the clock even when nothing is
// pending — callers use it to model idle wall-clock periods.
TEST(Simulation, RunUntilOnEmptyQueueStillAdvancesClock) {
  Simulation sim;
  sim.run_until(25.0);
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  sim.run_until(25.0);  // idempotent at the boundary
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
  sim.run_until(40.0);
  EXPECT_DOUBLE_EQ(sim.now(), 40.0);
  EXPECT_THROW(sim.run_until(10.0), std::invalid_argument);
}

// reset() rewinds the clock and discards pending work: the sharded runner
// reuses one Simulation per worker across many independent user timelines.
TEST(Simulation, ResetRewindsClockAndDropsPendingEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(6.0);
  EXPECT_EQ(fired, 1);
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
  sim.run();              // nothing pending: a no-op
  EXPECT_EQ(fired, 1);    // the discarded 10.0 event never fires

  // A fresh timeline on the recycled arena behaves like a new Simulation,
  // FIFO tie-break included.
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

// Property test of the SoA pending set: for a randomized schedule with many
// deliberate timestamp collisions, dispatch order must equal a stable sort
// of the requests by time — stability being exactly the FIFO tie-break.
// Guards the parallel key/payload arrays against drifting out of sync in
// any sift path.
TEST(Simulation, RandomizedScheduleDispatchesInStableSortedOrder) {
  std::mt19937 gen(20260807);
  // Few distinct times over many events forces long runs of ties.
  std::uniform_int_distribution<int> coarse_time(0, 19);
  Simulation sim;
  std::vector<int> order;
  std::vector<std::pair<double, int>> requests;  // (when, id), scheduling order
  constexpr int kEvents = 2000;
  for (int i = 0; i < kEvents; ++i) {
    const double when = static_cast<double>(coarse_time(gen));
    requests.emplace_back(when, i);
    sim.schedule_at(when, [&order, i] { order.push_back(i); });
  }
  sim.run();
  std::stable_sort(requests.begin(), requests.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(order.size(), requests.size());
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], requests[static_cast<std::size_t>(i)].second)
        << "dispatch position " << i;
  }
}

// reset() between two identical randomized timelines: the warm arena and
// recycled heap storage must replay the second timeline identically to the
// first (the sharded runner's per-worker reuse contract, at scale).
TEST(Simulation, ResetReplaysIdenticalTimelineOnWarmStorage) {
  Simulation sim;
  std::vector<int> first_run;
  std::vector<int> second_run;
  auto drive = [&sim](std::vector<int>& order) {
    std::mt19937 gen(99);
    std::uniform_int_distribution<int> coarse_time(0, 9);
    for (int i = 0; i < 500; ++i) {
      sim.schedule_at(static_cast<double>(coarse_time(gen)), [&order, i] { order.push_back(i); });
    }
    sim.run();
  };
  drive(first_run);
  sim.reset();
  EXPECT_EQ(sim.pending(), 0u);
  drive(second_run);
  EXPECT_EQ(first_run, second_run);
}

// Regression: the FIFO tie-break must survive heap restructuring — ties
// scheduled from inside other events (exercising sift-up/sift-down paths)
// still fire in scheduling order.
TEST(Simulation, FifoTieBreakSurvivesInterleavedScheduling) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(static_cast<double>(i % 5), [&sim, &order, i] {
      sim.schedule_at(100.0, [&order, i] { order.push_back(i); });
    });
  }
  sim.run();
  // Outer events fire grouped by time (i%5), FIFO within a group; the inner
  // ties at t=100 must replay exactly that scheduling order.
  std::vector<int> expected;
  for (int r = 0; r < 5; ++r) {
    for (int i = r; i < 50; i += 5) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

// The point of the event-pool + small-buffer-callback design: once the
// arena is warm, scheduling and running events with small captures performs
// zero heap allocations.
TEST(Simulation, SmallCaptureEventsAllocateNothingAfterWarmup) {
  Simulation sim;
  const int n = 1000;
  int fired = 0;
  for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [&fired] { ++fired; });
  sim.run();  // warm-up grows the heap/arena vectors to steady state
  ASSERT_EQ(fired, n);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) sim.schedule(static_cast<double>(i), [&fired] { ++fired; });
  sim.run();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(fired, 2 * n);
}

// One round of NFS syscalls issued at the same instant, so they queue on the
// client CPU (a capacity-1 resource) behind each other.  Every plan stays
// within StageChain::kInlineCapacity stages: single-block reads (7 stages
// on a miss), writes whose 8 KiB dirty threshold fires an async flush
// chain, sequential continuations that arm read-ahead chains, lseeks,
// reopens and closes that flush the dirty remainder.
void nfs_round(Simulation& sim, fsmodel::NfsModel& nfs, std::uint64_t round,
               std::uint64_t* completed) {
  constexpr std::uint64_t kFiles = 48;
  constexpr std::uint64_t kBlock = 8192;
  constexpr std::uint64_t kFileBlocks = 64;  // 48 x 64 blocks thrash both caches
  for (std::uint64_t f = 1; f <= kFiles; ++f) {
    const std::uint64_t block = (round + f) % kFileBlocks;
    auto issue = [&](fsmodel::FsOpType type, std::uint64_t offset, std::uint64_t size) {
      fsmodel::FsOp op;
      op.type = type;
      op.file_id = f;
      op.offset = offset;
      op.size = size;
      op.file_size = kFileBlocks * kBlock;
      execute_chain(sim, nfs.plan(op), [completed](SimTime) { ++*completed; });
    };
    issue(fsmodel::FsOpType::open, 0, 0);
    issue(fsmodel::FsOpType::read, block * kBlock, 1024);         // miss (thrashing)
    issue(fsmodel::FsOpType::read, block * kBlock + 1024, 1024);  // hit + read-ahead
    issue(fsmodel::FsOpType::read, block * kBlock + 1024, 512);   // hit, not sequential
    issue(fsmodel::FsOpType::write, block * kBlock, 6000);
    issue(fsmodel::FsOpType::write, block * kBlock + 6000, 4000);  // async flush
    issue(fsmodel::FsOpType::lseek, 0, 0);
    issue(fsmodel::FsOpType::close, 0, 0);  // flushes the dirty remainder
  }
  sim.run();
}

// The warm syscall pipeline allocates nothing: planning on a warm NfsModel
// (LRU caches at capacity, per-file maps populated) and running the chains
// through execute_chain (pooled chain states, inline continuations, the
// Resource ring queue) make zero heap allocations, misses, queueing and
// background chains included.
TEST(Pipeline, WarmNfsPlansAndChainsAllocateNothing) {
  Simulation sim;
  fsmodel::NfsModel nfs(sim);
  std::uint64_t completed = 0;
  // Warm-up: the caches fill past capacity and the access pattern settles
  // into its steady state, so every later round has the same shape.
  for (std::uint64_t round = 0; round < 130; ++round) nfs_round(sim, nfs, round, &completed);
  const std::uint64_t readaheads = nfs.readahead_count();
  const std::uint64_t server_misses = nfs.server_cache().misses();
  const std::uint64_t warm_completed = completed;

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t round = 130; round < 160; ++round) nfs_round(sim, nfs, round, &completed);
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(completed - warm_completed, 30u * 48u * 8u);
  // The measured rounds really exercised misses and read-ahead.
  EXPECT_GT(nfs.readahead_count(), readaheads);
  EXPECT_GT(nfs.server_cache().misses(), server_misses);
  EXPECT_EQ(nfs.client_cache().size(), nfs.client_cache().capacity());
}

// A log-free warm USIM run stays near allocation-free: what remains per op
// is session planning (file paths, new inodes, descriptor table nodes).
TEST(Pipeline, WarmUsimRunAllocatesUnderHalfPerOp) {
  Simulation sim;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&sim] { return sim.now(); });
  fsmodel::NfsModel nfs(sim);
  core::FscConfig fsc_config;
  fsc_config.num_users = 4;
  fsc_config.seed = 5;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();

  auto config_for = [](std::uint64_t seed) {
    core::UsimConfig config;
    config.num_users = 4;
    config.sessions_per_user = 20;
    config.seed = seed;
    config.collect_log = false;
    return config;
  };
  // Warm-up run: grows the event arena, chain pool and model caches.
  core::UserSimulator warm(sim, fsys, nfs, manifest, core::default_population(), config_for(1));
  warm.run();

  core::UserSimulator usim(sim, fsys, nfs, manifest, core::default_population(), config_for(2));
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  usim.run();
  const std::uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - before;
  ASSERT_GT(usim.total_ops(), 1000u);
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(usim.total_ops()), 0.5)
      << allocs << " allocations over " << usim.total_ops() << " ops";
}

// Captures above EventFn::kInlineCapacity take the heap fallback but must
// behave identically.
TEST(Simulation, LargeCaptureEventsStillRunCorrectly) {
  Simulation sim;
  struct Big {
    double payload[16];  // 128 bytes, well past the inline buffer
  };
  Big big{};
  big.payload[0] = 1.0;
  big.payload[15] = 2.0;
  double seen = 0.0;
  sim.schedule(1.0, [big, &seen] { seen = big.payload[0] + big.payload[15]; });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

TEST(Simulation, EventBudgetGuardsLivelock) {
  Simulation sim;
  std::function<void()> loop = [&] { sim.schedule(0.0, loop); };
  sim.schedule(0.0, loop);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(Resource, SingleServerSerializesRequests) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<double> completions;
  sim.schedule(0.0, [&] {
    disk.use(10.0, [&] { completions.push_back(sim.now()); });
    disk.use(10.0, [&] { completions.push_back(sim.now()); });
    disk.use(10.0, [&] { completions.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 10.0);
  EXPECT_DOUBLE_EQ(completions[1], 20.0);
  EXPECT_DOUBLE_EQ(completions[2], 30.0);
  EXPECT_EQ(disk.completed(), 3u);
}

TEST(Resource, MultiServerRunsInParallel) {
  Simulation sim;
  Resource cpu(sim, "cpu", 2);
  std::vector<double> completions;
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 4; ++i) {
      cpu.use(10.0, [&] { completions.push_back(sim.now()); });
    }
  });
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[0], 10.0);
  EXPECT_DOUBLE_EQ(completions[1], 10.0);
  EXPECT_DOUBLE_EQ(completions[2], 20.0);
  EXPECT_DOUBLE_EQ(completions[3], 20.0);
}

TEST(Resource, FcfsOrderPreserved) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<int> order;
  sim.schedule(0.0, [&] { disk.use(5.0, [&] { order.push_back(0); }); });
  sim.schedule(1.0, [&] { disk.use(5.0, [&] { order.push_back(1); }); });
  sim.schedule(2.0, [&] { disk.use(5.0, [&] { order.push_back(2); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, UtilizationFullWhenSaturated) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] {
    for (int i = 0; i < 10; ++i) disk.use(10.0, [] {});
  });
  sim.run();
  EXPECT_NEAR(disk.utilization(), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 100.0);
}

TEST(Resource, UtilizationHalfWhenIdleHalfTheTime) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] { disk.use(10.0, [] {}); });
  sim.schedule(20.0, [&] { disk.use(10.0, [] {}); });
  sim.run();  // busy [0,10] and [20,30] over elapsed 30
  EXPECT_NEAR(disk.utilization(), 20.0 / 30.0, 1e-9);
}

TEST(Resource, MeanQueueLengthAccounting) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] {
    disk.use(10.0, [] {});
    disk.use(10.0, [] {});  // waits [0,10]
  });
  sim.run();  // queue length 1 for 10 of 20 elapsed
  EXPECT_NEAR(disk.mean_queue_length(), 0.5, 1e-9);
}

TEST(Resource, ResetStatsClearsCounters) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  sim.schedule(0.0, [&] { disk.use(10.0, [] {}); });
  sim.run();
  disk.reset_stats();
  EXPECT_EQ(disk.completed(), 0u);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 0.0);
}

TEST(Resource, RejectsInvalidUse) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  EXPECT_THROW(disk.use(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(disk.use(1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(Resource(sim, "bad", 0), std::invalid_argument);
}

TEST(Stages, DelayChainAccumulates) {
  Simulation sim;
  double elapsed = -1.0;
  StageChain chain = {Stage::make_delay(5.0), Stage::make_delay(7.0)};
  EXPECT_DOUBLE_EQ(chain_service_demand(chain), 12.0);
  execute_chain(sim, chain, [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 12.0);
}

TEST(Stages, UseStageIncludesQueueing) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<double> elapsed;
  sim.schedule(0.0, [&] {
    execute_chain(sim, {Stage::make_use(disk, 10.0)},
                  [&](SimTime t) { elapsed.push_back(t); });
    execute_chain(sim, {Stage::make_use(disk, 10.0)},
                  [&](SimTime t) { elapsed.push_back(t); });
  });
  sim.run();
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_DOUBLE_EQ(elapsed[0], 10.0);  // no wait
  EXPECT_DOUBLE_EQ(elapsed[1], 20.0);  // waited 10 behind the first
}

TEST(Stages, MixedChainOrdering) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  double elapsed = -1.0;
  StageChain chain = {Stage::make_delay(3.0), Stage::make_use(disk, 4.0),
                      Stage::make_delay(2.0)};
  execute_chain(sim, chain, [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 9.0);
}

TEST(Stages, EmptyChainCompletesImmediately) {
  Simulation sim;
  double elapsed = -1.0;
  execute_chain(sim, {}, [&](SimTime t) { elapsed = t; });
  EXPECT_DOUBLE_EQ(elapsed, 0.0);  // synchronous: no stages to schedule
}

TEST(Stages, RejectsInvalidStages) {
  Simulation sim;
  EXPECT_THROW(Stage::make_delay(-1.0), std::invalid_argument);
  EXPECT_THROW(execute_chain(sim, {}, nullptr), std::invalid_argument);
}

TEST(Stages, ManyConcurrentChainsOnOneResource) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  int completed = 0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    execute_chain(sim, {Stage::make_use(disk, 1.0)}, [&](SimTime) { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_DOUBLE_EQ(sim.now(), static_cast<double>(n));
}


TEST(StageChain, InlineUpToEightStagesThenSpills) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  StageChain chain;
  for (int i = 0; i < 8; ++i) chain.push_back(Stage::make_delay(static_cast<double>(i)));
  EXPECT_FALSE(chain.spilled());
  chain.push_back(Stage::make_use(disk, 100.0));
  EXPECT_TRUE(chain.spilled());
  ASSERT_EQ(chain.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(chain[static_cast<std::size_t>(i)].duration, i);
  EXPECT_EQ(chain[8].resource, &disk);
  EXPECT_DOUBLE_EQ(chain_service_demand(chain), 28.0 + 100.0);
}

TEST(StageChain, CopyAndMoveKeepStagesInlineAndSpilled) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  for (const std::size_t n : {std::size_t{3}, std::size_t{19}}) {
    StageChain original;
    for (std::size_t i = 0; i < n; ++i) {
      original.push_back(i % 2 == 0 ? Stage::make_use(disk, static_cast<double>(i))
                                    : Stage::make_delay(static_cast<double>(i)));
    }
    auto same = [&](const StageChain& c) {
      ASSERT_EQ(c.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(c[i].kind, original[i].kind);
        EXPECT_EQ(c[i].resource, original[i].resource);
        EXPECT_DOUBLE_EQ(c[i].duration, original[i].duration);
      }
    };
    StageChain copy(original);
    same(copy);
    EXPECT_EQ(copy.spilled(), n > StageChain::kInlineCapacity);

    StageChain assigned = {Stage::make_delay(1.0)};
    assigned = original;
    same(assigned);

    StageChain moved(std::move(copy));
    same(moved);
    // A moved-from chain is empty and back on its inline storage.
    EXPECT_TRUE(copy.empty());     // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(copy.spilled());  // NOLINT(bugprone-use-after-move)

    // Move-assign over a spilled chain, then back over an inline one.
    StageChain target;
    for (int i = 0; i < 20; ++i) target.push_back(Stage::make_delay(1.0));
    target = std::move(moved);
    same(target);
    StageChain small = {Stage::make_delay(2.0)};
    target = std::move(small);
    ASSERT_EQ(target.size(), 1u);
    EXPECT_DOUBLE_EQ(target[0].duration, 2.0);

    // Range-for over a const chain.
    double total = 0.0;
    const StageChain& view = original;
    for (const Stage& stage : view) total += stage.duration;
    EXPECT_DOUBLE_EQ(total, chain_service_demand(original));
  }
}

// A 3-block cold NFS read is 1 + 3 x 6 = 19 stages: past the inline buffer,
// it must still run end to end with the uncontended response equal to its
// service demand.
TEST(StageChain, ColdThreeBlockNfsReadSpillsAndCompletes) {
  Simulation sim;
  fsmodel::NfsModel nfs(sim);
  fsmodel::FsOp op;
  op.type = fsmodel::FsOpType::read;
  op.file_id = 7;
  op.offset = 0;
  op.size = 3 * 8192;
  op.file_size = 1 << 20;
  StageChain chain = nfs.plan(op);
  ASSERT_EQ(chain.size(), 19u);
  EXPECT_TRUE(chain.spilled());
  const SimTime demand = chain_service_demand(chain);
  double elapsed = -1.0;
  execute_chain(sim, std::move(chain), [&](SimTime t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, demand);
}

// reset() with chains in flight: their pooled states (and the completions
// they hold) are reclaimed, and an identical second timeline reuses the
// pool without growing it.
TEST(StageChain, ResetReclaimsChainsInFlight) {
  Simulation sim;
  auto token = std::make_shared<int>(0);
  auto timeline = [&](std::vector<double>& done) {
    Resource disk(sim, "disk", 1);
    for (int i = 0; i < 12; ++i) {
      execute_chain(sim, {Stage::make_delay(1.0), Stage::make_use(disk, 10.0)},
                    [&done, &sim, token](SimTime) { done.push_back(sim.now()); });
    }
    sim.run_until(35.0);  // three finished, one in service, eight waiting
  };
  std::vector<double> first;
  timeline(first);
  EXPECT_EQ(first, (std::vector<double>{11.0, 21.0, 31.0}));
  const std::size_t pool = sim.chain_pool_size();
  EXPECT_EQ(pool, 12u);
  EXPECT_GT(token.use_count(), 1);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);  // discarded completions destroyed

  std::vector<double> second;
  timeline(second);
  EXPECT_EQ(second, first);
  EXPECT_EQ(sim.chain_pool_size(), pool);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(StageChain, ChainDoneRejectsEmptyCallables) {
  Simulation sim;
  std::function<void(SimTime)> empty_fn;
  EXPECT_THROW(execute_chain(sim, {}, empty_fn), std::invalid_argument);
  EXPECT_EQ(sim.chain_pool_size(), 0u);
}

// The FCFS ring queue keeps arrival order across growth and wrap-around.
TEST(Resource, WaitQueueWrapsAndGrowsInFcfsOrder) {
  Simulation sim;
  Resource disk(sim, "disk", 1);
  std::vector<int> order;
  int next_id = 0;
  // Batches of growing size arrive while earlier ones drain, so the ring
  // both wraps (head advanced) and grows while wrapped.
  for (int batch = 0; batch < 6; ++batch) {
    sim.schedule_at(static_cast<double>(batch) * 25.0, [&, batch] {
      for (int i = 0; i < 3 + 4 * batch; ++i) {
        const int id = next_id++;
        disk.use(10.0, [&order, id] { order.push_back(id); });
      }
    });
  }
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next_id));
  for (int i = 0; i < next_id; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(disk.queue_length(), 0u);
}

// --- callback relocation -------------------------------------------------

// A capture of pointers and scalars filling most of the inline buffer: the
// memcpy-relocated path (sim/callback.h).
struct PodCapture {
  std::vector<std::uint64_t>* out;
  std::uint64_t a;
  std::uint64_t b;
  std::uint32_t c;
  double d;
  void operator()() const { out->push_back(a + b + c + static_cast<std::uint64_t>(d)); }
};
static_assert(std::is_trivially_copyable_v<PodCapture>);
static_assert(sizeof(PodCapture) <= EventFn::kInlineCapacity);

TEST(Callback, TriviallyCopyableCaptureSurvivesRepeatedMoves) {
  std::vector<std::uint64_t> out;
  EventFn first = PodCapture{&out, 1, 2, 3, 4.0};
  EventFn second = std::move(first);
  EventFn third;
  third = std::move(second);
  EXPECT_FALSE(first);
  EXPECT_FALSE(second);
  third();
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10}));

  // schedule -> arena slot -> dispatch, many times over one warm arena, with
  // slots recycled while other events are still pending.
  Simulation sim;
  out.clear();
  for (std::uint64_t i = 0; i < 200; ++i) {
    sim.schedule(static_cast<double>(i % 7), PodCapture{&out, i, 1000, 7, 0.5});
  }
  sim.run();
  ASSERT_EQ(out.size(), 200u);
  std::vector<std::uint64_t> expected;
  for (std::uint64_t t = 0; t < 7; ++t) {
    for (std::uint64_t i = t; i < 200; i += 7) expected.push_back(i + 1007);
  }
  EXPECT_EQ(out, expected);

  // Resource queueing: 40 requests at once on one server grow and wrap the
  // FCFS ring, then each completion is moved into service and its event.
  Resource disk(sim, "disk", 1);
  out.clear();
  for (std::uint64_t i = 0; i < 40; ++i) disk.use(1.0, PodCapture{&out, i, 0, 0, 0.0});
  sim.run();
  ASSERT_EQ(out.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(out[i], i);
}

// Counts destructor runs of live (not moved-from) instances.
struct CountedCapture {
  int* destroyed;
  int* called;
  bool live = true;
  CountedCapture(int* d, int* c) : destroyed(d), called(c) {}
  CountedCapture(CountedCapture&& other) noexcept
      : destroyed(other.destroyed), called(other.called) {
    other.live = false;
  }
  CountedCapture(const CountedCapture&) = delete;
  ~CountedCapture() {
    if (live) ++*destroyed;
  }
  void operator()() const { ++*called; }
};
static_assert(!std::is_trivially_copyable_v<CountedCapture>);

TEST(Callback, NonTrivialCaptureIsDestroyedExactlyOnce) {
  int destroyed = 0;
  int called = 0;
  {
    EventFn fn = CountedCapture(&destroyed, &called);
    EventFn moved = std::move(fn);
    EXPECT_EQ(destroyed, 0);
    moved();
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(called, 1);

  Simulation sim;
  Resource disk(sim, "disk", 1);
  destroyed = called = 0;
  for (int i = 0; i < 10; ++i) sim.schedule(static_cast<double>(i), CountedCapture(&destroyed, &called));
  for (int i = 0; i < 10; ++i) disk.use(1.0, CountedCapture(&destroyed, &called));
  sim.run();
  EXPECT_EQ(called, 20);
  EXPECT_EQ(destroyed, 20);

  // A shared_ptr capture releases its reference exactly once, whether the
  // event runs or Simulation::reset() discards it.
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 6);
  sim.run();
  EXPECT_EQ(*token, 5);
  EXPECT_EQ(token.use_count(), 1);

  destroyed = called = 0;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [token] { ++*token; });
  for (int i = 0; i < 5; ++i) sim.schedule(2.0, CountedCapture(&destroyed, &called));
  EXPECT_EQ(token.use_count(), 6);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(destroyed, 5);
  EXPECT_EQ(called, 0);
  EXPECT_EQ(*token, 5);
}

}  // namespace
}  // namespace wlgen::sim
