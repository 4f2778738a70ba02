// Property-based and failure-injection tests: randomised sweeps checking
// invariants rather than specific values.

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fsmodel/flat_map.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/nfs_model.h"
#include "util/rng.h"

namespace wlgen {
namespace {

// ---------------------------------------------------------------------------
// LRU cache fuzz: compare against a trivially correct reference.
// ---------------------------------------------------------------------------

class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it == order_.end()) return false;
    order_.erase(it);
    order_.push_front(key);
    return true;
  }
  void insert(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it != order_.end()) order_.erase(it);
    order_.push_front(key);
    if (order_.size() > capacity_) order_.pop_back();
  }
  void erase(std::uint64_t key) {
    const auto it = std::find(order_.begin(), order_.end(), key);
    if (it != order_.end()) order_.erase(it);
  }
  bool contains(std::uint64_t key) const {
    return std::find(order_.begin(), order_.end(), key) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
};

class LruFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruFuzz, MatchesReferenceImplementation) {
  const std::size_t capacity = 1 + GetParam() % 13;
  fsmodel::LruCache cache(capacity);
  ReferenceLru reference(capacity);
  util::RngStream rng(GetParam(), "lru-fuzz");
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = static_cast<std::uint64_t>(rng.uniform_int(0, 25));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        EXPECT_EQ(cache.access(key), reference.access(key)) << "step " << step;
        break;
      case 1:
        cache.insert(key);
        reference.insert(key);
        break;
      case 2:
        cache.erase(key);
        reference.erase(key);
        break;
      default:
        EXPECT_EQ(cache.contains(key), reference.contains(key)) << "step " << step;
        break;
    }
    EXPECT_EQ(cache.size(), reference.size()) << "step " << step;
    EXPECT_LE(cache.size(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Flat LRU (node array + intrusive list + open-addressing index) against the
// classic std::list + std::map LRU it replaced: identical return values,
// hit/miss counts and sizes under a seeded mix of every operation, at the
// capacities the models use (1, 2, a small odd one, the NFS client cache).
// ---------------------------------------------------------------------------

class ListMapLru {
 public:
  explicit ListMapLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  bool insert(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    bool evicted = false;
    if (index_.size() >= capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
      evicted = true;
    }
    order_.push_front(key);
    index_.emplace(key, order_.begin());
    return evicted;
  }
  void erase(std::uint64_t key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return;
    order_.erase(it->second);
    index_.erase(it);
  }
  bool contains(std::uint64_t key) const { return index_.count(key) != 0; }
  void clear() {
    order_.clear();
    index_.clear();
  }
  std::size_t size() const { return index_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;  // most recent at front
  std::map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

struct FlatLruCase {
  std::size_t capacity;
  std::uint64_t seed;
};

class FlatLruProperty : public ::testing::TestWithParam<FlatLruCase> {};

TEST_P(FlatLruProperty, MatchesListMapReference) {
  const auto [capacity, seed] = GetParam();
  fsmodel::LruCache cache(capacity);
  ListMapLru reference(capacity);
  util::RngStream rng(seed, "flat-lru-property");
  // Keys shaped like the models' block keys (inode << 24 ^ block), over a
  // universe about twice the capacity so evictions and re-inserts are
  // frequent.
  const std::int64_t universe = static_cast<std::int64_t>(2 * capacity + 3);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t k = static_cast<std::uint64_t>(rng.uniform_int(0, universe - 1));
    const std::uint64_t key = ((k % 17 + 1) << 24) ^ (k / 17);
    const std::int64_t op = rng.uniform_int(0, 99);
    if (op < 35) {
      ASSERT_EQ(cache.access(key), reference.access(key)) << "step " << step;
    } else if (op < 75) {
      ASSERT_EQ(cache.insert(key), reference.insert(key)) << "step " << step;
    } else if (op < 87) {
      cache.erase(key);
      reference.erase(key);
    } else {
      ASSERT_EQ(cache.contains(key), reference.contains(key)) << "step " << step;
    }
    if (step % 7001 == 7000) {  // rare enough that the cache fills first
      cache.clear();
      reference.clear();
    }
    ASSERT_EQ(cache.size(), reference.size()) << "step " << step;
    ASSERT_EQ(cache.hits(), reference.hits()) << "step " << step;
    ASSERT_EQ(cache.misses(), reference.misses()) << "step " << step;
  }
  // Every resident key agrees at the end.
  for (std::int64_t k = 0; k < universe; ++k) {
    const std::uint64_t key =
        ((static_cast<std::uint64_t>(k) % 17 + 1) << 24) ^ (static_cast<std::uint64_t>(k) / 17);
    EXPECT_EQ(cache.contains(key), reference.contains(key)) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, FlatLruProperty,
                         ::testing::Values(FlatLruCase{1, 11}, FlatLruCase{2, 12},
                                           FlatLruCase{7, 13}, FlatLruCase{384, 14},
                                           FlatLruCase{384, 15}));

// The open-addressing map under the LRU index and the models' per-file
// state, against std::map: inserts, lookups and backward-shift erases over
// clustered keys (so probe runs are long and wrap the table).
TEST(FlatIdMapProperty, MatchesStdMap) {
  fsmodel::FlatIdMap<std::uint64_t> map;
  std::map<std::uint64_t, std::uint64_t> reference;
  util::RngStream rng(20261017, "flat-id-map");
  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t key = static_cast<std::uint64_t>(rng.uniform_int(0, 299)) << 24;
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 4) {
      const std::uint64_t value = static_cast<std::uint64_t>(step);
      map[key] = value;
      reference[key] = value;
    } else if (op < 7) {
      ASSERT_EQ(map.erase(key), reference.erase(key) != 0) << "step " << step;
    } else {
      const std::uint64_t* found = map.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "step " << step;
      }
    }
    ASSERT_EQ(map.size(), reference.size()) << "step " << step;
    if (step % 10007 == 10006) {
      map.clear();
      reference.clear();
    }
  }
  for (std::uint64_t k = 0; k < 300; ++k) {
    EXPECT_EQ(map.contains(k << 24), reference.count(k << 24) != 0) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// File-system fuzz against a size-tracking reference model.
// ---------------------------------------------------------------------------

class FsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsFuzz, SizesMatchReferenceModel) {
  fs::SimulatedFileSystem fsys;
  std::map<std::string, std::uint64_t> reference_sizes;
  std::map<std::string, fs::Fd> open_fds;
  util::RngStream rng(GetParam(), "fs-fuzz");

  for (int step = 0; step < 3000; ++step) {
    const std::string path = "/f" + std::to_string(rng.uniform_int(0, 9));
    switch (rng.uniform_int(0, 5)) {
      case 0: {  // creat (truncates)
        if (open_fds.count(path)) break;  // keep one fd per path for simplicity
        const auto fd = fsys.creat(path);
        ASSERT_TRUE(fd.ok());
        open_fds[path] = fd.value();
        reference_sizes[path] = 0;
        break;
      }
      case 1: {  // write at a random offset
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        const std::uint64_t offset = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
        const std::uint64_t count = static_cast<std::uint64_t>(rng.uniform_int(1, 2000));
        fsys.lseek(it->second, static_cast<std::int64_t>(offset), fs::Seek::set);
        ASSERT_TRUE(fsys.write(it->second, count).ok());
        reference_sizes[path] = std::max(reference_sizes[path], offset + count);
        break;
      }
      case 2: {  // read never changes size
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        fsys.lseek(it->second, 0, fs::Seek::set);
        const auto got = fsys.read(it->second, 10000);
        // creat() descriptors are write-only; both outcomes are legal, but a
        // successful read must return exactly the file size.
        if (got.ok()) {
          EXPECT_EQ(got.value(), reference_sizes[path]);
        }
        break;
      }
      case 3: {  // close
        const auto it = open_fds.find(path);
        if (it == open_fds.end()) break;
        EXPECT_EQ(fsys.close(it->second), fs::FsStatus::ok);
        open_fds.erase(it);
        break;
      }
      case 4: {  // unlink (closing first keeps this reference model simple;
                 // unlink-while-open has its own dedicated test in fs_test)
        const auto it = open_fds.find(path);
        if (it != open_fds.end()) {
          fsys.close(it->second);
          open_fds.erase(it);
        }
        const bool existed = reference_sizes.count(path) != 0;
        const fs::FsStatus status = fsys.unlink(path);
        EXPECT_EQ(status == fs::FsStatus::ok, existed);
        if (existed) reference_sizes.erase(path);
        break;
      }
      default: {  // stat agrees with the reference
        const auto st = fsys.stat(path);
        const auto it = reference_sizes.find(path);
        EXPECT_EQ(st.ok(), it != reference_sizes.end());
        if (st.ok() && it != reference_sizes.end()) {
          EXPECT_EQ(st.value().size, it->second);
        }
        break;
      }
    }
  }
  // Total accounting: bytes_in_use covers linked files plus open-but-unlinked
  // inodes; after closing everything, it equals the sum of linked sizes.
  for (const auto& [path, fd] : open_fds) fsys.close(fd);
  std::uint64_t expected_total = 0;
  for (const auto& [path, size] : reference_sizes) expected_total += size;
  EXPECT_EQ(fsys.bytes_in_use(), expected_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsFuzz, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// USIM under model parameter sweeps: structural invariants hold everywhere.
// ---------------------------------------------------------------------------

struct UsimSweepCase {
  std::string name;
  bool async_writes;
  std::size_t client_cache_blocks;
  std::uint64_t block_size;
};

class UsimSweep : public ::testing::TestWithParam<UsimSweepCase> {};

TEST_P(UsimSweep, InvariantsHoldAcrossModelConfigs) {
  const UsimSweepCase& param = GetParam();
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsParams params;
  params.async_writes = param.async_writes;
  params.client_cache_blocks = param.client_cache_blocks;
  params.block_size = param.block_size;
  fsmodel::NfsModel nfs(simulation, params);
  core::FscConfig fsc_config;
  fsc_config.num_users = 2;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig config;
  config.num_users = 2;
  config.sessions_per_user = 3;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::default_population(), config);
  usim.run();

  EXPECT_EQ(usim.sessions_completed(), 6u);
  EXPECT_EQ(usim.log().size(), usim.total_ops());
  EXPECT_EQ(fsys.open_descriptor_count(), 0u);
  for (const auto& r : usim.log().records()) {
    EXPECT_GE(r.response_us, 0.0);
    EXPECT_LE(r.actual_bytes, r.requested_bytes + 1);
  }
  const core::UsageAnalyzer analyzer(usim.log());
  EXPECT_GT(analyzer.response_per_byte_us(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, UsimSweep,
    ::testing::Values(UsimSweepCase{"default", true, 384, 8192},
                      UsimSweepCase{"sync_writes", false, 384, 8192},
                      UsimSweepCase{"tiny_cache", true, 4, 8192},
                      UsimSweepCase{"small_blocks", true, 384, 1024},
                      UsimSweepCase{"big_blocks_sync", false, 64, 32768}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Failure injection.
// ---------------------------------------------------------------------------

TEST(FailureInjection, UsimSurvivesFullDisk) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem::Options fs_options;
  fs_options.capacity_bytes = 2 * 1024 * 1024;  // 2 MiB: fills mid-run
  fs::SimulatedFileSystem fsys(fs_options);
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  fsc_config.files_per_user = 24;  // small enough for the FSC itself to fit
  fsc_config.system_files = 48;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig config;
  config.sessions_per_user = 10;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::default_population(), config);
  // The run must complete: ENOSPC writes stop file growth but never wedge a
  // session.
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 10u);
  EXPECT_EQ(fsys.open_descriptor_count(), 0u);
  EXPECT_LE(fsys.bytes_in_use(), fs_options.capacity_bytes);
}

TEST(FailureInjection, UsimSurvivesDescriptorStarvation) {
  sim::Simulation simulation;
  fs::SimulatedFileSystem::Options fs_options;
  fs_options.max_open_files = 6;  // far below a session's working set
  fs::SimulatedFileSystem fsys(fs_options);
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig config;
  config.sessions_per_user = 5;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::default_population(), config);
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 5u);
  EXPECT_EQ(fsys.open_descriptor_count(), 0u);
}

TEST(FailureInjection, FscReportsImpossibleConfiguration) {
  fs::SimulatedFileSystem::Options fs_options;
  fs_options.capacity_bytes = 10 * 1024;  // way too small for the FSC build
  fs::SimulatedFileSystem fsys(fs_options);
  core::FscConfig config;
  config.files_per_user = 200;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), config);
  EXPECT_THROW(fsc.create(), std::runtime_error);
}

}  // namespace
}  // namespace wlgen
