// Property-based and failure-injection tests: randomised sweeps checking
// invariants rather than specific values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/ext.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fs/path.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/nfs_model.h"
#include "runner/merge.h"
#include "runner/partition.h"
#include "stats/histogram.h"
#include "stats/summary.h"
#include "util/flat_map.h"
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
  util::FlatIdMap<std::uint64_t> map;
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
// Log merge: the loser-tree merge_user_logs against the concatenate +
// global stable_sort it replaced, byte for byte.
// ---------------------------------------------------------------------------

core::UsageLog reference_merge(const std::vector<core::UsageLog>& inputs) {
  core::UsageLog merged;
  auto& records = merged.records_mutable();
  for (const auto& log : inputs) {
    records.insert(records.end(), log.records().begin(), log.records().end());
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const core::OpRecord& a, const core::OpRecord& b) {
                     if (a.issue_time_us != b.issue_time_us) {
                       return a.issue_time_us < b.issue_time_us;
                     }
                     return a.user < b.user;
                   });
  return merged;
}

// Random inputs of five shapes: empty; one user in issue order; one user out
// of issue order; several users (a shard's pre-merged log, or an arbitrary
// jumble); users repeat across inputs.  Times come from a handful of values
// so cross-user ties and full (time, user) ties are common; every record's
// requested_bytes is a unique tag, so any reordering shows in the text.
std::vector<core::UsageLog> random_merge_inputs(std::size_t count, std::uint64_t seed) {
  util::RngStream rng(seed, "merge-property");
  std::vector<core::UsageLog> inputs(count);
  std::uint64_t tag = 0;
  const auto record = [&](std::uint32_t user, double time) {
    core::OpRecord r;
    r.issue_time_us = time;
    r.response_us = rng.uniform(0.0, 50.0);
    r.user = user;
    r.session = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    r.requested_bytes = tag++;
    return r;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t shape = rng.uniform_int(0, 4);
    const std::int64_t size = rng.uniform_int(0, 40);
    const auto user =
        static_cast<std::uint32_t>(rng.uniform_int(0, 2 * static_cast<std::int64_t>(count)));
    auto& records = inputs[i].records_mutable();
    if (shape == 0) continue;
    double time = 0.0;
    for (std::int64_t j = 0; j < size; ++j) {
      if (shape == 1) {  // one user, issue order, long runs of equal times
        time += 0.5 * static_cast<double>(rng.uniform_int(0, 1));
        records.push_back(record(user, time));
      } else if (shape == 2) {  // one user, completion order
        records.push_back(record(user, 0.5 * static_cast<double>(rng.uniform_int(0, 12))));
      } else if (shape == 3) {  // several users, sorted like a pre-merged shard
        records.push_back(record(user + static_cast<std::uint32_t>(rng.uniform_int(0, 3)),
                                 0.5 * static_cast<double>(rng.uniform_int(0, 12))));
      } else {  // several users, no order at all
        records.push_back(record(static_cast<std::uint32_t>(rng.uniform_int(0, 5)),
                                 0.5 * static_cast<double>(rng.uniform_int(0, 12))));
      }
    }
    if (shape == 3) inputs[i] = reference_merge({inputs[i]});
  }
  return inputs;
}

struct MergeCase {
  std::size_t inputs;
  std::uint64_t seed;
};

class MergeProperty : public ::testing::TestWithParam<MergeCase> {};

TEST_P(MergeProperty, MatchesConcatenateAndStableSortByteForByte) {
  const auto [count, seed] = GetParam();
  std::vector<core::UsageLog> inputs = random_merge_inputs(count, seed);
  const std::string expected = reference_merge(inputs).serialize();
  const core::UsageLog merged = runner::merge_user_logs(std::move(inputs));
  EXPECT_EQ(merged.serialize(), expected);
  EXPECT_TRUE(runner::is_merge_ordered(merged));
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, MergeProperty,
    ::testing::Values(MergeCase{0, 1}, MergeCase{1, 2}, MergeCase{1, 3}, MergeCase{2, 4},
                      MergeCase{7, 5}, MergeCase{64, 6}, MergeCase{257, 7},
                      MergeCase{257, 8}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.inputs) + "_seed" + std::to_string(info.param.seed);
    });

// The runner's two-level merge (each shard merges its users, then the shard
// logs merge) against the flat one-level merge over the same per-user logs.
TEST(MergeProperty, ShardPreMergeEqualsFlatMerge) {
  util::RngStream rng(4242, "merge-two-level");
  std::vector<core::UsageLog> per_user(23);
  for (std::uint32_t u = 0; u < per_user.size(); ++u) {
    for (int j = 0; j < 30; ++j) {
      core::OpRecord r;
      r.issue_time_us = static_cast<double>(rng.uniform_int(0, 9));  // completion order
      r.user = u;
      r.requested_bytes = u * 100u + static_cast<std::uint32_t>(j);
      per_user[u].append(r);
    }
  }
  const std::string expected = reference_merge(per_user).serialize();
  for (std::size_t shards : {1u, 4u, 23u}) {
    std::vector<core::UsageLog> shard_logs;
    for (const runner::UserRange& range : runner::partition_users(per_user.size(), shards)) {
      std::vector<core::UsageLog> users(
          per_user.begin() + static_cast<std::ptrdiff_t>(range.begin),
          per_user.begin() + static_cast<std::ptrdiff_t>(range.end));
      shard_logs.push_back(runner::merge_user_logs(std::move(users)));
    }
    EXPECT_EQ(runner::merge_user_logs(std::move(shard_logs)).serialize(), expected)
        << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// Usage analyzer: the flat single pass against the ordered-map analyzer it
// replaced, compared as exact doubles on every output.
// ---------------------------------------------------------------------------

// The std::map-based analyzer, verbatim in its arithmetic and fold orders.
struct ReferenceAnalysis {
  struct Touch {
    std::uint64_t bytes = 0;
    std::uint64_t file_size = 0;
    core::FileCategory category;
  };
  using Key = std::pair<std::uint32_t, std::uint32_t>;

  std::vector<core::SessionSummary> sessions;
  std::map<Key, std::map<std::uint64_t, Touch>> touches;
  std::size_t op_count = 0;
  stats::RunningSummary access_size;
  stats::RunningSummary response;
  stats::RunningSummary data_response;
  std::map<fsmodel::FsOpType, core::OpTypeStats> per_op;
  double response_sum_us = 0.0;
  double data_bytes = 0.0;

  explicit ReferenceAnalysis(const core::UsageLog& log) {
    struct Acc {
      double start = 0.0;
      double end = 0.0;
      std::uint64_t ops = 0;
      std::uint64_t bytes = 0;
      bool first = true;
    };
    std::map<Key, Acc> acc;
    for (const core::OpRecord& r : log.records()) {
      ++op_count;
      response.add(r.response_us);
      response_sum_us += r.response_us;
      auto& op_stats = per_op[r.op];
      op_stats.response_us.add(r.response_us);
      if (fsmodel::is_data_op(r.op)) {
        access_size.add(static_cast<double>(r.actual_bytes));
        data_response.add(r.response_us);
        op_stats.access_size.add(static_cast<double>(r.actual_bytes));
        data_bytes += static_cast<double>(r.actual_bytes);
      }
      const Key key{r.user, r.session};
      auto& a = acc[key];
      if (a.first) {
        a.start = r.issue_time_us;
        a.first = false;
      }
      a.start = std::min(a.start, r.issue_time_us);
      a.end = std::max(a.end, r.issue_time_us + r.response_us);
      ++a.ops;
      if (fsmodel::is_data_op(r.op)) {
        a.bytes += r.actual_bytes;
        auto& touch = touches[key][r.file_id];
        touch.bytes += r.actual_bytes;
        touch.file_size = std::max(touch.file_size, r.file_size);
        touch.category = r.category;
      } else if (r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
        auto& touch = touches[key][r.file_id];
        touch.file_size = std::max(touch.file_size, r.file_size);
        touch.category = r.category;
      }
    }
    for (const auto& [key, a] : acc) {
      core::SessionSummary s;
      s.user = key.first;
      s.session = key.second;
      s.start_us = a.start;
      s.end_us = a.end;
      s.ops = a.ops;
      s.bytes_accessed = a.bytes;
      const auto touched = touches.find(key);
      if (touched != touches.end()) {
        s.files_referenced = touched->second.size();
        for (const auto& [file, t] : touched->second) {
          s.total_file_bytes += static_cast<double>(t.file_size);
        }
        if (s.files_referenced > 0) {
          s.mean_file_size = s.total_file_bytes / static_cast<double>(s.files_referenced);
        }
        if (s.total_file_bytes > 0.0) {
          s.access_per_byte = static_cast<double>(s.bytes_accessed) / s.total_file_bytes;
        }
      }
      sessions.push_back(s);
    }
  }

  std::map<std::string, core::CategoryUsage> per_category_usage() const {
    std::map<std::string, core::CategoryUsage> out;
    std::map<std::string, std::size_t> sessions_touching;
    for (const auto& [key, files] : touches) {
      std::map<std::string, std::size_t> files_in_category;
      for (const auto& [file, t] : files) {
        const std::string label = t.category.label();
        auto& usage = out[label];
        if (t.file_size > 0) {
          usage.access_per_byte.add(static_cast<double>(t.bytes) /
                                    static_cast<double>(t.file_size));
          usage.file_size.add(static_cast<double>(t.file_size));
        }
        ++files_in_category[label];
      }
      for (const auto& [label, count] : files_in_category) {
        out[label].files_per_session.add(static_cast<double>(count));
        ++sessions_touching[label];
      }
    }
    const double total_sessions = static_cast<double>(touches.size());
    if (total_sessions > 0.0) {
      for (auto& [label, usage] : out) {
        usage.fraction_sessions_touching =
            static_cast<double>(sessions_touching[label]) / total_sessions;
      }
    }
    return out;
  }

  stats::Histogram histogram(double core::SessionSummary::*field, bool referenced_only,
                             std::size_t bins) const {
    std::vector<double> values;
    for (const auto& s : sessions) {
      if (!referenced_only || s.files_referenced > 0) values.push_back(s.*field);
    }
    if (values.empty()) return stats::Histogram(0.0, 1.0, bins);
    return stats::Histogram::from_data(values, bins);
  }
};

// Exact equality including the sign of zero (and NaN payloads).
void expect_same_double(double a, double b, const std::string& what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << ": " << a << " vs " << b;
}

void expect_same_summary(const stats::RunningSummary& a, const stats::RunningSummary& b,
                         const std::string& what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  if (a.count() == 0) return;
  expect_same_double(a.mean(), b.mean(), what + " mean");
  expect_same_double(a.variance(), b.variance(), what + " variance");
  expect_same_double(a.min(), b.min(), what + " min");
  expect_same_double(a.max(), b.max(), what + " max");
}

void expect_same_histogram(const stats::Histogram& a, const stats::Histogram& b,
                           const std::string& what) {
  expect_same_double(a.low(), b.low(), what + " low");
  expect_same_double(a.high(), b.high(), what + " high");
  EXPECT_EQ(a.total(), b.total()) << what;
  ASSERT_EQ(a.counts().size(), b.counts().size()) << what;
  for (std::size_t i = 0; i < a.counts().size(); ++i) {
    expect_same_double(a.counts()[i], b.counts()[i], what + " bin " + std::to_string(i));
  }
}

// Interleaved users and sessions, every op type (open/creat often with no
// data op after them), zero-size files, a small file-id pool so files recur
// across sessions and users, and issue times in no particular order.
core::UsageLog random_analyzer_log(std::uint64_t seed, std::size_t records) {
  util::RngStream rng(seed, "analyzer-property");
  core::UsageLog log;
  for (std::size_t i = 0; i < records; ++i) {
    core::OpRecord r;
    r.issue_time_us = rng.uniform(0.0, 1e6);
    if (rng.uniform_int(0, 9) == 0) r.issue_time_us = std::floor(r.issue_time_us / 1e5);
    r.response_us = rng.uniform(0.0, 2e4);
    r.user = static_cast<std::uint32_t>(rng.uniform_int(0, 6));
    r.session = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
    r.op = static_cast<fsmodel::FsOpType>(
        rng.uniform_int(0, static_cast<std::int64_t>(fsmodel::kFsOpTypeCount) - 1));
    r.requested_bytes = static_cast<std::uint64_t>(rng.uniform_int(0, 8192));
    r.actual_bytes = rng.uniform_int(0, 4) == 0 ? 0 : r.requested_bytes / 2;
    r.file_id = static_cast<std::uint64_t>(rng.uniform_int(1, 24)) << 20;
    r.file_size =
        rng.uniform_int(0, 3) == 0 ? 0 : static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    r.category.file_type = static_cast<core::FileType>(rng.uniform_int(0, 1));
    r.category.owner = static_cast<core::FileOwner>(rng.uniform_int(0, 2));
    r.category.use = static_cast<core::UseMode>(rng.uniform_int(0, 3));
    log.append(r);
  }
  return log;
}

class AnalyzerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerProperty, FlatPassMatchesOrderedMapReferenceExactly) {
  const std::size_t records = GetParam() == 1 ? 0 : 200 * GetParam();
  const core::UsageLog log = random_analyzer_log(GetParam(), records);
  const core::UsageAnalyzer analyzer(log);
  const ReferenceAnalysis reference(log);

  EXPECT_EQ(analyzer.op_count(), reference.op_count);
  ASSERT_EQ(analyzer.sessions().size(), reference.sessions.size());
  for (std::size_t i = 0; i < reference.sessions.size(); ++i) {
    const core::SessionSummary& a = analyzer.sessions()[i];
    const core::SessionSummary& b = reference.sessions[i];
    const std::string where = "session " + std::to_string(i);
    EXPECT_EQ(a.user, b.user) << where;
    EXPECT_EQ(a.session, b.session) << where;
    expect_same_double(a.start_us, b.start_us, where + " start");
    expect_same_double(a.end_us, b.end_us, where + " end");
    EXPECT_EQ(a.ops, b.ops) << where;
    EXPECT_EQ(a.bytes_accessed, b.bytes_accessed) << where;
    EXPECT_EQ(a.files_referenced, b.files_referenced) << where;
    expect_same_double(a.total_file_bytes, b.total_file_bytes, where + " total_file_bytes");
    expect_same_double(a.mean_file_size, b.mean_file_size, where + " mean_file_size");
    expect_same_double(a.access_per_byte, b.access_per_byte, where + " access_per_byte");
  }

  expect_same_summary(analyzer.access_size_stats(), reference.access_size, "access size");
  expect_same_summary(analyzer.response_stats(), reference.response, "response");
  expect_same_summary(analyzer.data_response_stats(), reference.data_response, "data response");
  expect_same_double(analyzer.response_per_byte_us(),
                     reference.data_bytes > 0.0 ? reference.response_sum_us / reference.data_bytes
                                                : 0.0,
                     "response per byte");

  ASSERT_EQ(analyzer.per_op_stats().size(), reference.per_op.size());
  for (const auto& [op, expected] : reference.per_op) {
    const auto it = analyzer.per_op_stats().find(op);
    ASSERT_NE(it, analyzer.per_op_stats().end()) << fsmodel::to_string(op);
    expect_same_summary(it->second.access_size, expected.access_size,
                        std::string(fsmodel::to_string(op)) + " access size");
    expect_same_summary(it->second.response_us, expected.response_us,
                        std::string(fsmodel::to_string(op)) + " response");
  }

  const auto usage = analyzer.per_category_usage();
  const auto expected_usage = reference.per_category_usage();
  ASSERT_EQ(usage.size(), expected_usage.size());
  for (const auto& [label, expected] : expected_usage) {
    const auto it = usage.find(label);
    ASSERT_NE(it, usage.end()) << label;
    expect_same_summary(it->second.access_per_byte, expected.access_per_byte, label + " apb");
    expect_same_summary(it->second.file_size, expected.file_size, label + " file size");
    expect_same_summary(it->second.files_per_session, expected.files_per_session,
                        label + " files per session");
    expect_same_double(it->second.fraction_sessions_touching,
                       expected.fraction_sessions_touching, label + " fraction");
  }

  for (std::size_t bins : {7u, 30u}) {
    expect_same_histogram(analyzer.session_access_per_byte_histogram(bins),
                          reference.histogram(&core::SessionSummary::access_per_byte, true, bins),
                          "access-per-byte histogram");
    expect_same_histogram(analyzer.session_file_size_histogram(bins),
                          reference.histogram(&core::SessionSummary::mean_file_size, true, bins),
                          "file-size histogram");
    std::vector<double> files;
    for (const auto& s : reference.sessions) {
      files.push_back(static_cast<double>(s.files_referenced));
    }
    expect_same_histogram(analyzer.session_files_histogram(bins),
                          files.empty() ? stats::Histogram(0.0, 1.0, bins)
                                        : stats::Histogram::from_data(files, bins),
                          "files histogram");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerProperty, ::testing::Values(1, 2, 3, 5, 8, 13, 21));

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
// FSC equivalence: the handle-based build against the path-based build it
// replaced, kept here as the reference.
// ---------------------------------------------------------------------------

// The former FileSystemCreator::create(): mkdir_recursive per directory and
// creat + write + close + stat(path) per file, through the path API.
core::CreatedFileSystem reference_fsc_create(fs::SimulatedFileSystem& fsys,
                                             const std::vector<core::FileCategoryProfile>& profiles,
                                             const core::FscConfig& config) {
  using core::CreatedFile;
  using core::CreatedFileSystem;
  const auto require_ok = [](fs::FsStatus status, const std::string& what) {
    if (status != fs::FsStatus::ok) {
      throw std::runtime_error("FileSystemCreator: " + what + " failed: " +
                               fs::to_string(status));
    }
  };
  const auto sample_size = [](const core::FileCategoryProfile& profile, util::RngStream& rng) {
    const double v = profile.size_dist->sample(rng);
    return static_cast<std::uint64_t>(std::max(1.0, std::llround(v) * 1.0));
  };
  const auto file_name = [](const core::FileCategory& category, std::size_t ordinal) {
    std::string name = category.label();
    for (auto& c : name) {
      if (c == '/' || c == '-') c = '_';
    }
    std::string lowered;
    for (char c : name) lowered += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return lowered + "_" + std::to_string(ordinal);
  };
  CreatedFileSystem out;
  out.set_user_count(config.first_user + config.num_users);
  const auto create_regular = [&](const core::FileCategoryProfile& profile,
                                  const std::string& dir, std::size_t owner_user,
                                  std::size_t ordinal, util::RngStream& rng) {
    const std::string path = dir + "/" + file_name(profile.category, ordinal);
    const std::uint64_t size = sample_size(profile, rng);
    const auto fd = fsys.creat(path);
    if (!fd.ok()) {
      throw std::runtime_error("FileSystemCreator: creat(" + path + ") failed: " +
                               fs::to_string(fd.status()));
    }
    const auto wrote = fsys.write(fd.value(), size);
    if (!wrote.ok()) {
      throw std::runtime_error("FileSystemCreator: populate(" + path + ") failed: " +
                               fs::to_string(wrote.status()));
    }
    require_ok(fsys.close(fd.value()), "close(" + path + ")");
    CreatedFile file;
    file.path = path;
    file.category = profile.category;
    file.size = size;
    file.owner_user = owner_user;
    file.inode = fsys.stat(path).value().inode;
    out.add_file(std::move(file));
  };

  util::RngStream system_rng(config.seed, "fsc/system");
  require_ok(fsys.mkdir_recursive(CreatedFileSystem::system_dir()), "mkdir /system");
  require_ok(fsys.mkdir_recursive("/users"), "mkdir /users");
  std::vector<const core::FileCategoryProfile*> user_profiles, notes_profiles, other_profiles;
  for (const auto& p : profiles) {
    if (p.category.file_type != core::FileType::regular) continue;
    switch (p.category.owner) {
      case core::FileOwner::user: user_profiles.push_back(&p); break;
      case core::FileOwner::notes: notes_profiles.push_back(&p); break;
      case core::FileOwner::other: other_profiles.push_back(&p); break;
    }
  }
  const std::size_t notes_dirs = std::max<std::size_t>(1, config.system_subdirs / 2);
  const std::size_t other_dirs = std::max<std::size_t>(1, config.system_subdirs - notes_dirs);
  std::vector<std::string> notes_paths, other_paths;
  for (std::size_t i = 0; i < notes_dirs; ++i) {
    const std::string dir = CreatedFileSystem::system_dir() + "/notes" + std::to_string(i);
    require_ok(fsys.mkdir_recursive(dir), "mkdir " + dir);
    notes_paths.push_back(dir);
  }
  for (std::size_t i = 0; i < other_dirs; ++i) {
    const std::string dir = CreatedFileSystem::system_dir() + "/other" + std::to_string(i);
    require_ok(fsys.mkdir_recursive(dir), "mkdir " + dir);
    other_paths.push_back(dir);
  }
  const auto create_system = [&](const std::vector<const core::FileCategoryProfile*>& group,
                                 const std::vector<std::string>& dirs, std::size_t count) {
    if (group.empty() || dirs.empty()) return;
    std::vector<double> weights;
    for (const auto* p : group) weights.push_back(std::max(p->fraction_of_files, 1e-9));
    std::vector<std::size_t> ordinal(group.size(), 0);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t pick = system_rng.categorical(weights);
      const auto& dir = dirs[static_cast<std::size_t>(
          system_rng.uniform_int(0, static_cast<std::int64_t>(dirs.size()) - 1))];
      create_regular(*group[pick], dir, CreatedFile::kSystemOwner, ordinal[pick]++, system_rng);
    }
  };
  double notes_frac = 0.0, other_frac = 0.0;
  for (const auto* p : notes_profiles) notes_frac += p->fraction_of_files;
  for (const auto* p : other_profiles) other_frac += p->fraction_of_files;
  const double system_total = std::max(notes_frac + other_frac, 1e-9);
  const std::size_t notes_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(config.system_files) * notes_frac / system_total));
  create_system(notes_profiles, notes_paths, notes_count);
  create_system(other_profiles, other_paths, config.system_files - notes_count);

  const std::size_t user_end = config.first_user + config.num_users;
  for (std::size_t user = config.first_user; user < user_end; ++user) {
    util::RngStream user_rng(config.seed, "fsc/user/" + std::to_string(user));
    const std::string home = CreatedFileSystem::user_dir(user);
    require_ok(fsys.mkdir_recursive(home), "mkdir " + home);
    std::vector<std::string> dirs = {home};
    for (std::size_t i = 0; i < config.user_subdirs; ++i) {
      const std::string dir = home + "/d" + std::to_string(i);
      require_ok(fsys.mkdir_recursive(dir), "mkdir " + dir);
      dirs.push_back(dir);
    }
    if (user_profiles.empty()) continue;
    std::vector<double> weights;
    for (const auto* p : user_profiles) weights.push_back(std::max(p->fraction_of_files, 1e-9));
    std::vector<std::size_t> ordinal(user_profiles.size(), 0);
    for (std::size_t i = 0; i < config.files_per_user; ++i) {
      const std::size_t pick = user_rng.categorical(weights);
      const auto& dir = dirs[static_cast<std::size_t>(
          user_rng.uniform_int(0, static_cast<std::int64_t>(dirs.size()) - 1))];
      create_regular(*user_profiles[pick], dir, user, ordinal[pick]++, user_rng);
    }
  }

  const auto add_dir = [&](const std::string& path, core::FileOwner owner,
                           std::size_t owner_user) {
    const auto st = fsys.stat(path);
    if (!st.ok()) return;
    CreatedFile file;
    file.path = path;
    file.category = core::FileCategory{core::FileType::directory, owner, core::UseMode::read_only};
    file.size = st.value().size;
    file.inode = st.value().inode;
    file.owner_user = owner_user;
    out.add_file(std::move(file));
  };
  add_dir(CreatedFileSystem::system_dir(), core::FileOwner::other, CreatedFile::kSystemOwner);
  add_dir("/users", core::FileOwner::other, CreatedFile::kSystemOwner);
  for (const auto& dir : notes_paths) {
    add_dir(dir, core::FileOwner::other, CreatedFile::kSystemOwner);
  }
  for (const auto& dir : other_paths) {
    add_dir(dir, core::FileOwner::other, CreatedFile::kSystemOwner);
  }
  for (std::size_t user = config.first_user; user < user_end; ++user) {
    add_dir(CreatedFileSystem::user_dir(user), core::FileOwner::user, user);
    for (std::size_t i = 0; i < config.user_subdirs; ++i) {
      add_dir(CreatedFileSystem::user_dir(user) + "/d" + std::to_string(i), core::FileOwner::user,
              user);
    }
  }
  return out;
}

void expect_same_stat(const fs::FileStat& a, const fs::FileStat& b, const std::string& where) {
  EXPECT_EQ(a.inode, b.inode) << where;
  EXPECT_EQ(a.kind, b.kind) << where;
  EXPECT_EQ(a.size, b.size) << where;
  EXPECT_EQ(a.link_count, b.link_count) << where;
  EXPECT_EQ(a.read_ops, b.read_ops) << where;
  EXPECT_EQ(a.write_ops, b.write_ops) << where;
  EXPECT_EQ(a.bytes_read, b.bytes_read) << where;
  EXPECT_EQ(a.bytes_written, b.bytes_written) << where;
  EXPECT_EQ(a.created_at, b.created_at) << where;
  EXPECT_EQ(a.modified_at, b.modified_at) << where;
  EXPECT_EQ(a.accessed_at, b.accessed_at) << where;
}

/// Walks both trees from `path` down, comparing every entry's stat and
/// every directory's listing; returns the number of entries visited.
std::size_t expect_same_tree(const fs::SimulatedFileSystem& a, const fs::SimulatedFileSystem& b,
                             const std::string& path) {
  const auto sa = a.stat(path);
  const auto sb = b.stat(path);
  EXPECT_EQ(sa.status(), sb.status()) << path;
  if (!sa.ok() || !sb.ok()) return 0;
  expect_same_stat(sa.value(), sb.value(), path);
  std::size_t visited = 1;
  if (sa.value().kind != fs::FileKind::directory) return visited;
  const auto la = a.readdir(path);
  const auto lb = b.readdir(path);
  EXPECT_EQ(la.value(), lb.value()) << path;
  for (const std::string& name : la.value()) {
    visited += expect_same_tree(a, b, path == "/" ? "/" + name : path + "/" + name);
  }
  return visited;
}

struct FscCase {
  std::uint64_t seed;
  std::size_t first_user;
  std::size_t num_users;
  std::size_t files_per_user;
  std::size_t system_files;
  std::size_t system_subdirs;
};

std::string describe(const FscCase& c) {
  return "seed " + std::to_string(c.seed) + " first_user " + std::to_string(c.first_user) +
         " users " + std::to_string(c.num_users) + " files/user " +
         std::to_string(c.files_per_user) + " system " + std::to_string(c.system_files) +
         " system dirs " + std::to_string(c.system_subdirs);
}

void expect_fsc_matches_reference(const FscCase& c) {
  SCOPED_TRACE(describe(c));
  const auto profiles = core::di86_file_profiles();
  core::FscConfig config;
  config.seed = c.seed;
  config.first_user = c.first_user;
  config.num_users = c.num_users;
  config.files_per_user = c.files_per_user;
  config.system_files = c.system_files;
  config.system_subdirs = c.system_subdirs;
  // A clock that moves with every reading makes the timestamps order-sensitive.
  double ticks_a = 0.0, ticks_b = 0.0;
  fs::SimulatedFileSystem built, reference;
  built.set_clock([&ticks_a] { return ticks_a += 0.5; });
  reference.set_clock([&ticks_b] { return ticks_b += 0.5; });
  core::FileSystemCreator fsc(built, profiles, config);
  const core::CreatedFileSystem manifest = fsc.create();
  const core::CreatedFileSystem expected = reference_fsc_create(reference, profiles, config);

  ASSERT_EQ(manifest.file_count(), expected.file_count());
  EXPECT_EQ(manifest.user_count(), expected.user_count());
  for (std::size_t i = 0; i < manifest.file_count(); ++i) {
    const core::CreatedFile& got = manifest.files()[i];
    const core::CreatedFile& want = expected.files()[i];
    EXPECT_EQ(got.path, want.path) << "file " << i;
    EXPECT_EQ(got.category, want.category) << "file " << i;
    EXPECT_EQ(got.size, want.size) << "file " << i;
    EXPECT_EQ(got.inode, want.inode) << "file " << i;
    EXPECT_EQ(got.owner_user, want.owner_user) << "file " << i;
  }
  // Every pool, against one rebuilt from the manifest by a std::map.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>> pools;
  for (std::size_t i = 0; i < expected.file_count(); ++i) {
    const core::CreatedFile& f = expected.files()[i];
    pools[{f.category.index(), f.owner_user}].push_back(i);
  }
  for (int type = 0; type < 2; ++type) {
    for (int owner = 0; owner < 3; ++owner) {
      for (int use = 0; use < 4; ++use) {
        const core::FileCategory category{static_cast<core::FileType>(type),
                                          static_cast<core::FileOwner>(owner),
                                          static_cast<core::UseMode>(use)};
        for (std::size_t user = 0; user < c.first_user + c.num_users + 1; ++user) {
          const std::size_t key_owner = category.owner == core::FileOwner::user
                                            ? user
                                            : core::CreatedFile::kSystemOwner;
          const auto it = pools.find({category.index(), key_owner});
          const std::vector<std::size_t> want =
              it == pools.end() ? std::vector<std::size_t>{} : it->second;
          EXPECT_EQ(manifest.pool(category, user), want) << category.label() << " user " << user;
          EXPECT_EQ(expected.pool(category, user), want) << category.label() << " user " << user;
        }
      }
    }
  }
  EXPECT_EQ(expect_same_tree(built, reference, "/"), built.inode_count());
  EXPECT_EQ(built.bytes_in_use(), reference.bytes_in_use());
  EXPECT_EQ(built.inode_count(), reference.inode_count());
  EXPECT_EQ(built.open_descriptor_count(), 0u);
  EXPECT_EQ(ticks_a, ticks_b);
  // The next inode id and descriptor number match too.
  const auto fd_a = built.creat("/probe");
  const auto fd_b = reference.creat("/probe");
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(fd_b.ok());
  EXPECT_EQ(fd_a.value(), fd_b.value());
  EXPECT_EQ(built.fstat(fd_a.value()).value().inode, reference.fstat(fd_b.value()).value().inode);
}

class FscEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FscEquivalence, HandleBuildMatchesPathBuildExactly) {
  const std::uint64_t seed = GetParam();
  const std::size_t first_users[] = {0, 5, 4093};
  for (std::size_t fu = 0; fu < 3; ++fu) {
    for (std::size_t users : {1u, 3u, 16u}) {
      for (std::size_t files : {0u, 1u, 64u}) {
        for (std::size_t system : {0u, 256u}) {
          expect_fsc_matches_reference(
              FscCase{seed, first_users[(fu + seed) % 3], users, files, system, 4});
        }
      }
    }
  }
  // Uneven and minimal system trees.
  expect_fsc_matches_reference(FscCase{seed, 2, 3, 64, 256, 1});
  expect_fsc_matches_reference(FscCase{seed, 0, 1, 64, 256, 7});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FscEquivalence, ::testing::Values(1991, 7, 4242));

TEST(FscEquivalence, CapacityFailureMatchesReference) {
  const auto profiles = core::di86_file_profiles();
  for (const std::uint64_t capacity : {1u, 4096u, 40000u}) {
    fs::SimulatedFileSystem::Options options;
    options.capacity_bytes = capacity;
    core::FscConfig config;
    config.files_per_user = 200;
    fs::SimulatedFileSystem built(options), reference(options);
    std::string got, want;
    try {
      core::FileSystemCreator(built, profiles, config).create();
    } catch (const std::runtime_error& e) {
      got = e.what();
    }
    try {
      reference_fsc_create(reference, profiles, config);
    } catch (const std::runtime_error& e) {
      want = e.what();
    }
    EXPECT_FALSE(want.empty()) << "capacity " << capacity;
    EXPECT_EQ(got, want) << "capacity " << capacity;
    EXPECT_EQ(built.bytes_in_use(), reference.bytes_in_use()) << "capacity " << capacity;
    EXPECT_EQ(built.inode_count(), reference.inode_count()) << "capacity " << capacity;
  }
}

// ---------------------------------------------------------------------------
// Namespace property: one op sequence driven by path on one file system and
// by handle on another.
// ---------------------------------------------------------------------------

/// The handle side's path walk: one lookup() per component from the root.
/// A failed step returns a handle the next handle call rejects with the
/// status the path call gives: the regular file it stopped at
/// (not_a_directory) or 0, which is never an inode (not_found).
fs::InodeId walk_by_lookup(const fs::SimulatedFileSystem& fsys, const std::string& dir) {
  std::vector<std::string> parts;
  fs::split_path(dir, parts);
  fs::InodeId current = 1;
  for (const std::string& part : parts) {
    const auto next = fsys.lookup(current, part);
    if (!next.ok()) return next.status() == fs::FsStatus::not_a_directory ? current : 0;
    current = next.value();
  }
  return current;
}

class NamespaceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NamespaceProperty, PathAndHandleDriversAgree) {
  fs::SimulatedFileSystem::Options options;
  options.max_open_files = 4;      // so too_many_open_files occurs
  options.capacity_bytes = 12000;  // and no_space
  fs::SimulatedFileSystem by_path(options), by_handle(options);
  double now = 0.0;
  by_path.set_clock([&now] { return now; });
  by_handle.set_clock([&now] { return now; });
  util::RngStream rng(GetParam(), "namespace-property");

  const std::vector<std::string> dirs = {"/", "/a", "/b", "/a/c", "/b/a", "/f", "/a/f"};
  const std::vector<std::string> leaves = {"a", "b", "c", "f", "g"};
  const auto pick = [&rng](const std::vector<std::string>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  const auto join = [](const std::string& dir, const std::string& leaf) {
    return dir == "/" ? "/" + leaf : dir + "/" + leaf;
  };
  std::vector<fs::Fd> fds;  // identical on both sides
  fs::InodeId max_id = 1;

  const auto compare_state = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    for (fs::InodeId id = 0; id <= max_id + 2; ++id) {
      const auto a = by_path.stat(id);
      const auto b = by_handle.stat(id);
      ASSERT_EQ(a.status(), b.status()) << "inode " << id;
      if (a.ok()) expect_same_stat(a.value(), b.value(), "inode " + std::to_string(id));
    }
    expect_same_tree(by_path, by_handle, "/");
    for (const std::string& dir : dirs) {
      for (const std::string& leaf : leaves) {
        const std::string path = join(dir, leaf);
        ASSERT_EQ(by_path.stat(path).status(), by_handle.stat(path).status()) << path;
      }
    }
    ASSERT_EQ(by_path.bytes_in_use(), by_handle.bytes_in_use());
    ASSERT_EQ(by_path.inode_count(), by_handle.inode_count());
    ASSERT_EQ(by_path.open_descriptor_count(), by_handle.open_descriptor_count());
    ASSERT_EQ(by_path.regular_file_count(), by_handle.regular_file_count());
    ASSERT_EQ(by_path.directory_count(), by_handle.directory_count());
  };
  // Outcomes per op kind, so the sweep is known to reach both success and
  // failure of every call.
  const char* const kinds[] = {"creat", "open", "write", "truncate", "link", "unlink",
                               "mkdir", "rmdir", "rename", "close", "stat"};
  std::map<std::string, std::set<fs::FsStatus>> outcomes;
  const auto agree = [&](int kind, fs::FsStatus a, fs::FsStatus b, int step) {
    ASSERT_EQ(a, b) << kinds[kind] << " at step " << step;
    outcomes[kinds[kind]].insert(a);
  };
  const auto note_fd = [&](int kind, const fs::Result<fs::Fd>& a, const fs::Result<fs::Fd>& b,
                           int step) {
    agree(kind, a.status(), b.status(), step);
    if (!a.ok()) return;
    ASSERT_EQ(a.value(), b.value()) << "step " << step;
    fds.push_back(a.value());
    max_id = std::max(max_id, by_path.fstat(a.value()).value().inode);
  };

  for (int step = 0; step < 4000; ++step) {
    now += 1.0;
    const std::string dir = pick(dirs);
    const std::string leaf = pick(leaves);
    const std::string path = join(dir, leaf);
    const auto fd_pick = [&]() -> fs::Fd {
      if (fds.empty() || rng.bernoulli(0.1)) return 1000;  // a bad descriptor
      return fds[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(fds.size()) - 1))];
    };
    const int kind = static_cast<int>(rng.uniform_int(0, 10));
    switch (kind) {
      case 0:  // creat
        note_fd(kind, by_path.creat(path),
                by_handle.open_at(walk_by_lookup(by_handle, dir), leaf,
                                  fs::kWrite | fs::kCreate | fs::kTruncate),
                step);
        break;
      case 1: {  // open: any flags, by name or by inode on the handle side
        const unsigned flags = static_cast<unsigned>(rng.uniform_int(0, 31));
        const fs::InodeId parent = walk_by_lookup(by_handle, dir);
        const auto found = by_handle.lookup(parent, leaf);
        const auto b = found.ok() && rng.bernoulli(0.5) ? by_handle.open(found.value(), flags)
                                                        : by_handle.open_at(parent, leaf, flags);
        note_fd(kind, by_path.open(path, flags), b, step);
        break;
      }
      case 2: {  // write
        const fs::Fd fd = fd_pick();
        const std::uint64_t count = static_cast<std::uint64_t>(rng.uniform_int(0, 3000));
        const auto a = by_path.write(fd, count);
        const auto b = by_handle.write(fd, count);
        agree(kind, a.status(), b.status(), step);
        if (a.ok()) {
          ASSERT_EQ(a.value(), b.value()) << "step " << step;
        }
        break;
      }
      case 3: {  // truncate (path only: it has no handle form)
        const std::uint64_t size = static_cast<std::uint64_t>(rng.uniform_int(0, 5000));
        agree(kind, by_path.truncate(path, size), by_handle.truncate(path, size), step);
        break;
      }
      case 4: {  // link (path only)
        const std::string to = join(pick(dirs), pick(leaves));
        agree(kind, by_path.link(path, to), by_handle.link(path, to), step);
        break;
      }
      case 5:  // unlink
        agree(kind, by_path.unlink(path),
              by_handle.unlink_at(walk_by_lookup(by_handle, dir), leaf), step);
        break;
      case 6: {  // mkdir
        const fs::Result<fs::InodeId> made =
            by_handle.mkdir_at(walk_by_lookup(by_handle, dir), leaf);
        agree(kind, by_path.mkdir(path), made.status(), step);
        if (made.ok()) max_id = std::max(max_id, made.value());
        break;
      }
      case 7:  // rmdir (path only)
        agree(kind, by_path.rmdir(path), by_handle.rmdir(path), step);
        break;
      case 8: {  // rename (path only)
        const std::string to = join(pick(dirs), pick(leaves));
        agree(kind, by_path.rename(path, to), by_handle.rename(path, to), step);
        break;
      }
      case 9: {  // close
        const fs::Fd fd = fd_pick();
        agree(kind, by_path.close(fd), by_handle.close(fd), step);
        fds.erase(std::remove(fds.begin(), fds.end(), fd), fds.end());
        break;
      }
      default: {  // stat, by inode on the handle side
        const auto a = by_path.stat(path);
        const auto found = by_handle.lookup(walk_by_lookup(by_handle, dir), leaf);
        const auto b = found.ok() ? by_handle.stat(found.value())
                                  : fs::Result<fs::FileStat>(found.status());
        agree(kind, a.status(), b.status(), step);
        if (a.ok()) expect_same_stat(a.value(), b.value(), path);
        break;
      }
    }
    if (step % 97 == 0) compare_state(step);
    if (HasFatalFailure()) return;
  }
  for (const fs::Fd fd : fds) {
    ASSERT_EQ(by_path.close(fd), by_handle.close(fd));
  }
  compare_state(-1);
  for (const char* kind : kinds) {
    const std::set<fs::FsStatus>& seen = outcomes[kind];
    EXPECT_TRUE(seen.count(fs::FsStatus::ok)) << kind << " never succeeded";
    EXPECT_GE(seen.size(), 2u) << kind << " never failed";
  }
  for (const fs::FsStatus status :
       {fs::FsStatus::not_found, fs::FsStatus::already_exists, fs::FsStatus::not_a_directory,
        fs::FsStatus::is_a_directory, fs::FsStatus::directory_not_empty,
        fs::FsStatus::invalid_argument, fs::FsStatus::too_many_open_files,
        fs::FsStatus::no_space, fs::FsStatus::bad_descriptor}) {
    bool reached = false;
    for (const auto& [kind, seen] : outcomes) reached = reached || seen.count(status) != 0;
    EXPECT_TRUE(reached) << fs::to_string(status) << " never returned";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamespaceProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

// A directory far wider than the table's initial size, filled through a
// handle while every insert may move the whole table: each entry must land
// in the directory the handle names (the re-fetch-after-insert rule; ASan
// catches a stale reference as a use-after-free).
TEST(NamespaceProperty, WideDirectoryBuiltWhileTheTableGrows) {
  fs::SimulatedFileSystem by_path, by_handle;
  double ticks_path = 0.0, ticks_handle = 0.0;
  by_path.set_clock([&ticks_path] { return ticks_path += 1.0; });
  by_handle.set_clock([&ticks_handle] { return ticks_handle += 1.0; });
  ASSERT_EQ(by_path.mkdir("/wide"), fs::FsStatus::ok);
  const fs::InodeId wide = by_handle.mkdir_at(1, "wide").value();
  constexpr std::size_t kChildren = 10240;
  for (std::size_t i = 0; i < kChildren; ++i) {
    const std::string name = (i % 10 == 0 ? "dir" : "file") + std::to_string(i);
    if (i % 10 == 0) {
      ASSERT_EQ(by_path.mkdir("/wide/" + name), fs::FsStatus::ok);
      ASSERT_TRUE(by_handle.mkdir_at(wide, name).ok());
    } else {
      const auto a = by_path.creat("/wide/" + name);
      const auto b = by_handle.open_at(wide, name, fs::kWrite | fs::kCreate | fs::kTruncate);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      ASSERT_EQ(a.value(), b.value());
      ASSERT_EQ(by_path.write(a.value(), i).status(), by_handle.write(b.value(), i).status());
      ASSERT_EQ(by_path.close(a.value()), by_handle.close(b.value()));
    }
  }
  EXPECT_EQ(by_handle.readdir("/wide").value().size(), kChildren);
  EXPECT_EQ(by_handle.stat(wide).value().size, by_path.stat("/wide").value().size);
  EXPECT_EQ(expect_same_tree(by_path, by_handle, "/"), kChildren + 2);
  EXPECT_EQ(by_path.bytes_in_use(), by_handle.bytes_in_use());
  EXPECT_EQ(by_handle.inode_count(), kChildren + 2);
}

// A collected inode's slot stays in the table, dead: its handle answers
// not_found like its former path, through every handle call, and no later
// inode takes its id.
TEST(NamespaceProperty, CollectedInodeHandlesAnswerNotFound) {
  fs::SimulatedFileSystem fsys;
  ASSERT_EQ(fsys.mkdir("/d"), fs::FsStatus::ok);
  std::vector<fs::InodeId> dead;
  for (int round = 0; round < 50; ++round) {
    const std::string name = "t" + std::to_string(round);
    const auto fd = fsys.creat("/d/" + name);
    ASSERT_TRUE(fd.ok());
    const fs::InodeId id = fsys.fstat(fd.value()).value().inode;
    for (const fs::InodeId old : dead) EXPECT_GT(id, old);
    ASSERT_EQ(fsys.unlink("/d/" + name), fs::FsStatus::ok);
    if (round % 2 == 0) {  // unlinked while open: alive until the close
      EXPECT_TRUE(fsys.stat(id).ok());
      const auto again = fsys.open(id, fs::kRead);
      ASSERT_TRUE(again.ok());
      ASSERT_EQ(fsys.close(again.value()), fs::FsStatus::ok);
    }
    ASSERT_EQ(fsys.close(fd.value()), fs::FsStatus::ok);
    dead.push_back(id);
    if (round % 5 == 0) {  // a collected directory too
      ASSERT_EQ(fsys.mkdir("/d/sub"), fs::FsStatus::ok);
      const fs::InodeId sub = fsys.stat("/d/sub").value().inode;
      ASSERT_EQ(fsys.rmdir("/d/sub"), fs::FsStatus::ok);
      dead.push_back(sub);
    }
    for (const fs::InodeId old : dead) {
      EXPECT_EQ(fsys.stat(old).status(), fs::FsStatus::not_found);
      EXPECT_EQ(fsys.stat(old).status(), fsys.stat("/d/" + name).status());
      EXPECT_EQ(fsys.open(old, fs::kRead).status(), fs::FsStatus::not_found);
      EXPECT_EQ(fsys.open(old, fs::kRead).status(),
                fsys.open("/d/" + name, fs::kRead).status());
      EXPECT_EQ(fsys.open_at(old, "x", fs::kRead | fs::kCreate).status(),
                fs::FsStatus::not_found);
      EXPECT_EQ(fsys.mkdir_at(old, "x").status(), fs::FsStatus::not_found);
      EXPECT_EQ(fsys.unlink_at(old, "x"), fs::FsStatus::not_found);
      EXPECT_EQ(fsys.lookup(old, "x").status(), fs::FsStatus::not_found);
    }
  }
  EXPECT_EQ(fsys.inode_count(), 2u);  // the root and /d
  EXPECT_EQ(fsys.open_descriptor_count(), 0u);
}

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
// USIM op selection: the live-item index against the per-op scan it
// replaced.
// ---------------------------------------------------------------------------

/// Test-only reference: the USIM's former selector, which listed the
/// unfinished items afresh on every op and mapped the previous item into
/// that list.
struct ScanSelector {
  std::vector<bool> done;

  std::size_t pick(const core::OpStreamPolicy& policy, std::size_t previous,
                   util::RngStream& rng) const {
    std::vector<std::size_t> active;
    std::size_t previous_active = core::OpStreamPolicy::kNone;
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (done[i]) continue;
      if (i == previous) previous_active = active.size();
      active.push_back(i);
    }
    return active[policy.choose(active.size(), previous_active, rng)];
  }
};

/// Wraps a policy and records the (count, previous) pair of every call.
class RecordingPolicy final : public core::OpStreamPolicy {
 public:
  explicit RecordingPolicy(const core::OpStreamPolicy& inner) : inner_(inner) {}

  std::size_t choose(std::size_t count, std::size_t previous,
                     util::RngStream& rng) const override {
    last = {count, previous};
    return inner_.choose(count, previous, rng);
  }
  std::string name() const override { return "recording"; }
  std::unique_ptr<core::OpStreamPolicy> clone() const override {
    return std::make_unique<RecordingPolicy>(inner_);
  }

  mutable std::pair<std::size_t, std::size_t> last{0, 0};

 private:
  const core::OpStreamPolicy& inner_;
};

class OpSelectionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OpSelectionEquivalence, LiveIndexMatchesScanReference) {
  const std::uint64_t seed = GetParam();
  const core::IndependentOpStream independent;
  const core::MarkovOpStream markov_low(0.3);
  const core::MarkovOpStream markov_high(0.9);
  for (const core::OpStreamPolicy* policy :
       {static_cast<const core::OpStreamPolicy*>(&independent),
        static_cast<const core::OpStreamPolicy*>(&markov_low),
        static_cast<const core::OpStreamPolicy*>(&markov_high)}) {
    for (std::size_t windows = 1; windows <= 3; ++windows) {
      SCOPED_TRACE(policy->name() + " windows=" + std::to_string(windows));
      const RecordingPolicy live_policy(*policy);
      const RecordingPolicy scan_policy(*policy);
      util::RngStream live_rng(seed, "opsel/pick");
      util::RngStream scan_rng(seed, "opsel/pick");
      util::RngStream driver(seed, "opsel/driver/" + std::to_string(windows));

      struct Slot {
        core::LiveItems live;
        ScanSelector scan;
        std::size_t previous = core::OpStreamPolicy::kNone;
      };
      std::vector<Slot> slots(windows);
      const auto start_session = [&](Slot& slot) {
        const auto count = static_cast<std::size_t>(driver.uniform_int(1, 40));
        slot.live.reset(count);
        slot.scan.done.assign(count, false);
        slot.previous = core::OpStreamPolicy::kNone;
      };
      const auto retire = [](Slot& slot, std::size_t item) {
        slot.live.retire(item);
        slot.scan.done[item] = true;
      };
      for (auto& slot : slots) start_session(slot);

      std::size_t sessions = 0;
      std::size_t steps = 0;
      while (sessions < 60) {
        // The windows interleave: any slot may issue the next op.
        Slot& slot = slots[static_cast<std::size_t>(
            driver.uniform_int(0, static_cast<std::int64_t>(windows) - 1))];
        const std::size_t from_live = slot.live.pick(live_policy, slot.previous, live_rng);
        const std::size_t from_scan = slot.scan.pick(scan_policy, slot.previous, scan_rng);
        ASSERT_EQ(live_policy.last, scan_policy.last) << "step " << steps;
        ASSERT_EQ(from_live, from_scan) << "step " << steps;
        ++steps;
        slot.previous = from_live;

        const double action = driver.uniform01();
        if (action < 0.10) {
          // A failed creat/open retires the item before any op is issued;
          // the selector is asked again at once.
          retire(slot, from_live);
        } else if (action < 0.25) {
          retire(slot, from_live);  // close of a non-TEMP item, or unlink
        } else if (action < 0.27) {
          ++sessions;  // op budget blown: emergency close ends the session
          start_session(slot);
          continue;
        }
        ASSERT_EQ(slot.live.size(),
                  static_cast<std::size_t>(
                      std::count(slot.scan.done.begin(), slot.scan.done.end(), false)));
        if (slot.live.empty()) {
          ++sessions;
          start_session(slot);
        }
      }
      EXPECT_GT(steps, 500u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpSelectionEquivalence, ::testing::Values(1991, 7, 4242, 99));

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
