// Property-based and failure-injection tests: randomised sweeps checking
// invariants rather than specific values.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fs/filesystem.h"
#include "fsmodel/flat_map.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/nfs_model.h"
#include "runner/merge.h"
#include "runner/partition.h"
#include "stats/histogram.h"
#include "stats/summary.h"
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
