// Tests for the parallel simulation runners: the deterministic partitioning
// rule, the (time, user) merge contract, the headline guarantee that shard
// count and thread count never change the sharded runner's merged usage log
// or aggregates — bit for bit — and the contended runner's mirror contract:
// thread count and replication batching never change the merged per-point
// statistics.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "core/analysis.h"
#include "core/presets.h"
#include "exp/workload.h"
#include "fs/filesystem.h"
#include "fsmodel/nfs_model.h"
#include "runner/checkpoint.h"
#include "runner/contended_runner.h"
#include "runner/sharded_runner.h"
#include "scenario/run.h"
#include "scenario/spec.h"

namespace wlgen::runner {
namespace {

// --- partitioning rule ------------------------------------------------------

TEST(Partition, CoversDisjointAndBalanced) {
  for (std::size_t users : {1u, 7u, 16u, 100u}) {
    for (std::size_t shards : {1u, 2u, 3u, 5u, 16u}) {
      const auto ranges = partition_users(users, shards);
      ASSERT_EQ(ranges.size(), shards);
      std::size_t covered = 0;
      std::size_t max_size = 0, min_size = users + 1;
      for (std::size_t s = 0; s < ranges.size(); ++s) {
        EXPECT_EQ(ranges[s].begin, covered) << "gap or overlap at shard " << s;
        covered = ranges[s].end;
        max_size = std::max(max_size, ranges[s].size());
        min_size = std::min(min_size, ranges[s].size());
      }
      EXPECT_EQ(covered, users);
      EXPECT_LE(max_size - min_size, 1u) << users << " users over " << shards << " shards";
    }
  }
}

TEST(Partition, ShardOfUserInvertsTheRule) {
  for (std::size_t users : {1u, 9u, 64u}) {
    for (std::size_t shards : {1u, 4u, 7u}) {
      const auto ranges = partition_users(users, shards);
      for (std::size_t u = 0; u < users; ++u) {
        const std::size_t s = shard_of_user(u, users, shards);
        EXPECT_TRUE(ranges[s].contains(u)) << "user " << u << " shard " << s;
      }
    }
  }
}

TEST(Partition, MoreShardsThanUsersYieldsEmptyShards) {
  // Note the empty shards are interleaved by the floor rule, not trailing.
  const auto ranges = partition_users(2, 5);
  ASSERT_EQ(ranges.size(), 5u);
  std::size_t nonempty = 0;
  for (const auto& r : ranges) nonempty += r.empty() ? 0 : 1;
  EXPECT_EQ(nonempty, 2u);
  EXPECT_THROW(partition_users(1, 0), std::invalid_argument);
}

// --- merge contract ---------------------------------------------------------

core::OpRecord record_at(double t, std::uint32_t user, std::uint64_t file_id) {
  core::OpRecord r;
  r.issue_time_us = t;
  r.user = user;
  r.file_id = file_id;
  return r;
}

TEST(Merge, OrdersByTimeThenUserWithStablePerUserOrder) {
  std::vector<core::UsageLog> per_user(3);
  // User 0: two records at t=5 (ids 1 then 2 — must stay in that order).
  per_user[0].append(record_at(5.0, 0, 1));
  per_user[0].append(record_at(5.0, 0, 2));
  // User 1: one earlier, one tying user 0's t=5.
  per_user[1].append(record_at(1.0, 1, 3));
  per_user[1].append(record_at(5.0, 1, 4));
  // User 2: ties user 1's t=1 — user index breaks the tie.
  per_user[2].append(record_at(1.0, 2, 5));

  const core::UsageLog merged = merge_user_logs(std::move(per_user));
  ASSERT_EQ(merged.size(), 5u);
  std::vector<std::uint64_t> ids;
  for (const auto& r : merged.records()) ids.push_back(r.file_id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{3, 5, 1, 2, 4}));
  EXPECT_TRUE(is_merge_ordered(merged));
}

TEST(Merge, DetectsDisorder) {
  core::UsageLog log;
  log.append(record_at(2.0, 0, 1));
  log.append(record_at(1.0, 0, 2));
  EXPECT_FALSE(is_merge_ordered(log));
  core::UsageLog tie;
  tie.append(record_at(1.0, 3, 1));
  tie.append(record_at(1.0, 2, 2));
  EXPECT_FALSE(is_merge_ordered(tie));
}

// --- the headline invariance ------------------------------------------------

RunnerConfig base_config(std::size_t users, std::size_t shards, std::size_t threads) {
  RunnerConfig config;
  config.num_users = users;
  config.shards = shards;
  config.threads = threads;
  config.seed = 2024;
  config.usim.sessions_per_user = 3;
  config.population = core::mixed_population(0.5);
  return config;
}

void expect_stats_identical(const RunnerStats& a, const RunnerStats& b) {
  EXPECT_EQ(a.ops(), b.ops());
  EXPECT_EQ(a.bytes_moved(), b.bytes_moved());
  // Bit-identical floating point: the merge fold is a fixed reduction
  // sequence in user order, so these are exact equalities, not tolerances.
  EXPECT_EQ(a.response_us().mean(), b.response_us().mean());
  EXPECT_EQ(a.response_us().variance(), b.response_us().variance());
  EXPECT_EQ(a.response_us().min(), b.response_us().min());
  EXPECT_EQ(a.response_us().max(), b.response_us().max());
  EXPECT_EQ(a.access_size().mean(), b.access_size().mean());
  EXPECT_EQ(a.access_size().variance(), b.access_size().variance());
  EXPECT_EQ(a.response_per_byte_us(), b.response_per_byte_us());
  EXPECT_EQ(a.response_histogram().counts(), b.response_histogram().counts());
  EXPECT_EQ(a.response_histogram().total(), b.response_histogram().total());
}

TEST(ShardedRunner, ShardCountNeverChangesMergedResults) {
  ShardedRunner one(base_config(6, 1, 1));
  const RunnerResult r1 = one.run();
  ASSERT_GT(r1.total_ops, 0u);
  EXPECT_TRUE(is_merge_ordered(r1.log));

  for (std::size_t shards : {2u, 3u, 6u}) {
    ShardedRunner many(base_config(6, shards, 2));
    const RunnerResult rk = many.run();
    // Bit-identical merged usage log, FIFO tie-break order included.
    EXPECT_EQ(rk.log.serialize(), r1.log.serialize()) << shards << " shards";
    expect_stats_identical(rk.stats, r1.stats);
    EXPECT_EQ(rk.total_ops, r1.total_ops);
    EXPECT_EQ(rk.sessions_completed, r1.sessions_completed);
    EXPECT_EQ(rk.max_simulated_us, r1.max_simulated_us);
  }
}

TEST(ShardedRunner, ThreadCountNeverChangesMergedResults) {
  ShardedRunner serial(base_config(5, 5, 1));
  const RunnerResult r1 = serial.run();
  ShardedRunner parallel(base_config(5, 5, 4));
  const RunnerResult r4 = parallel.run();
  EXPECT_EQ(r4.log.serialize(), r1.log.serialize());
  expect_stats_identical(r4.stats, r1.stats);
}

TEST(ShardedRunner, DrawBatchKeepsShardAndThreadInvariance) {
  // draw_batch > 1 changes which random sequence each user realises, but the
  // per-user streams still refill at fixed points in that user's own
  // timeline — so the shard/thread invariance of the merge must be as
  // bit-exact as at draw_batch = 1.
  auto batched = [](std::size_t shards, std::size_t threads) {
    RunnerConfig config = base_config(6, shards, threads);
    config.usim.draw_batch = 8;
    return config;
  };
  ShardedRunner one(batched(1, 1));
  const RunnerResult r1 = one.run();
  ASSERT_GT(r1.total_ops, 0u);
  for (std::size_t shards : {2u, 6u}) {
    ShardedRunner many(batched(shards, 4));
    const RunnerResult rk = many.run();
    EXPECT_EQ(rk.log.serialize(), r1.log.serialize()) << shards << " shards";
    expect_stats_identical(rk.stats, r1.stats);
  }
}

TEST(ShardedRunner, TimestampTiesBreakByUserIndex) {
  RunnerConfig config = base_config(4, 2, 2);
  // Zero-think users: every user's first call issues at exactly the
  // constant inter-session gap on its own clock, forcing cross-user
  // timestamp ties in the merged log.
  config.population.groups.clear();
  config.population.groups.push_back({core::extremely_heavy_user(), 1.0});
  ShardedRunner run(std::move(config));
  const RunnerResult result = run.run();
  EXPECT_TRUE(is_merge_ordered(result.log));
  // Ties must appear in ascending user order (is_merge_ordered verifies);
  // check the tie case is actually exercised.
  bool saw_cross_user_tie = false;
  const auto& records = result.log.records();
  for (std::size_t i = 1; i < records.size() && !saw_cross_user_tie; ++i) {
    saw_cross_user_tie = records[i].issue_time_us == records[i - 1].issue_time_us &&
                         records[i].user != records[i - 1].user;
  }
  EXPECT_TRUE(saw_cross_user_tie);
}

TEST(ShardedRunner, MatchesDirectSingleUserSimulation) {
  // One user through the runner == the same universe built by hand: the
  // range path is the plain path, not a parallel-only approximation.
  const std::uint64_t seed = 77;
  RunnerConfig config = base_config(1, 1, 1);
  config.seed = seed;
  ShardedRunner run(config);
  const RunnerResult result = run.run();

  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&simulation] { return simulation.now(); });
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  fsc_config.num_users = 1;
  fsc_config.seed = seed;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig usim_config;
  usim_config.num_users = 1;
  usim_config.sessions_per_user = 3;
  usim_config.seed = seed;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::mixed_population(0.5),
                           usim_config);
  usim.run();

  EXPECT_EQ(result.log.serialize(), usim.log().serialize());
  EXPECT_EQ(result.max_simulated_us, simulation.now());
}

TEST(ShardedRunner, LogFreeRunsStillProduceMergedAggregates) {
  RunnerConfig config = base_config(4, 2, 2);
  config.collect_log = false;
  ShardedRunner run(config);
  const RunnerResult result = run.run();
  EXPECT_TRUE(result.log.empty());
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_EQ(result.stats.ops(), result.total_ops);
  EXPECT_GT(result.stats.bytes_moved(), 0u);
  EXPECT_GT(result.stats.response_per_byte_us(), 0.0);
  EXPECT_EQ(result.stats.response_histogram().total(), result.total_ops);

  // And the aggregates equal those of a log-collecting run.
  ShardedRunner logged(base_config(4, 2, 2));
  expect_stats_identical(result.stats, logged.run().stats);
}

TEST(ShardedRunner, StatsAgreeWithAnalyzerOnTheMergedLog) {
  ShardedRunner run(base_config(3, 3, 2));
  const RunnerResult result = run.run();
  const core::UsageAnalyzer analyzer(result.log);
  EXPECT_EQ(result.stats.response_us().count(), analyzer.response_stats().count());
  EXPECT_EQ(result.stats.access_size().count(), analyzer.access_size_stats().count());
  // Different floating-point fold order (per-user vs merged-log scan):
  // agreement is near, not bitwise.
  EXPECT_NEAR(result.stats.response_us().mean(), analyzer.response_stats().mean(), 1e-6);
  EXPECT_NEAR(result.stats.response_per_byte_us(), analyzer.response_per_byte_us(), 1e-9);
}

TEST(ShardedRunner, PopulationTypesFollowGlobalIndex) {
  // With a 50/50 mix over 4 users, largest-remainder apportionment fixes
  // which global user gets which type; sharding must not re-apportion
  // within shards (a 2-shard run would otherwise give each shard its own
  // 1+1 split of a fresh 2-user population).
  RunnerConfig config = base_config(4, 4, 2);
  ShardedRunner sharded(config);
  const RunnerResult sharded_result = sharded.run();
  ShardedRunner whole(base_config(4, 1, 1));
  const RunnerResult whole_result = whole.run();
  EXPECT_EQ(sharded_result.log.serialize(), whole_result.log.serialize());
  std::set<std::uint32_t> users_seen;
  for (const auto& r : sharded_result.log.records()) users_seen.insert(r.user);
  EXPECT_EQ(users_seen.size(), 4u);
}

TEST(ShardedRunner, ValidatesConfigurationAndRunsOnce) {
  RunnerConfig no_users;
  no_users.num_users = 0;
  EXPECT_THROW(ShardedRunner(std::move(no_users)), std::invalid_argument);
  RunnerConfig no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(ShardedRunner(std::move(no_shards)), std::invalid_argument);
  ShardedRunner run(base_config(1, 1, 1));
  run.run();
  EXPECT_THROW(run.run(), std::logic_error);
  EXPECT_THROW(model_factory_by_name("afs"), std::invalid_argument);
}

TEST(ShardedRunner, ShardReportsCoverAllUsersAndOps) {
  ShardedRunner run(base_config(6, 3, 2));
  const RunnerResult result = run.run();
  ASSERT_EQ(result.shards.size(), 3u);
  std::uint64_t ops = 0;
  std::size_t users = 0;
  for (const auto& s : result.shards) {
    ops += s.ops;
    users += s.range.size();
    EXPECT_GT(s.events, 0u);
  }
  EXPECT_EQ(ops, result.total_ops);
  EXPECT_EQ(users, 6u);
}

// --- streaming spill + checkpoint/resume ------------------------------------

// Fresh spool directory per test (and per configuration within a test, when
// runs must not see each other's checkpoints).
std::string fresh_spool(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / ("wlgen_spool_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

RunnerConfig spill_config(std::size_t users, std::size_t shards, std::size_t threads,
                          const std::string& spool, std::size_t buffer_records = 32) {
  RunnerConfig config = base_config(users, shards, threads);
  config.spill.enabled = true;
  config.spill.spool_dir = spool;
  config.spill.buffer_records = buffer_records;  // small: several runs per shard
  return config;
}

TEST(ShardedRunnerSpill, MatchesInMemoryLogByteForByteAcrossShardsAndThreads) {
  ShardedRunner reference(base_config(6, 1, 1));
  const RunnerResult in_memory = reference.run();
  ASSERT_FALSE(in_memory.log.empty());

  for (std::size_t shards : {1u, 2u, 3u}) {
    for (std::size_t threads : {1u, 4u}) {
      const std::string spool =
          fresh_spool("s" + std::to_string(shards) + "t" + std::to_string(threads));
      ShardedRunner spilled(spill_config(6, shards, threads, spool));
      const RunnerResult result = spilled.run();

      // The in-RAM log stays empty; the merged stream lives behind the
      // reader and carries the exact same bytes, tie-break order included.
      EXPECT_TRUE(result.log.empty());
      ASSERT_FALSE(result.spilled_runs.empty());
      auto reader = result.open_log_reader();
      EXPECT_EQ(core::materialize(*reader).serialize(), in_memory.log.serialize())
          << shards << " shards, " << threads << " threads";

      expect_stats_identical(result.stats, in_memory.stats);
      EXPECT_EQ(result.total_ops, in_memory.total_ops);
      EXPECT_EQ(result.max_simulated_us, in_memory.max_simulated_us);
      EXPECT_TRUE(result.response_sketch == in_memory.response_sketch);
      std::filesystem::remove_all(spool);
    }
  }
}

TEST(ShardedRunnerSpill, HandlesMoreShardsThanUsers) {
  // Empty shards produce no runs and no records; the merge must not invent
  // or drop anything.
  const std::string spool = fresh_spool("empty_shards");
  ShardedRunner spilled(spill_config(2, 5, 2, spool));
  const RunnerResult result = spilled.run();
  ShardedRunner reference(base_config(2, 1, 1));
  const RunnerResult in_memory = reference.run();
  auto reader = result.open_log_reader();
  EXPECT_EQ(core::materialize(*reader).serialize(), in_memory.log.serialize());
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, StreamSatisfiesMergeContractViaReader) {
  const std::string spool = fresh_spool("contract");
  ShardedRunner spilled(spill_config(5, 3, 2, spool));
  const RunnerResult result = spilled.run();
  auto reader = result.open_log_reader();
  EXPECT_TRUE(is_merge_ordered(*reader));
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, SketchIsInvariantAcrossEverything) {
  // One sketch per shard, integer merge: bit-identical buckets for every
  // (shards, threads, spill) combination — including the in-memory path.
  ShardedRunner reference(base_config(6, 1, 1));
  const RunnerResult base = reference.run();
  ASSERT_GT(base.response_sketch.count(), 0u);
  EXPECT_EQ(base.response_sketch.count(), base.total_ops);

  ShardedRunner memory_many(base_config(6, 3, 4));
  EXPECT_TRUE(memory_many.run().response_sketch == base.response_sketch);

  const std::string spool = fresh_spool("sketch");
  ShardedRunner spilled(spill_config(6, 3, 4, spool));
  EXPECT_TRUE(spilled.run().response_sketch == base.response_sketch);
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, CheckpointResumeIsBitIdentical) {
  const std::string spool = fresh_spool("resume");
  RunnerConfig first_config = spill_config(6, 3, 2, spool);
  first_config.spill.checkpoint = true;
  ShardedRunner first(first_config);
  const RunnerResult original = first.run();
  EXPECT_EQ(original.checkpoints_written, 3u);
  EXPECT_EQ(original.shards_resumed, 0u);
  const std::string original_log = core::materialize(*original.open_log_reader()).serialize();

  // Full resume: every shard restored from its checkpoint, nothing re-run,
  // and the result — log bytes, stats fold, sketch — is bit-identical.
  RunnerConfig resume_config = spill_config(6, 3, 2, spool);
  resume_config.spill.checkpoint = true;
  resume_config.spill.resume = true;
  ShardedRunner resumed(resume_config);
  const RunnerResult restored = resumed.run();
  EXPECT_EQ(restored.shards_resumed, 3u);
  EXPECT_EQ(core::materialize(*restored.open_log_reader()).serialize(), original_log);
  expect_stats_identical(restored.stats, original.stats);
  EXPECT_EQ(restored.total_ops, original.total_ops);
  EXPECT_EQ(restored.sessions_completed, original.sessions_completed);
  EXPECT_EQ(restored.max_simulated_us, original.max_simulated_us);
  EXPECT_TRUE(restored.response_sketch == original.response_sketch);

  // Partial resume: delete one shard's checkpoint (simulating an interrupt
  // between shard completions); that shard re-runs, the rest restore, and
  // the merged result is still bit-identical.
  std::filesystem::remove(checkpoint_path(spool, 1));
  ShardedRunner partial(resume_config);
  const RunnerResult repaired = partial.run();
  EXPECT_EQ(repaired.shards_resumed, 2u);
  EXPECT_EQ(repaired.checkpoints_written, 1u);
  EXPECT_EQ(core::materialize(*repaired.open_log_reader()).serialize(), original_log);
  expect_stats_identical(repaired.stats, original.stats);
  EXPECT_TRUE(repaired.response_sketch == original.response_sketch);
  std::filesystem::remove_all(spool);
}

TEST(ShardedRunnerSpill, ResumeRejectsAForeignFingerprint) {
  const std::string spool = fresh_spool("fingerprint");
  RunnerConfig first_config = spill_config(4, 2, 1, spool);
  first_config.spill.checkpoint = true;
  ShardedRunner first(first_config);
  first.run();

  // Same spool, different seed: the checkpoints describe a different
  // record stream and silently reusing them would corrupt the result.
  RunnerConfig other = spill_config(4, 2, 1, spool);
  other.spill.checkpoint = true;
  other.spill.resume = true;
  other.seed = 777;
  ShardedRunner resumed(other);
  EXPECT_THROW(resumed.run(), std::runtime_error);
  std::filesystem::remove_all(spool);
}

// Overwrites `bytes` at `offset` of a file in place, keeping its size — the
// corruption a checkpoint's size check cannot see.
void overwrite_in_place(const std::string& path, std::uint64_t offset,
                        const std::vector<unsigned char>& bytes) {
  const auto size = std::filesystem::file_size(path);
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  ASSERT_EQ(std::filesystem::file_size(path), size);
}

TEST(ShardedRunnerSpill, ResumeRejectsCorruptedRunRecords) {
  // Each case corrupts one record of shard 1's first run, then resumes.
  struct Corruption {
    const char* name;
    std::uint64_t field_offset;
    std::vector<unsigned char> bytes;
  };
  const std::vector<Corruption> cases = {
      {"user far outside every shard", 16, {0xF0, 0xFF, 0xFF, 0x7F}},
      {"user of another shard", 16, {0, 0, 0, 0}},
      {"op byte", 24, {0xEE}},
      {"category byte", 26, {0x09}},
  };
  for (const Corruption& c : cases) {
    const std::string spool = fresh_spool("corrupt_resume");
    RunnerConfig config = spill_config(6, 3, 2, spool);
    config.spill.checkpoint = true;
    // The replay also indexes the per-user obs slots; the runner itself
    // never writes the metrics file.
    config.obs.metrics_file = spool + "/metrics.json";
    ShardedRunner first(config);
    first.run();
    const std::string run_path = spool + "/shard000001_run000000.wlr";
    ASSERT_GE(std::filesystem::file_size(run_path),
              core::kSpillHeaderBytes + 2 * core::kSpillRecordBytes);
    overwrite_in_place(run_path,
                       core::kSpillHeaderBytes + core::kSpillRecordBytes + c.field_offset, c.bytes);

    config.spill.resume = true;
    ShardedRunner resumed(config);
    EXPECT_THROW(resumed.run(), std::runtime_error) << c.name;
    std::filesystem::remove_all(spool);
  }
}

TEST(ShardedRunnerSpill, ValidatesSpillConfiguration) {
  RunnerConfig no_spool = base_config(1, 1, 1);
  no_spool.spill.enabled = true;
  EXPECT_THROW(ShardedRunner(std::move(no_spool)), std::invalid_argument);

  RunnerConfig no_log = spill_config(1, 1, 1, fresh_spool("v1"));
  no_log.collect_log = false;
  EXPECT_THROW(ShardedRunner(std::move(no_log)), std::invalid_argument);

  RunnerConfig ckpt_without_spill = base_config(1, 1, 1);
  ckpt_without_spill.spill.checkpoint = true;
  EXPECT_THROW(ShardedRunner(std::move(ckpt_without_spill)), std::invalid_argument);

  RunnerConfig resume_without_ckpt = spill_config(1, 1, 1, fresh_spool("v2"));
  resume_without_ckpt.spill.resume = true;
  EXPECT_THROW(ShardedRunner(std::move(resume_without_ckpt)), std::invalid_argument);

  RunnerConfig zero_buffer = spill_config(1, 1, 1, fresh_spool("v3"), 0);
  EXPECT_THROW(ShardedRunner(std::move(zero_buffer)), std::invalid_argument);
}

// --- contended runner -------------------------------------------------------

ContendedConfig contended_config(std::vector<std::size_t> points, std::size_t replications,
                                 std::size_t threads) {
  ContendedConfig config;
  config.user_points = std::move(points);
  config.replications = replications;
  config.threads = threads;
  config.seed = 2026;
  config.usim.sessions_per_user = 2;
  config.population = core::mixed_population(0.5);
  return config;
}

void expect_points_identical(const ContendedResult& a, const ContendedResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const ContendedPoint& x = a.points[p];
    const ContendedPoint& y = b.points[p];
    EXPECT_EQ(x.users, y.users);
    EXPECT_EQ(x.total_ops, y.total_ops);
    EXPECT_EQ(x.sessions_completed, y.sessions_completed);
    // Bit-identical floating point: the fold is a fixed (point, replication)
    // reduction sequence, so these are exact equalities, not tolerances.
    EXPECT_EQ(x.replication_levels, y.replication_levels);
    EXPECT_EQ(x.response_per_byte.mean, y.response_per_byte.mean);
    EXPECT_EQ(x.response_per_byte.half_width, y.response_per_byte.half_width);
    EXPECT_EQ(x.stats.ops(), y.stats.ops());
    EXPECT_EQ(x.stats.bytes_moved(), y.stats.bytes_moved());
    EXPECT_EQ(x.stats.response_us().mean(), y.stats.response_us().mean());
    EXPECT_EQ(x.stats.response_us().variance(), y.stats.response_us().variance());
    EXPECT_EQ(x.stats.response_per_byte_us(), y.stats.response_per_byte_us());
    EXPECT_EQ(x.stats.response_histogram().counts(), y.stats.response_histogram().counts());
  }
}

TEST(ContendedRunner, ThreadCountNeverChangesMergedResults) {
  ContendedRunner serial(contended_config({1, 2, 3}, 2, 1));
  const ContendedResult r1 = serial.run();
  ASSERT_GT(r1.total_ops, 0u);
  for (std::size_t threads : {2u, 8u}) {
    ContendedRunner parallel(contended_config({1, 2, 3}, 2, threads));
    const ContendedResult rt = parallel.run();
    expect_points_identical(r1, rt);
    EXPECT_EQ(r1.total_ops, rt.total_ops);
  }
}

TEST(ContendedRunner, ReplicationBatchingNeverChangesEarlierReplications) {
  // replication_seed depends only on (root seed, replication index), so a
  // 4-replication run must reproduce a 2-replication run's levels as its
  // prefix — adding replications refines the CI without rewriting history.
  ContendedRunner two(contended_config({2, 3}, 2, 2));
  ContendedRunner four(contended_config({2, 3}, 4, 2));
  const ContendedResult r2 = two.run();
  const ContendedResult r4 = four.run();
  for (std::size_t p = 0; p < r2.points.size(); ++p) {
    ASSERT_EQ(r4.points[p].replication_levels.size(), 4u);
    for (std::size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(r2.points[p].replication_levels[r], r4.points[p].replication_levels[r]);
    }
  }
}

TEST(ContendedRunner, SweepPointSubsetsReproduceExactly) {
  // Per-point results depend only on (seed, users, replication) — running a
  // point alone or inside a larger sweep is indistinguishable.
  ContendedRunner sweep(contended_config({1, 2, 4}, 2, 2));
  ContendedRunner alone(contended_config({2}, 2, 1));
  const ContendedResult full = sweep.run();
  const ContendedResult single = alone.run();
  ASSERT_EQ(single.points.size(), 1u);
  EXPECT_EQ(full.points[1].replication_levels, single.points[0].replication_levels);
  EXPECT_EQ(full.points[1].stats.response_us().mean(),
            single.points[0].stats.response_us().mean());
  EXPECT_EQ(full.points[1].total_ops, single.points[0].total_ops);
}

TEST(ContendedRunner, MatchesDirectSharedMachineSimulation) {
  // One replication of an N-user point == the same contended universe built
  // by hand on the single-Simulation UserSimulator path: the runner
  // parallelises the paper experiment, it does not approximate it.
  const std::size_t users = 3;
  ContendedConfig config = contended_config({users}, 1, 1);
  const std::uint64_t seed = replication_seed(config.seed, 0);
  ContendedRunner run(config);
  const ContendedResult result = run.run();

  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsys.set_clock([&simulation] { return simulation.now(); });
  fsmodel::NfsModel nfs(simulation);
  core::FscConfig fsc_config;
  fsc_config.num_users = users;
  fsc_config.seed = seed;
  core::FileSystemCreator fsc(fsys, core::di86_file_profiles(), fsc_config);
  const core::CreatedFileSystem manifest = fsc.create();
  core::UsimConfig usim_config;
  usim_config.num_users = users;
  usim_config.sessions_per_user = 2;
  usim_config.seed = seed;
  core::UserSimulator usim(simulation, fsys, nfs, manifest, core::mixed_population(0.5),
                           usim_config);
  usim.run();

  const core::UsageAnalyzer analyzer(usim.log());
  const ContendedPoint& point = result.points.at(0);
  EXPECT_EQ(point.total_ops, usim.total_ops());
  EXPECT_EQ(point.sessions_completed, usim.sessions_completed());
  EXPECT_EQ(point.stats.ops(), analyzer.response_stats().count());
  EXPECT_NEAR(point.stats.response_per_byte_us(), analyzer.response_per_byte_us(), 1e-9);
}

TEST(ContendedRunner, ReplicationSeedIsAPureFunctionOfRootAndIndex) {
  EXPECT_EQ(replication_seed(7, 0), replication_seed(7, 0));
  EXPECT_NE(replication_seed(7, 0), replication_seed(7, 1));
  EXPECT_NE(replication_seed(7, 0), replication_seed(8, 0));
}

TEST(ContendedRunner, CrossReplicationCiIsPopulated) {
  ContendedRunner run(contended_config({2}, 3, 2));
  const ContendedResult result = run.run();
  const ContendedPoint& point = result.points.at(0);
  ASSERT_EQ(point.response_per_byte.n, 3u);
  EXPECT_GT(point.response_per_byte.mean, 0.0);
  EXPECT_GT(point.response_per_byte.half_width, 0.0);
  // The pooled level and the replication-mean level agree loosely (they are
  // different estimators of the same quantity).
  EXPECT_NEAR(point.stats.response_per_byte_us(), point.response_per_byte.mean,
              point.response_per_byte.mean);
  // Execution accounting covers the whole (point x replication) grid.
  ASSERT_EQ(result.replications.size(), 3u);
  for (const auto& rep : result.replications) {
    EXPECT_GT(rep.ops, 0u);
    EXPECT_GT(rep.events, 0u);
  }
}

TEST(ContendedRunner, ValidatesConfigurationAndRunsOnce) {
  ContendedConfig no_points;
  EXPECT_THROW(ContendedRunner{no_points}, std::invalid_argument);
  ContendedConfig zero_user = contended_config({1, 0}, 1, 1);
  EXPECT_THROW(ContendedRunner{zero_user}, std::invalid_argument);
  ContendedConfig no_reps = contended_config({1}, 0, 1);
  EXPECT_THROW(ContendedRunner{no_reps}, std::invalid_argument);
  ContendedRunner run(contended_config({1}, 1, 1));
  run.run();
  EXPECT_THROW(run.run(), std::logic_error);
}


// --- absolute digest pins of every universe-building path --------------------
//
// The invariance tests above compare a run against itself under another
// shard or thread count, so a change that moves every run the same way
// (say, an FSC seeded apart from the USIM, or churn windows that never
// reach the USIM) passes all of them.  These pins hold the exact output of each path that builds a
// simulated universe: the sharded and contended runners, the replay-mode
// synthetic leg (scenario generate_shared) and exp::run_workload.  The
// expected values were recorded before the paths were folded onto one
// builder; never regenerate them to make a change pass.

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string pin_line(const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%.17g\n", key, value);
  return buffer;
}

std::string pin_hash(const char* key, const std::string& text) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%s=%016llx\n", key,
                static_cast<unsigned long long>(fnv1a(text)));
  return buffer;
}

std::string stats_pin(const RunnerStats& stats) {
  return "ops=" + std::to_string(stats.ops()) + "\nbytes=" +
         std::to_string(stats.bytes_moved()) + "\n" +
         pin_line("response_mean", stats.response_us().mean()) +
         pin_line("response_var", stats.response_us().variance()) +
         pin_line("response_per_byte", stats.response_per_byte_us());
}

traffic::FaultPlan pinned_faults() {
  traffic::FaultPlan faults;
  faults.slowdowns = {{5e6, 15e6, 4.0}};
  faults.flush_times_us = {10e6};
  faults.churns = {{0.0, 25e6, 0.5}};
  return faults;
}

TEST(UniversePins, ShardedWithArrivalsAndFaults) {
  RunnerConfig config;
  config.num_users = 3;
  config.shards = 2;
  config.threads = 2;
  config.seed = 31;
  config.usim.sessions_per_user = 3;
  config.population = core::mixed_population(0.5);
  traffic::ArrivalConfig arrivals;
  arrivals.rate_per_sec = 0.5;
  arrivals.sessions = 9;
  config.traffic.arrivals = arrivals;
  config.traffic.faults = pinned_faults();
  config.obs.metrics_file = "unused";  // collect the stable sim/RNG counters
  ShardedRunner run(config);
  const RunnerResult result = run.run();

  std::uint64_t events = 0;
  for (const auto& shard : result.shards) events += shard.events;
  const std::string pin = stats_pin(result.stats) + "sessions=" +
                          std::to_string(result.sessions_completed) + "\nevents=" +
                          std::to_string(events) + "\n" +
                          pin_line("max_simulated_us", result.max_simulated_us) +
                          pin_hash("log", result.log.serialize()) +
                          pin_hash("obs", result.registry.stable_text());
  EXPECT_EQ(pin,
            "ops=4560\n"
            "bytes=3449973\n"
            "response_mean=2941.9762062456994\n"
            "response_var=152254897.1084705\n"
            "response_per_byte=3.888555504776535\n"
            "sessions=9\n"
            "events=15198\n"
            "max_simulated_us=39096332.212184563\n"
            "log=cc25335b4e55a062\n"
            "obs=df73a96e4e9575b0\n");
}

TEST(UniversePins, ContendedWithTunedModelAndFaults) {
  ContendedConfig config = contended_config({3}, 2, 2);
  config.seed = 17;
  // A tuned model is a factory that tunes what it builds, before the
  // universe posts the fault plan's events.
  config.model_factory = [](sim::Simulation& sim) {
    auto model = nfs_model_factory()(sim);
    model->set_service_scale(1.5);
    return model;
  };
  config.traffic.faults = pinned_faults();
  config.obs.metrics_file = "unused";
  ContendedRunner run(config);
  const ContendedResult result = run.run();

  const ContendedPoint& point = result.points.at(0);
  std::string pin = stats_pin(point.stats) + "sessions=" +
                    std::to_string(point.sessions_completed) + "\n";
  for (const auto& rep : result.replications) {
    pin += "rep " + std::to_string(rep.replication) + " ops=" + std::to_string(rep.ops) +
           " events=" + std::to_string(rep.events) + "\n";
    pin += pin_line("  simulated_us", rep.simulated_us);
  }
  pin += pin_line("level0", point.replication_levels.at(0)) +
         pin_line("level1", point.replication_levels.at(1)) +
         pin_hash("obs", result.registry.stable_text());
  EXPECT_EQ(pin,
            "ops=10593\n"
            "bytes=8914011\n"
            "response_mean=2392.1090786671616\n"
            "response_var=132584711.91072388\n"
            "response_per_byte=2.84267222357267\n"
            "sessions=12\n"
            "rep 0 ops=6045 events=19632\n"
            "  simulated_us=89232160.48467657\n"
            "rep 1 ops=4548 events=15643\n"
            "  simulated_us=39091576.468866244\n"
            "level0=1.8782335728906614\n"
            "level1=4.1497894630456997\n"
            "obs=8cba7926808e39f4\n");
}

TEST(UniversePins, ReplayWithSyntheticUsers) {
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_text(
      "[scenario]\nmode = replay\nname = pin-replay\nseed = 13\n"
      "[workload]\nusers = 2\nsessions = 2\nheavy_fraction = 0.5\n"
      "[replay]\nclosed_loop = false\nsynthetic_users = 3\n"
      "[model]\nname = nfs\n");
  scenario::RunOptions options;
  options.metrics_file =
      (std::filesystem::path(::testing::TempDir()) / "wlgen_pin_replay_metrics.json").string();
  const scenario::ScenarioOutcome outcome = scenario::run_scenario(spec, options);
  std::filesystem::remove(options.metrics_file);
  EXPECT_EQ(outcome.stats_digest,
            "scenario pin-replay mode=replay seed=13\n"
            "model nfs\n"
            "point users=2 label=\"trace replay (open loop)\" ops=3214 sessions=4 bytes=2569337\n"
            "  response_us count=3214 mean=1363.5117585713783 stddev=4399.3736369849594 min=110 max=58106.455999056809\n"
            "  access_size count=2717 mean=945.65218991534721 stddev=918.16342590663226\n"
            "  response_per_byte pooled=1.7056255337654895 mean=1.7056255337654895 ci_half=0\n"
            "point users=3 label=\"synthetic\" ops=3967 sessions=6 bytes=3201003\n"
            "  response_us count=3967 mean=1687.1031537484243 stddev=5628.2147152374082 min=110 max=64129.296657511964\n"
            "  access_size count=3349 mean=955.80859958196424 stddev=928.1247078754368\n"
            "  response_per_byte pooled=2.0908253478425411 mean=2.0908253478425411 ci_half=0\n");
  EXPECT_EQ(pin_hash("log", outcome.models.at(0).log.serialize()) +
                pin_hash("obs", outcome.obs_text),
            "log=fcca539bd0b507c3\n"
            "obs=74fb436a03c1de53\n");
}

TEST(UniversePins, RunWorkloadWithArrivalsAndFaults) {
  exp::WorkloadConfig config;
  config.num_users = 2;
  config.sessions_per_user = 3;
  config.seed = 23;
  traffic::ArrivalConfig arrivals;
  arrivals.rate_per_sec = 0.2;
  arrivals.sessions = 6;
  config.traffic.arrivals = arrivals;
  config.traffic.faults = pinned_faults();
  const exp::WorkloadOutput out = exp::run_workload(config);

  const std::string pin = "ops=" + std::to_string(out.total_ops) + "\nlog_ops=" +
                          std::to_string(out.log.size()) + "\n" +
                          pin_line("simulated_us", out.simulated_us) +
                          pin_line("response_per_byte", out.response_per_byte_us) +
                          pin_hash("log", out.log.serialize()) +
                          pin_hash("model_stats", out.model_stats);
  EXPECT_EQ(pin,
            "ops=3436\n"
            "log_ops=3436\n"
            "simulated_us=40784329.653074682\n"
            "response_per_byte=2.5358378836978437\n"
            "log=0111800054e0a052\n"
            "model_stats=07082a111ca0bcd0\n");
}

// --- USIM op-selection pins ------------------------------------------------
//
// The UniversePins above run the paper's independent op stream with one
// window per user, so they never reach the USIM's other selection paths.
// These pin the exact output of a USIM driven straight against an NFS
// model under each of them: Markov persistence (low and high), several
// concurrent windows per user, an op budget small enough to force
// emergency closes, and a cramped file system whose descriptor limit makes
// creat and open fail (and whose capacity runs out mid-run).  The expected
// values were recorded before the op selector was reworked; never
// regenerate them to make a change pass.

struct UsimPinRig {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  fsmodel::NfsModel model{simulation};
  core::CreatedFileSystem manifest;

  UsimPinRig(const core::UsimConfig& usim, fs::SimulatedFileSystem::Options fs_options,
             core::FscConfig fsc)
      : fsys(fs_options) {
    fsys.set_clock([this] { return simulation.now(); });
    fsc.num_users = usim.num_users;
    fsc.seed = usim.seed;
    manifest = core::FileSystemCreator(fsys, core::di86_file_profiles(), fsc).create();
  }
};

std::string usim_pin(const core::UsimConfig& usim,
                     fs::SimulatedFileSystem::Options fs_options = {},
                     core::FscConfig fsc = {}) {
  UsimPinRig rig(usim, fs_options, fsc);
  core::UserSimulator sim(rig.simulation, rig.fsys, rig.model, rig.manifest,
                          core::mixed_population(0.5), usim);
  sim.run();
  RunnerStats stats;
  for (const auto& record : sim.log().records()) stats.add(record);
  return stats_pin(stats) + "sessions=" + std::to_string(sim.sessions_completed()) +
         "\nevents=" + std::to_string(rig.simulation.events_processed()) + "\ndraws=" +
         std::to_string(sim.rng_draws()) + "\nopen_fds=" +
         std::to_string(rig.fsys.open_descriptor_count()) + "\n" +
         pin_line("simulated_us", rig.simulation.now()) + pin_hash("log", sim.log().serialize());
}

core::UsimConfig usim_pin_config(std::uint64_t seed) {
  core::UsimConfig usim;
  usim.num_users = 3;
  usim.sessions_per_user = 4;
  usim.seed = seed;
  return usim;
}

TEST(UsimPins, MarkovLowPersistence) {
  core::UsimConfig usim = usim_pin_config(41);
  usim.markov_persistence = 0.3;
  EXPECT_EQ(usim_pin(usim),
            "ops=6524\n"
            "bytes=5151390\n"
            "response_mean=1447.2341403423718\n"
            "response_var=28063090.920881882\n"
            "response_per_byte=1.832855895514351\n"
            "sessions=12\n"
            "events=21098\n"
            "draws=20640\n"
            "open_fds=0\n"
            "simulated_us=37749002.779453076\n"
            "log=9a72314d9a376efb\n");
}

TEST(UsimPins, MarkovHighPersistence) {
  core::UsimConfig usim = usim_pin_config(43);
  usim.markov_persistence = 0.9;
  EXPECT_EQ(usim_pin(usim),
            "ops=9750\n"
            "bytes=8060363\n"
            "response_mean=1817.0319436833377\n"
            "response_var=40035412.787490807\n"
            "response_per_byte=2.197923524153004\n"
            "sessions=12\n"
            "events=33547\n"
            "draws=30133\n"
            "open_fds=0\n"
            "simulated_us=73649815.536582455\n"
            "log=615303394278476e\n");
}

TEST(UsimPins, ThreeWindowsPerUser) {
  core::UsimConfig usim = usim_pin_config(47);
  usim.windows_per_user = 3;
  usim.sessions_per_user = 2;
  EXPECT_EQ(usim_pin(usim),
            "ops=9870\n"
            "bytes=7907671\n"
            "response_mean=5700.6560401119914\n"
            "response_var=524802303.46984559\n"
            "response_per_byte=7.1153029907168923\n"
            "sessions=18\n"
            "events=32834\n"
            "draws=21852\n"
            "open_fds=0\n"
            "simulated_us=36803387.533901021\n"
            "log=cef3d7f4668d3921\n");
}

TEST(UsimPins, OpBudgetForcesEmergencyCloses) {
  core::UsimConfig usim = usim_pin_config(53);
  usim.max_ops_per_session = 120;
  usim.windows_per_user = 2;
  usim.markov_persistence = 0.5;
  EXPECT_EQ(usim_pin(usim),
            "ops=2718\n"
            "bytes=1655875\n"
            "response_mean=7000.7787312841365\n"
            "response_var=242683079.4012444\n"
            "response_per_byte=11.491275966863631\n"
            "sessions=24\n"
            "events=10794\n"
            "draws=8960\n"
            "open_fds=0\n"
            "simulated_us=12520162.59587393\n"
            "log=b8d45feaaf263d7f\n");
}

TEST(UsimPins, CrampedFileSystemFailsCreatAndOpen) {
  core::UsimConfig usim = usim_pin_config(59);
  usim.windows_per_user = 2;
  fs::SimulatedFileSystem::Options fs_options;
  fs_options.max_open_files = 8;
  fs_options.capacity_bytes = 3 * 1024 * 1024;
  core::FscConfig fsc;
  fsc.files_per_user = 24;
  fsc.system_files = 48;
  EXPECT_EQ(usim_pin(usim, fs_options, fsc),
            "ops=1627\n"
            "bytes=1398012\n"
            "response_mean=1932.563725737042\n"
            "response_var=52874977.504359707\n"
            "response_per_byte=2.2491088644261756\n"
            "sessions=24\n"
            "events=5531\n"
            "draws=4857\n"
            "open_fds=0\n"
            "simulated_us=15568041.506768616\n"
            "log=770b85a8b423b95c\n");
}

}  // namespace
}  // namespace wlgen::runner
