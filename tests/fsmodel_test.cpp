// Unit tests for src/net and src/fsmodel: LRU cache behaviour, disk timing,
// network cost accounting, and the latency structure of the three
// file-system performance models.

#include <gtest/gtest.h>

#include <cmath>

#include "fsmodel/disk.h"
#include "fsmodel/local_model.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/model.h"
#include "fsmodel/nfs_model.h"
#include "fsmodel/wholefile_model.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace wlgen::fsmodel {
namespace {

/// Executes one op's chain to completion and returns its response time.
double run_op(sim::Simulation& sim, FileSystemModel& model, const FsOp& op) {
  double elapsed = -1.0;
  sim::execute_chain(sim, model.plan(op), [&](double t) { elapsed = t; });
  sim.run();
  return elapsed;
}

FsOp read_op(std::uint64_t file, std::uint64_t offset, std::uint64_t size) {
  FsOp op;
  op.type = FsOpType::read;
  op.file_id = file;
  op.offset = offset;
  op.size = size;
  op.file_size = 1 << 20;
  return op;
}

TEST(LruCacheTest, HitMissAccounting) {
  LruCache cache(2);
  EXPECT_FALSE(cache.access(1));
  cache.insert(1);
  EXPECT_TRUE(cache.access(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_ratio(), 0.5);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.insert(1);
  cache.insert(2);
  cache.access(1);          // 1 is now most recent
  EXPECT_TRUE(cache.insert(3));  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(LruCacheTest, InsertRefreshesRecency) {
  LruCache cache(2);
  cache.insert(1);
  cache.insert(2);
  cache.insert(1);  // refresh, no eviction
  cache.insert(3);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache cache(4);
  cache.insert(1);
  cache.insert(2);
  cache.erase(1);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(LruCache(0), std::invalid_argument);
}

TEST(DiskModelTest, ServiceTimeComposition) {
  DiskParams p;
  p.avg_seek_us = 100.0;
  p.avg_rotation_us = 50.0;
  p.transfer_bytes_per_us = 2.0;
  DiskModel disk(p);
  EXPECT_DOUBLE_EQ(disk.io_time_us(200), 100.0 + 50.0 + 100.0);
  EXPECT_DOUBLE_EQ(disk.sequential_io_time_us(200), 25.0 + 100.0);
  EXPECT_LT(disk.sequential_io_time_us(4096), disk.io_time_us(4096));
}

TEST(NetworkTest, TransmissionAndLatency) {
  sim::Simulation sim;
  net::NetworkParams p;
  p.latency_us = 100.0;
  p.bandwidth_bytes_per_us = 10.0;
  p.per_message_overhead_bytes = 0;
  net::Network netw(sim, p);
  EXPECT_DOUBLE_EQ(netw.transmission_time_us(1000), 100.0);

  sim::StageChain chain;
  netw.append_message_stages(chain, 1000);
  double elapsed = -1.0;
  sim::execute_chain(sim, chain, [&](double t) { elapsed = t; });
  sim.run();
  EXPECT_DOUBLE_EQ(elapsed, 200.0);  // transmit 100 + propagate 100
  EXPECT_EQ(netw.messages_sent(), 1u);
  EXPECT_EQ(netw.payload_bytes_sent(), 1000u);
}

TEST(NetworkTest, MediumContention) {
  sim::Simulation sim;
  net::NetworkParams p;
  p.latency_us = 0.0;
  p.bandwidth_bytes_per_us = 1.0;
  p.per_message_overhead_bytes = 0;
  net::Network netw(sim, p);
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    sim::StageChain chain;
    netw.append_message_stages(chain, 100);
    sim::execute_chain(sim, chain, [&](double) { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 100.0);
  EXPECT_DOUBLE_EQ(done[1], 200.0);  // serialized on the shared medium
}

// ---------------------------------------------------------------------------
// NFS model.
// ---------------------------------------------------------------------------

TEST(NfsModelTest, ColdReadHitsDiskWarmReadDoesNot) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  const double cold = run_op(sim, nfs, read_op(1, 0, 1024));
  EXPECT_EQ(nfs.server_disk().completed(), 1u);
  const double warm = run_op(sim, nfs, read_op(1, 0, 1024));
  EXPECT_EQ(nfs.server_disk().completed(), 1u);  // no new disk I/O
  EXPECT_LT(warm, cold / 10.0);
  EXPECT_LT(warm, 1000.0);   // client hit: sub-millisecond
  EXPECT_GT(cold, 10000.0);  // cold miss: disk-dominated
}

TEST(NfsModelTest, ReadSpanningBlocksFetchesEachBlock) {
  sim::Simulation sim;
  NfsParams params;
  NfsModel nfs(sim, params);
  run_op(sim, nfs, read_op(1, 0, params.block_size * 3));
  EXPECT_EQ(nfs.server_disk().completed(), 3u);
}

TEST(NfsModelTest, ServerCacheServesSecondClientMiss) {
  sim::Simulation sim;
  NfsParams params;
  params.client_cache_blocks = 1;  // client forgets immediately
  NfsModel nfs(sim, params);
  run_op(sim, nfs, read_op(1, 0, 1024));
  run_op(sim, nfs, read_op(2, 0, 1024));  // evicts file 1's block from client
  const std::uint64_t disk_before = nfs.server_disk().completed();
  const double t = run_op(sim, nfs, read_op(1, 0, 1024));  // client miss, server hit
  EXPECT_EQ(nfs.server_disk().completed(), disk_before);
  EXPECT_GT(t, 1000.0);    // had to cross the network
  EXPECT_LT(t, 20000.0);   // but no disk access
}

TEST(NfsModelTest, AsyncWritesReturnFastButLoadServer) {
  sim::Simulation sim;
  NfsParams params;
  NfsModel nfs(sim, params);
  FsOp op;
  op.type = FsOpType::write;
  op.file_id = 9;
  op.offset = 0;
  op.size = params.block_size;  // a full block triggers a background flush
  double elapsed = -1.0;
  sim::execute_chain(sim, nfs.plan(op), [&](double t) { elapsed = t; });
  EXPECT_LT(elapsed, 0.0);  // still pending: response resolves on its own
  sim.run();
  EXPECT_LT(elapsed, 1000.0);                    // write-behind: fast response
  EXPECT_EQ(nfs.server_disk().completed(), 1u);  // flush hit the disk anyway
}

TEST(NfsModelTest, SyncWritesPayTheFullPath) {
  sim::Simulation sim;
  NfsParams params;
  params.async_writes = false;
  NfsModel nfs(sim, params);
  FsOp op;
  op.type = FsOpType::write;
  op.file_id = 9;
  op.size = 1024;
  const double t = run_op(sim, nfs, op);
  EXPECT_GT(t, 10000.0);  // network + server + synchronous disk
}

TEST(NfsModelTest, CloseFlushesDirtyData) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  FsOp write;
  write.type = FsOpType::write;
  write.file_id = 9;
  write.size = 100;  // less than a block: stays dirty
  run_op(sim, nfs, write);
  FsOp close;
  close.type = FsOpType::close;
  close.file_id = 9;
  const double t = run_op(sim, nfs, close);
  EXPECT_GT(t, 10000.0);  // synchronous flush on close
  const double t2 = run_op(sim, nfs, close);
  EXPECT_LT(t2, 1000.0);  // nothing left to flush
}

TEST(NfsModelTest, AttributeCacheMakesReopenCheap) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  FsOp open;
  open.type = FsOpType::open;
  open.file_id = 5;
  const double cold = run_op(sim, nfs, open);
  const double warm = run_op(sim, nfs, open);
  EXPECT_LT(warm, cold);
  EXPECT_LT(warm, 300.0);  // pure client-side
}

TEST(NfsModelTest, UnlinkInvalidatesAttributeCache) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  FsOp open;
  open.type = FsOpType::open;
  open.file_id = 5;
  run_op(sim, nfs, open);
  FsOp unlink;
  unlink.type = FsOpType::unlink;
  unlink.file_id = 5;
  run_op(sim, nfs, unlink);
  EXPECT_FALSE(nfs.client_attr_cache().contains(5));
}

// Unlink drops the file's per-client read position and dirty count (inode
// ids are never reused, so the entries would otherwise live forever): a
// read continuing where the unlinked file's last read ended no longer
// counts as sequential, and a later close has nothing to flush.
TEST(NfsModelTest, UnlinkForgetsPerFileState) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  run_op(sim, nfs, read_op(5, 0, 1024));
  FsOp write;
  write.type = FsOpType::write;
  write.file_id = 5;
  write.size = 1000;
  run_op(sim, nfs, write);
  FsOp unlink;
  unlink.type = FsOpType::unlink;
  unlink.file_id = 5;
  run_op(sim, nfs, unlink);
  const std::uint64_t rpcs = nfs.rpc_count();
  FsOp close;
  close.type = FsOpType::close;
  close.file_id = 5;
  run_op(sim, nfs, close);
  EXPECT_EQ(nfs.rpc_count(), rpcs);  // no dirty remainder left to flush
  run_op(sim, nfs, read_op(5, 1000, 1024));
  EXPECT_EQ(nfs.readahead_count(), 0u);  // not a sequential continuation
}

TEST(NfsModelTest, MetadataMutationsHitDisk) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  for (const FsOpType type : {FsOpType::creat, FsOpType::unlink, FsOpType::mkdir}) {
    const std::uint64_t before = nfs.server_disk().completed();
    FsOp op;
    op.type = type;
    op.file_id = 77;
    run_op(sim, nfs, op);
    EXPECT_EQ(nfs.server_disk().completed(), before + 1) << to_string(type);
  }
}

TEST(NfsModelTest, LseekIsClientOnly) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  FsOp op;
  op.type = FsOpType::lseek;
  const double t = run_op(sim, nfs, op);
  EXPECT_LT(t, nfs.params().client_overhead_us);
  EXPECT_EQ(nfs.rpc_count(), 0u);
}

TEST(NfsModelTest, ContentionGrowsResponseTime) {
  // Two cold reads of different files issued together: the second queues
  // behind the first at the server disk — the Fig 5.6 mechanism in miniature.
  sim::Simulation sim;
  NfsModel nfs(sim);
  std::vector<double> elapsed;
  sim::execute_chain(sim, nfs.plan(read_op(1, 0, 1024)),
                     [&](double t) { elapsed.push_back(t); });
  sim::execute_chain(sim, nfs.plan(read_op(2, 0, 1024)),
                     [&](double t) { elapsed.push_back(t); });
  sim.run();
  ASSERT_EQ(elapsed.size(), 2u);
  EXPECT_GT(elapsed[1], elapsed[0] * 1.5);
}

TEST(NfsModelTest, ColdFirstReadDoesNotArmReadahead) {
  // Read-ahead arms only on a *proven* sequential stream (a continuation at
  // offset > 0) — a file's cold first access must not prefetch.
  sim::Simulation sim;
  NfsModel nfs(sim);
  run_op(sim, nfs, read_op(1, 0, 1024));
  EXPECT_EQ(nfs.readahead_count(), 0u);
  EXPECT_EQ(nfs.server_disk().completed(), 1u);
}

TEST(NfsModelTest, SequentialContinuationPrefetchesTheNextBlock) {
  sim::Simulation sim;
  NfsParams params;
  NfsModel nfs(sim, params);
  run_op(sim, nfs, read_op(1, 0, params.block_size));  // block 0, cold, no prefetch
  ASSERT_EQ(nfs.readahead_count(), 0u);
  // Continuation into block 1: its own fetch plus a background prefetch of
  // block 2.
  run_op(sim, nfs, read_op(1, params.block_size, 1024));
  EXPECT_EQ(nfs.readahead_count(), 1u);
  EXPECT_EQ(nfs.server_disk().completed(), 3u);
  // Jumping straight to the prefetched block is a client cache hit: no new
  // disk I/O, sub-millisecond response.
  const double hit = run_op(sim, nfs, read_op(1, 2 * params.block_size, 1024));
  EXPECT_EQ(nfs.server_disk().completed(), 3u);
  EXPECT_LT(hit, 1000.0);
}

TEST(NfsModelTest, ReadaheadStopsAtEof) {
  // A two-block file: the continuation into its last block has nothing left
  // to prefetch (the client holds the attributes and never reads past EOF).
  sim::Simulation sim;
  NfsParams params;
  NfsModel nfs(sim, params);
  FsOp op = read_op(1, 0, params.block_size);
  op.file_size = 2 * params.block_size;
  run_op(sim, nfs, op);
  op.offset = params.block_size;
  op.size = 1024;
  run_op(sim, nfs, op);
  EXPECT_EQ(nfs.readahead_count(), 0u);
  EXPECT_EQ(nfs.server_disk().completed(), 2u);
}

TEST(NfsModelTest, ReadaheadDisabledByParameter) {
  sim::Simulation sim;
  NfsParams params;
  params.readahead_blocks = 0;
  NfsModel nfs(sim, params);
  run_op(sim, nfs, read_op(1, 0, params.block_size));
  run_op(sim, nfs, read_op(1, params.block_size, 1024));
  EXPECT_EQ(nfs.readahead_count(), 0u);
  EXPECT_EQ(nfs.server_disk().completed(), 2u);
}

TEST(NfsModelTest, ResetStatsClearsCounters) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  run_op(sim, nfs, read_op(1, 0, 8192));
  run_op(sim, nfs, read_op(1, 8192, 1024));  // arms read-ahead
  ASSERT_GT(nfs.readahead_count(), 0u);
  nfs.reset_stats();
  EXPECT_EQ(nfs.rpc_count(), 0u);
  EXPECT_EQ(nfs.readahead_count(), 0u);
  EXPECT_EQ(nfs.client_cache().hits() + nfs.client_cache().misses(), 0u);
  EXPECT_FALSE(nfs.stats_summary().empty());
}

// ---------------------------------------------------------------------------
// Local-disk model.
// ---------------------------------------------------------------------------

TEST(LocalModelTest, CacheHitAvoidsDisk) {
  sim::Simulation sim;
  LocalDiskModel local(sim);
  const double cold = run_op(sim, local, read_op(1, 0, 1024));
  const std::uint64_t disk_ops = local.disk_resource().completed();
  const double warm = run_op(sim, local, read_op(1, 0, 1024));
  EXPECT_EQ(local.disk_resource().completed(), disk_ops);
  EXPECT_LT(warm, cold / 10.0);
}

TEST(LocalModelTest, WarmReadFasterThanNfsWarmRead) {
  sim::Simulation sim_local;
  LocalDiskModel local(sim_local);
  run_op(sim_local, local, read_op(1, 0, 1024));
  const double local_warm = run_op(sim_local, local, read_op(1, 0, 1024));

  sim::Simulation sim_nfs;
  NfsModel nfs(sim_nfs);
  run_op(sim_nfs, nfs, read_op(1, 0, 1024));
  const double nfs_warm = run_op(sim_nfs, nfs, read_op(1, 0, 1024));
  EXPECT_LT(local_warm, nfs_warm);
}

TEST(LocalModelTest, MetadataCachedAfterFirstTouch) {
  sim::Simulation sim;
  LocalDiskModel local(sim);
  FsOp op;
  op.type = FsOpType::open;
  op.file_id = 3;
  const double cold = run_op(sim, local, op);
  const double warm = run_op(sim, local, op);
  EXPECT_LT(warm, cold);
}

TEST(LocalModelTest, AsyncWriteFastPath) {
  sim::Simulation sim;
  LocalDiskModel local(sim);
  FsOp op;
  op.type = FsOpType::write;
  op.file_id = 3;
  op.size = 4096;
  double elapsed = -1.0;
  sim::execute_chain(sim, local.plan(op), [&](double t) { elapsed = t; });
  sim.run();
  EXPECT_LT(elapsed, 500.0);
  EXPECT_GE(local.disk_resource().completed(), 1u);  // flushed in background
}

TEST(LocalModelTest, UnlinkDropsDirtyBytes) {
  sim::Simulation sim;
  LocalDiskModel local(sim);
  FsOp write;
  write.type = FsOpType::write;
  write.file_id = 3;
  write.size = 1000;  // below one block: stays dirty until close
  run_op(sim, local, write);
  FsOp unlink;
  unlink.type = FsOpType::unlink;
  unlink.file_id = 3;
  run_op(sim, local, unlink);
  const std::uint64_t disk_ops = local.disk_resource().completed();
  FsOp close;
  close.type = FsOpType::close;
  close.file_id = 3;
  run_op(sim, local, close);
  EXPECT_EQ(local.disk_resource().completed(), disk_ops);  // nothing flushed
}

// ---------------------------------------------------------------------------
// Whole-file (AFS-like) model.
// ---------------------------------------------------------------------------

TEST(WholeFileModelTest, OpenCostScalesWithFileSize) {
  sim::Simulation sim;
  WholeFileCacheModel afs(sim);
  FsOp small;
  small.type = FsOpType::open;
  small.file_id = 1;
  small.file_size = 1024;
  FsOp large;
  large.type = FsOpType::open;
  large.file_id = 2;
  large.file_size = 512 * 1024;
  const double t_small = run_op(sim, afs, small);
  const double t_large = run_op(sim, afs, large);
  EXPECT_GT(t_large, t_small * 5.0);
  EXPECT_EQ(afs.fetches(), 2u);
}

TEST(WholeFileModelTest, CachedOpenIsLocal) {
  sim::Simulation sim;
  WholeFileCacheModel afs(sim);
  FsOp open;
  open.type = FsOpType::open;
  open.file_id = 1;
  open.file_size = 64 * 1024;
  run_op(sim, afs, open);
  const double warm = run_op(sim, afs, open);
  EXPECT_LT(warm, 500.0);
  EXPECT_EQ(afs.fetches(), 1u);
}

TEST(WholeFileModelTest, ReadsAreLocalAfterFetch) {
  sim::Simulation sim;
  WholeFileCacheModel afs(sim);
  FsOp open;
  open.type = FsOpType::open;
  open.file_id = 1;
  open.file_size = 64 * 1024;
  run_op(sim, afs, open);
  const double read_t = run_op(sim, afs, read_op(1, 0, 8192));
  EXPECT_LT(read_t, 500.0);  // no network, no server disk
}

TEST(WholeFileModelTest, DirtyCloseStoresBack) {
  sim::Simulation sim;
  WholeFileCacheModel afs(sim);
  FsOp creat;
  creat.type = FsOpType::creat;
  creat.file_id = 7;
  run_op(sim, afs, creat);
  FsOp write;
  write.type = FsOpType::write;
  write.file_id = 7;
  write.size = 10000;
  run_op(sim, afs, write);
  FsOp close;
  close.type = FsOpType::close;
  close.file_id = 7;
  const double t = run_op(sim, afs, close);
  EXPECT_EQ(afs.stores(), 1u);
  EXPECT_GT(t, 10000.0);  // store-back crosses network + server disk
  // A clean close is local.
  const double t2 = run_op(sim, afs, close);
  EXPECT_LT(t2, 500.0);
  EXPECT_EQ(afs.stores(), 1u);
}

TEST(WholeFileModelTest, ModelNamesDistinct) {
  sim::Simulation sim;
  NfsModel nfs(sim);
  LocalDiskModel local(sim);
  WholeFileCacheModel afs(sim);
  EXPECT_EQ(nfs.name(), "nfs");
  EXPECT_EQ(local.name(), "local");
  EXPECT_EQ(afs.name(), "wholefile");
}

TEST(ModelOps, ToStringCoversAllOps) {
  for (const FsOpType type : {FsOpType::open, FsOpType::close, FsOpType::read, FsOpType::write,
                              FsOpType::creat, FsOpType::unlink, FsOpType::stat, FsOpType::lseek,
                              FsOpType::mkdir, FsOpType::readdir}) {
    EXPECT_STRNE(to_string(type), "unknown");
  }
  EXPECT_TRUE(is_data_op(FsOpType::read));
  EXPECT_TRUE(is_data_op(FsOpType::write));
  EXPECT_FALSE(is_data_op(FsOpType::open));
}

}  // namespace
}  // namespace wlgen::fsmodel
