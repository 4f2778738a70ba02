#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fsmodel/disk.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/model.h"
#include "net/network.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "util/flat_map.h"

namespace wlgen::fsmodel {

/// Tunables for NfsModel.  Defaults are calibrated so a single default user
/// (exp(1024)-byte accesses, exp(5000) µs think time) measures a mean
/// response in the low milliseconds with standard deviation several times
/// the mean — the regime of paper Table 5.3.
struct NfsParams {
  std::uint64_t block_size = 8192;          ///< NFS transfer block
  std::size_t client_cache_blocks = 384;    ///< ~3 MB client buffer cache
  std::size_t client_attr_entries = 256;    ///< client attribute cache
  std::size_t server_cache_blocks = 2048;   ///< ~16 MB server buffer cache
  std::size_t server_attr_entries = 4096;   ///< server inode cache
  double client_overhead_us = 220.0;        ///< syscall + VFS + cache lookup on a ~1.5 MIPS client
  double client_hit_us = 110.0;             ///< cache-hit copy per block
  double client_byte_copy_us_per_kb = 15.0; ///< memcpy cost per KiB moved
  double server_cpu_us = 250.0;             ///< RPC decode + FS code per call
  double server_cache_hit_us = 180.0;       ///< server buffer-cache copy
  std::uint64_t rpc_request_bytes = 128;    ///< NFS call message payload
  std::uint64_t rpc_reply_meta_bytes = 96;  ///< reply envelope sans data
  net::NetworkParams network = {};          ///< shared Ethernet segment
  DiskParams disk = {};                     ///< server disk
  bool async_writes = true;                 ///< client write-behind (biod)
  /// Client read-ahead depth in blocks — the read half of the biod daemons
  /// (SunOS prefetches on sequential reads just as it write-behinds).  After
  /// a sequential read the client fetches the next `readahead_blocks`
  /// uncached blocks in the background: the transfer consumes the network,
  /// server CPU/cache/disk (so contended capacity is still spent) but its
  /// latency is hidden from the issuing call, which is what keeps the
  /// per-byte floor of large sequential transfers near the copy cost
  /// (Figure 5.12's amortisation argument).  0 disables.
  std::size_t readahead_blocks = 1;
  /// Number of client workstations sharing the network and server.  The
  /// paper's testbed is one SUN 3/50 (num_clients = 1); larger values model
  /// the "distributed system, consisting of possible different types of
  /// machines" the paper's introduction targets — each client has its own
  /// CPU and caches, so moving users onto separate workstations removes the
  /// client bottleneck while keeping the shared server and Ethernet.
  std::size_t num_clients = 1;
};

/// Performance model of the paper's measurement target: SUN NFS with all
/// user files on a remote server (section 5.1: "all the files accessed were
/// stored in a SUN 4/490 file server").
///
/// Topology: `num_clients` client workstations (the paper: one SUN 3/50
/// shared by 1–6 users), one Ethernet segment, one server with a CPU and a
/// FCFS disk.  Client-side syscall work contends on the owning client's CPU
/// — with zero think time that is what makes response times grow
/// near-linearly with users (Figure 5.6) even when caches absorb most
/// accesses.  Per-client block + attribute caches and a server buffer cache
/// are real LRU structures driven by the actual op stream, so hit ratios
/// emerge from workload locality rather than being dialled in.
class NfsModel final : public FileSystemModel {
 public:
  NfsModel(sim::Simulation& sim, NfsParams params = {});

  std::string name() const override { return "nfs"; }
  std::string stats_summary() const override;
  void reset_stats() override;
  void flush_caches() override;

  const NfsParams& params() const { return params_; }
  std::size_t num_clients() const { return clients_.size(); }

  /// Client-0 views (the paper's single-workstation accessors) plus
  /// per-client variants.
  const LruCache& client_cache(std::size_t client = 0) const;
  const LruCache& client_attr_cache(std::size_t client = 0) const;
  sim::Resource& client_cpu(std::size_t client = 0);

  const LruCache& server_cache() const { return server_cache_; }
  sim::Resource& server_disk() { return server_disk_; }
  sim::Resource& server_cpu() { return server_cpu_; }
  net::Network& network() { return network_; }
  std::uint64_t rpc_count() const { return rpcs_; }
  std::uint64_t readahead_count() const { return readaheads_; }

 protected:
  sim::StageChain plan_op(const FsOp& op) override;

 private:
  /// Per-workstation state: its CPU and its caches.
  struct Client {
    Client(sim::Simulation& sim, const NfsParams& params, std::size_t index);

    sim::Resource cpu;
    LruCache cache;
    LruCache attr;
    // Per-file state, erased when the file is unlinked (inode ids are never
    // reused, so an unlinked file's entries would otherwise live forever).
    util::FlatIdMap<std::uint64_t> dirty_bytes;  // file -> unflushed
    util::FlatIdMap<std::uint64_t> last_end;     // file -> last read end
  };

  Client& client_for(const FsOp& op);
  std::uint64_t block_key(std::uint64_t file_id, std::uint64_t block_index) const;
  void append_block_fetch(sim::StageChain& chain, std::uint64_t key, bool sequential);
  void plan_block_read(sim::StageChain& chain, Client& client, std::uint64_t file_id,
                       std::uint64_t block, bool sequential);
  void schedule_async_flush(std::uint64_t bytes);
  void schedule_readahead(Client& client, std::uint64_t file_id, std::uint64_t first_block,
                          std::uint64_t file_blocks);
  sim::StageChain plan_read(const FsOp& op);
  sim::StageChain plan_write(const FsOp& op);
  sim::StageChain plan_metadata(const FsOp& op, bool mutates);
  double copy_cost_us(std::uint64_t bytes) const;

  sim::Simulation& sim_;
  NfsParams params_;
  net::Network network_;
  sim::Resource server_cpu_;
  sim::Resource server_disk_;
  std::vector<std::unique_ptr<Client>> clients_;
  LruCache server_cache_;
  LruCache server_attr_;
  std::uint64_t rpcs_ = 0;
  std::uint64_t async_flushes_ = 0;
  std::uint64_t readaheads_ = 0;
};

}  // namespace wlgen::fsmodel
