#pragma once

#include <cstdint>

#include "fsmodel/disk.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/model.h"
#include "net/network.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "util/flat_map.h"

namespace wlgen::fsmodel {

/// Tunables for WholeFileCacheModel.
struct WholeFileParams {
  std::size_t cache_files = 512;          ///< local whole-file cache entries
  double open_check_us = 120.0;           ///< callback validity check on hit
  double local_io_us = 55.0;              ///< per read/write once cached
  double byte_copy_us_per_kb = 10.0;      ///< memcpy per KiB moved
  double server_cpu_us = 300.0;           ///< per fetch/store RPC
  std::uint64_t rpc_request_bytes = 160;  ///< control message payload
  std::uint64_t max_transfer_bytes = 1u << 20;  ///< cap per fetch (sanity)
  net::NetworkParams network = {};
  DiskParams disk = {};
};

/// Performance model of an Andrew-style whole-file-caching distributed file
/// system — the comparator in Howard et al. (cited by the paper, section
/// 2.1): open() fetches the entire file to the local cache, reads and writes
/// are then local, and close() stores modified files back to the server.
///
/// Against NFS the expected contrast (bench/compare_fs) is expensive opens of
/// large cold files but near-local data operations — exactly the trade-off
/// the Andrew measurements report.
class WholeFileCacheModel final : public FileSystemModel {
 public:
  WholeFileCacheModel(sim::Simulation& sim, WholeFileParams params = {});

  std::string name() const override { return "wholefile"; }
  std::string stats_summary() const override;
  void reset_stats() override;
  void flush_caches() override;

  const LruCache& file_cache() const { return file_cache_; }
  const WholeFileParams& params() const { return params_; }
  std::uint64_t fetches() const { return fetches_; }
  std::uint64_t stores() const { return stores_; }

 protected:
  sim::StageChain plan_op(const FsOp& op) override;

 private:
  void append_transfer(sim::StageChain& chain, std::uint64_t bytes, bool to_client);

  sim::Simulation& sim_;
  WholeFileParams params_;
  net::Network network_;
  sim::Resource client_cpu_;
  sim::Resource server_cpu_;
  sim::Resource server_disk_;
  LruCache file_cache_;
  util::FlatIdMap<bool> dirty_files_;  ///< present = modified since the last store
  util::FlatIdMap<std::uint64_t> cached_size_;
  std::uint64_t fetches_ = 0;
  std::uint64_t stores_ = 0;
};

}  // namespace wlgen::fsmodel
