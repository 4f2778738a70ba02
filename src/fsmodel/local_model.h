#pragma once

#include <cstdint>

#include "fsmodel/disk.h"
#include "fsmodel/lru_cache.h"
#include "fsmodel/model.h"
#include "sim/resource.h"
#include "sim/simulation.h"
#include "util/flat_map.h"

namespace wlgen::fsmodel {

/// Tunables for LocalDiskModel.
struct LocalParams {
  std::uint64_t block_size = 4096;         ///< UFS block
  std::size_t buffer_cache_blocks = 1024;  ///< ~4 MB kernel buffer cache
  std::size_t inode_cache_entries = 512;   ///< in-core inode table
  double syscall_overhead_us = 120.0;      ///< trap + FS code (same-era CPU, no RPC layer)
  double cache_hit_us = 45.0;              ///< buffer-cache copy per block
  double byte_copy_us_per_kb = 10.0;       ///< memcpy per KiB moved
  DiskParams disk = {};                    ///< the local spindle
  bool async_writes = true;                ///< delayed-write buffer cache
};

/// Performance model of a conventional local UNIX file system (UFS-style
/// buffer cache over one local disk).  This is the "local disk" alternative
/// in the paper's file-system comparison procedure (section 5.3): same
/// client machine, no network, a private spindle.
class LocalDiskModel final : public FileSystemModel {
 public:
  LocalDiskModel(sim::Simulation& sim, LocalParams params = {});

  std::string name() const override { return "local"; }
  std::string stats_summary() const override;
  void reset_stats() override;
  void flush_caches() override;

  const LruCache& buffer_cache() const { return buffer_cache_; }
  sim::Resource& disk_resource() { return disk_; }
  sim::Resource& cpu_resource() { return cpu_; }
  const LocalParams& params() const { return params_; }

 protected:
  sim::StageChain plan_op(const FsOp& op) override;

 private:
  std::uint64_t block_key(std::uint64_t file_id, std::uint64_t block_index) const;
  void schedule_async_flush(std::uint64_t bytes);
  double copy_cost_us(std::uint64_t bytes) const;

  sim::Simulation& sim_;
  LocalParams params_;
  sim::Resource cpu_;
  sim::Resource disk_;
  LruCache buffer_cache_;
  LruCache inode_cache_;
  // Per-file state, erased on unlink (inode ids are never reused).
  util::FlatIdMap<std::uint64_t> dirty_bytes_;
  util::FlatIdMap<std::uint64_t> last_end_;
  std::uint64_t async_flushes_ = 0;
};

}  // namespace wlgen::fsmodel
