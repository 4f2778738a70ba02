#include "fsmodel/local_model.h"

#include <sstream>

namespace wlgen::fsmodel {

namespace {
constexpr std::uint64_t kBlockKeyShift = 24;
}

LocalDiskModel::LocalDiskModel(sim::Simulation& sim, LocalParams params)
    : sim_(sim),
      params_(params),
      cpu_(sim, "local-cpu", 1),
      disk_(sim, "local-disk", 1),
      buffer_cache_(params.buffer_cache_blocks),
      inode_cache_(params.inode_cache_entries) {}

std::uint64_t LocalDiskModel::block_key(std::uint64_t file_id, std::uint64_t block_index) const {
  return (file_id << kBlockKeyShift) ^ block_index;
}

double LocalDiskModel::copy_cost_us(std::uint64_t bytes) const {
  return params_.byte_copy_us_per_kb * static_cast<double>(bytes) / 1024.0;
}

void LocalDiskModel::schedule_async_flush(std::uint64_t bytes) {
  DiskModel disk(params_.disk);
  sim::StageChain flush;
  flush.push_back(sim::Stage::make_use(disk_, disk.io_time_us(bytes)));
  ++async_flushes_;
  sim::execute_chain(sim_, std::move(flush), [](sim::SimTime) {});
}

sim::StageChain LocalDiskModel::plan_op(const FsOp& op) {
  DiskModel disk(params_.disk);
  sim::StageChain chain;
  switch (op.type) {
    case FsOpType::read: {
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us + copy_cost_us(op.size)));
      if (op.size == 0) break;
      const std::uint64_t first = op.offset / params_.block_size;
      const std::uint64_t last = (op.offset + op.size - 1) / params_.block_size;
      const std::uint64_t* last_end = last_end_.find(op.file_id);
      const bool sequential = (last_end != nullptr ? *last_end : 0) == op.offset;
      for (std::uint64_t b = first; b <= last; ++b) {
        const std::uint64_t key = block_key(op.file_id, b);
        if (buffer_cache_.access(key)) {
          chain.push_back(sim::Stage::make_use(cpu_, params_.cache_hit_us));
        } else {
          const double service = (sequential || b != first)
                                     ? disk.sequential_io_time_us(params_.block_size)
                                     : disk.io_time_us(params_.block_size);
          chain.push_back(sim::Stage::make_use(disk_, service));
          buffer_cache_.insert(key);
        }
      }
      last_end_[op.file_id] = op.offset + op.size;
      break;
    }
    case FsOpType::write: {
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us + copy_cost_us(op.size)));
      if (op.size == 0) break;
      const std::uint64_t first = op.offset / params_.block_size;
      const std::uint64_t last = (op.offset + op.size - 1) / params_.block_size;
      for (std::uint64_t b = first; b <= last; ++b) buffer_cache_.insert(block_key(op.file_id, b));
      last_end_[op.file_id] = op.offset + op.size;
      if (params_.async_writes) {
        std::uint64_t& dirty = dirty_bytes_[op.file_id];
        dirty += op.size;
        while (dirty >= params_.block_size) {
          dirty -= params_.block_size;
          schedule_async_flush(params_.block_size);
        }
      } else {
        chain.push_back(sim::Stage::make_use(disk_, disk.io_time_us(op.size)));
      }
      break;
    }
    case FsOpType::open:
    case FsOpType::stat:
    case FsOpType::readdir: {
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us));
      if (!inode_cache_.access(op.file_id)) {
        chain.push_back(sim::Stage::make_use(disk_, disk.metadata_time_us()));
        inode_cache_.insert(op.file_id);
      }
      break;
    }
    case FsOpType::creat:
    case FsOpType::unlink:
    case FsOpType::mkdir: {
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us));
      // UFS writes metadata synchronously for crash consistency.
      chain.push_back(sim::Stage::make_use(disk_, disk.metadata_time_us()));
      if (op.type == FsOpType::unlink) {
        inode_cache_.erase(op.file_id);
        dirty_bytes_.erase(op.file_id);
        last_end_.erase(op.file_id);
      } else {
        inode_cache_.insert(op.file_id);
      }
      break;
    }
    case FsOpType::close: {
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us * 0.5));
      // Delayed writes remain in the buffer cache past close (classic UNIX);
      // push whatever is left to the background flusher.
      std::uint64_t* dirty = dirty_bytes_.find(op.file_id);
      if (dirty != nullptr && *dirty > 0) {
        schedule_async_flush(*dirty);
        *dirty = 0;
      }
      break;
    }
    case FsOpType::lseek:
      chain.push_back(sim::Stage::make_use(cpu_, params_.syscall_overhead_us * 0.5));
      break;
  }
  return chain;
}

std::string LocalDiskModel::stats_summary() const {
  std::ostringstream out;
  out << "local model: async_flushes=" << async_flushes_ << "\n";
  out << "  buffer cache: hits=" << buffer_cache_.hits() << " misses=" << buffer_cache_.misses()
      << " ratio=" << buffer_cache_.hit_ratio() << "\n";
  out << "  disk: completed=" << disk_.completed() << " utilization=" << disk_.utilization()
      << "\n";
  return out.str();
}

void LocalDiskModel::reset_stats() {
  cpu_.reset_stats();
  buffer_cache_.reset_stats();
  inode_cache_.reset_stats();
  disk_.reset_stats();
  async_flushes_ = 0;
}

void LocalDiskModel::flush_caches() {
  buffer_cache_.clear();
  inode_cache_.clear();
  dirty_bytes_.clear();
  last_end_.clear();
}

}  // namespace wlgen::fsmodel
