#include "fsmodel/wholefile_model.h"

#include <algorithm>
#include <sstream>

namespace wlgen::fsmodel {

WholeFileCacheModel::WholeFileCacheModel(sim::Simulation& sim, WholeFileParams params)
    : sim_(sim),
      params_(params),
      network_(sim, params.network, "afs-net"),
      client_cpu_(sim, "afs-client-cpu", 1),
      server_cpu_(sim, "afs-server-cpu", 1),
      server_disk_(sim, "afs-server-disk", 1),
      file_cache_(params.cache_files) {}

void WholeFileCacheModel::append_transfer(sim::StageChain& chain, std::uint64_t bytes,
                                          bool to_client) {
  DiskModel disk(params_.disk);
  const std::uint64_t capped = std::min<std::uint64_t>(
      std::max<std::uint64_t>(bytes, 1), params_.max_transfer_bytes);
  network_.append_message_stages(chain, params_.rpc_request_bytes);
  chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
  chain.push_back(sim::Stage::make_use(server_disk_, disk.io_time_us(capped)));
  if (to_client) {
    network_.append_message_stages(chain, capped);
  } else {
    network_.append_message_stages(chain, params_.rpc_request_bytes);
  }
}

sim::StageChain WholeFileCacheModel::plan_op(const FsOp& op) {
  sim::StageChain chain;
  switch (op.type) {
    case FsOpType::open: {
      if (file_cache_.access(op.file_id)) {
        // Callback promise still valid: open is a local namei.
        chain.push_back(sim::Stage::make_use(client_cpu_, params_.open_check_us));
      } else {
        ++fetches_;
        chain.push_back(sim::Stage::make_use(client_cpu_, params_.open_check_us));
        append_transfer(chain, op.file_size, /*to_client=*/true);
        file_cache_.insert(op.file_id);
        cached_size_[op.file_id] = op.file_size;
      }
      break;
    }
    case FsOpType::creat: {
      // New file exists only locally until close; server registers the name.
      chain.push_back(sim::Stage::make_use(client_cpu_, params_.open_check_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      file_cache_.insert(op.file_id);
      cached_size_[op.file_id] = 0;
      break;
    }
    case FsOpType::read:
    case FsOpType::write: {
      // Data ops are local once the file is cached.
      chain.push_back(sim::Stage::make_use(
          client_cpu_,
          params_.local_io_us +
          params_.byte_copy_us_per_kb * static_cast<double>(op.size) / 1024.0));
      if (op.type == FsOpType::write) {
        dirty_files_[op.file_id] = true;
        std::uint64_t& sz = cached_size_[op.file_id];
        sz = std::max(sz, op.offset + op.size);
      }
      break;
    }
    case FsOpType::close: {
      chain.push_back(sim::Stage::make_use(client_cpu_, params_.local_io_us));
      if (dirty_files_.erase(op.file_id)) {
        ++stores_;
        const std::uint64_t bytes =
            std::max<std::uint64_t>(cached_size_[op.file_id], op.file_size);
        append_transfer(chain, bytes, /*to_client=*/false);
      }
      break;
    }
    case FsOpType::unlink: {
      chain.push_back(sim::Stage::make_use(client_cpu_, params_.local_io_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      file_cache_.erase(op.file_id);
      dirty_files_.erase(op.file_id);
      cached_size_.erase(op.file_id);
      break;
    }
    case FsOpType::stat:
    case FsOpType::readdir: {
      // Served from the local cache/callbacks once warm.
      if (file_cache_.contains(op.file_id)) {
        chain.push_back(sim::Stage::make_use(client_cpu_, params_.open_check_us));
      } else {
        chain.push_back(sim::Stage::make_use(client_cpu_, params_.open_check_us));
        network_.append_message_stages(chain, params_.rpc_request_bytes);
        chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
        network_.append_message_stages(chain, params_.rpc_request_bytes);
      }
      break;
    }
    case FsOpType::mkdir: {
      chain.push_back(sim::Stage::make_use(client_cpu_, params_.local_io_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
      network_.append_message_stages(chain, params_.rpc_request_bytes);
      break;
    }
    case FsOpType::lseek:
      chain.push_back(sim::Stage::make_use(client_cpu_, params_.local_io_us * 0.5));
      break;
  }
  return chain;
}

std::string WholeFileCacheModel::stats_summary() const {
  std::ostringstream out;
  out << "wholefile model: fetches=" << fetches_ << " stores=" << stores_ << "\n";
  out << "  file cache: hits=" << file_cache_.hits() << " misses=" << file_cache_.misses()
      << " ratio=" << file_cache_.hit_ratio() << "\n";
  out << "  server disk: completed=" << server_disk_.completed()
      << " utilization=" << server_disk_.utilization() << "\n";
  return out.str();
}

void WholeFileCacheModel::reset_stats() {
  client_cpu_.reset_stats();
  file_cache_.reset_stats();
  server_cpu_.reset_stats();
  server_disk_.reset_stats();
  network_.medium().reset_stats();
  fetches_ = 0;
  stores_ = 0;
}

void WholeFileCacheModel::flush_caches() {
  file_cache_.clear();
  dirty_files_.clear();
  cached_size_.clear();
}

}  // namespace wlgen::fsmodel
