#include "fsmodel/nfs_model.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace wlgen::fsmodel {

namespace {
constexpr std::uint64_t kBlockKeyShift = 24;  // 16M blocks per file id
}

NfsModel::Client::Client(sim::Simulation& sim, const NfsParams& params, std::size_t index)
    : cpu(sim, "nfs-client-cpu-" + std::to_string(index), 1),
      cache(params.client_cache_blocks),
      attr(params.client_attr_entries) {}

NfsModel::NfsModel(sim::Simulation& sim, NfsParams params)
    : sim_(sim),
      params_(params),
      network_(sim, params.network, "nfs-net"),
      server_cpu_(sim, "nfs-server-cpu", 1),
      server_disk_(sim, "nfs-server-disk", 1),
      server_cache_(params.server_cache_blocks),
      server_attr_(params.server_attr_entries) {
  if (params_.num_clients == 0) throw std::invalid_argument("NfsModel: need >= 1 client");
  for (std::size_t i = 0; i < params_.num_clients; ++i) {
    clients_.push_back(std::make_unique<Client>(sim, params_, i));
  }
}

NfsModel::Client& NfsModel::client_for(const FsOp& op) {
  return *clients_[op.client % clients_.size()];
}

const LruCache& NfsModel::client_cache(std::size_t client) const {
  return clients_.at(client)->cache;
}

const LruCache& NfsModel::client_attr_cache(std::size_t client) const {
  return clients_.at(client)->attr;
}

sim::Resource& NfsModel::client_cpu(std::size_t client) { return clients_.at(client)->cpu; }

std::uint64_t NfsModel::block_key(std::uint64_t file_id, std::uint64_t block_index) const {
  return (file_id << kBlockKeyShift) ^ block_index;
}

double NfsModel::copy_cost_us(std::uint64_t bytes) const {
  return params_.client_byte_copy_us_per_kb * static_cast<double>(bytes) / 1024.0;
}

void NfsModel::append_block_fetch(sim::StageChain& chain, std::uint64_t key, bool sequential) {
  // One full-block READ RPC: request travels, server CPU demultiplexes, the
  // server buffer cache decides whether the disk is touched, the block
  // travels back.  Shared by foreground misses and background read-ahead so
  // the two kinds of traffic can never drift apart in cost.
  ++rpcs_;
  network_.append_message_stages(chain, params_.rpc_request_bytes);
  chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
  DiskModel disk(params_.disk);
  if (server_cache_.access(key)) {
    chain.push_back(sim::Stage::make_delay(params_.server_cache_hit_us));
  } else {
    const double service = sequential ? disk.sequential_io_time_us(params_.block_size)
                                      : disk.io_time_us(params_.block_size);
    chain.push_back(sim::Stage::make_use(server_disk_, service));
    server_cache_.insert(key);
  }
  network_.append_message_stages(chain, params_.block_size + params_.rpc_reply_meta_bytes);
}

void NfsModel::plan_block_read(sim::StageChain& chain, Client& client, std::uint64_t file_id,
                               std::uint64_t block, bool sequential) {
  const std::uint64_t key = block_key(file_id, block);
  if (client.cache.access(key)) {
    chain.push_back(sim::Stage::make_use(client.cpu, params_.client_hit_us));
    return;
  }
  append_block_fetch(chain, key, sequential);
  client.cache.insert(key);
}

void NfsModel::schedule_readahead(Client& client, std::uint64_t file_id,
                                  std::uint64_t first_block, std::uint64_t file_blocks) {
  // Background read-ahead (the read half of biod): the prefetched block's
  // journey occupies the same resources as a foreground miss — so it still
  // costs shared capacity under contention — but the issuing call does not
  // wait for it.  The block is inserted into the caches at plan time, the
  // same simplification every cache decision in this model already makes.
  // Bounded at EOF (`file_blocks`): the client holds the file's attributes
  // and never fetches past the last block, which matters here because the
  // DI86 file population averages barely over one 8 KiB block per file.
  for (std::size_t i = 0; i < params_.readahead_blocks; ++i) {
    if (first_block + i >= file_blocks) return;
    const std::uint64_t key = block_key(file_id, first_block + i);
    if (client.cache.contains(key)) continue;
    sim::StageChain fetch;
    ++readaheads_;
    append_block_fetch(fetch, key, /*sequential=*/true);
    sim::execute_chain(sim_, std::move(fetch), [](sim::SimTime) {});
    client.cache.insert(key);
  }
}

sim::StageChain NfsModel::plan_read(const FsOp& op) {
  Client& client = client_for(op);
  sim::StageChain chain;
  chain.push_back(
      sim::Stage::make_use(client.cpu, params_.client_overhead_us + copy_cost_us(op.size)));
  if (op.size == 0) return chain;
  const std::uint64_t first = op.offset / params_.block_size;
  const std::uint64_t last = (op.offset + op.size - 1) / params_.block_size;
  const std::uint64_t* last_end = client.last_end.find(op.file_id);
  const bool sequential = (last_end != nullptr ? *last_end : 0) == op.offset;
  for (std::uint64_t b = first; b <= last; ++b) {
    // The first block of a fresh (non-sequential) access pays a full seek;
    // follow-on blocks stream sequentially.
    plan_block_read(chain, client, op.file_id, b, sequential || b != first);
  }
  // A *proven* sequential stream — a continuation, not a file's first read —
  // prefetches ahead of the reader, up to EOF (SunOS arms read-ahead once
  // consecutive reads are observed, not on every cold first access).
  if (sequential && op.offset > 0 && params_.readahead_blocks > 0 && op.file_size > 0) {
    const std::uint64_t file_blocks =
        (op.file_size + params_.block_size - 1) / params_.block_size;
    schedule_readahead(client, op.file_id, last + 1, file_blocks);
  }
  client.last_end[op.file_id] = op.offset + op.size;
  return chain;
}

void NfsModel::schedule_async_flush(std::uint64_t bytes) {
  // Background write-behind: occupies server CPU + disk (adding the load
  // other users contend with) without charging the issuing call.
  sim::StageChain flush;
  network_.append_message_stages(flush, bytes + params_.rpc_request_bytes);
  flush.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
  DiskModel disk(params_.disk);
  flush.push_back(sim::Stage::make_use(server_disk_, disk.io_time_us(bytes)));
  ++async_flushes_;
  ++rpcs_;
  sim::execute_chain(sim_, std::move(flush), [](sim::SimTime) {});
}

sim::StageChain NfsModel::plan_write(const FsOp& op) {
  Client& client = client_for(op);
  sim::StageChain chain;
  chain.push_back(
      sim::Stage::make_use(client.cpu, params_.client_overhead_us + copy_cost_us(op.size)));
  if (op.size == 0) return chain;

  // Written blocks land in the issuing client's cache.
  const std::uint64_t first = op.offset / params_.block_size;
  const std::uint64_t last = (op.offset + op.size - 1) / params_.block_size;
  for (std::uint64_t b = first; b <= last; ++b) client.cache.insert(block_key(op.file_id, b));
  client.last_end[op.file_id] = op.offset + op.size;

  if (!params_.async_writes) {
    // Synchronous write-through (NFSv2 semantics without biod).
    DiskModel disk(params_.disk);
    network_.append_message_stages(chain, op.size + params_.rpc_request_bytes);
    chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
    chain.push_back(sim::Stage::make_use(server_disk_, disk.io_time_us(op.size)));
    network_.append_message_stages(chain, params_.rpc_reply_meta_bytes);
    ++rpcs_;
    return chain;
  }

  // Write-behind: accumulate dirty bytes; flush in block_size units in the
  // background, the way the client biod daemons do.
  std::uint64_t& dirty = client.dirty_bytes[op.file_id];
  dirty += op.size;
  while (dirty >= params_.block_size) {
    dirty -= params_.block_size;
    schedule_async_flush(params_.block_size);
  }
  return chain;
}

sim::StageChain NfsModel::plan_metadata(const FsOp& op, bool mutates) {
  Client& client = client_for(op);
  sim::StageChain chain;
  chain.push_back(sim::Stage::make_use(client.cpu, params_.client_overhead_us));
  DiskModel disk(params_.disk);

  if (!mutates) {
    // open / stat / readdir: attribute cache first.
    if (client.attr.access(op.file_id)) return chain;
    ++rpcs_;
    network_.append_message_stages(chain, params_.rpc_request_bytes);
    chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
    if (!server_attr_.access(op.file_id)) {
      chain.push_back(sim::Stage::make_use(server_disk_, disk.metadata_time_us()));
      server_attr_.insert(op.file_id);
    }
    network_.append_message_stages(chain, params_.rpc_reply_meta_bytes);
    client.attr.insert(op.file_id);
    return chain;
  }

  // creat / unlink / mkdir: synchronous metadata update on the server disk
  // (NFS requires durable metadata before the reply).
  ++rpcs_;
  network_.append_message_stages(chain, params_.rpc_request_bytes);
  chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
  chain.push_back(sim::Stage::make_use(server_disk_, disk.metadata_time_us()));
  network_.append_message_stages(chain, params_.rpc_reply_meta_bytes);
  if (op.type == FsOpType::unlink) {
    // Invalidate everywhere: every client workstation and the server.
    for (auto& c : clients_) {
      c->attr.erase(op.file_id);
      c->dirty_bytes.erase(op.file_id);
      c->last_end.erase(op.file_id);
    }
    server_attr_.erase(op.file_id);
  } else {
    client.attr.insert(op.file_id);
    server_attr_.insert(op.file_id);
  }
  return chain;
}

sim::StageChain NfsModel::plan_op(const FsOp& op) {
  switch (op.type) {
    case FsOpType::read:
      return plan_read(op);
    case FsOpType::write:
      return plan_write(op);
    case FsOpType::open:
    case FsOpType::stat:
    case FsOpType::readdir:
      return plan_metadata(op, /*mutates=*/false);
    case FsOpType::creat:
    case FsOpType::unlink:
    case FsOpType::mkdir:
      return plan_metadata(op, /*mutates=*/true);
    case FsOpType::close: {
      Client& client = client_for(op);
      sim::StageChain chain;
      chain.push_back(sim::Stage::make_use(client.cpu, params_.client_overhead_us));
      // Close-to-open consistency: flush remaining dirty bytes synchronously.
      std::uint64_t* dirty = client.dirty_bytes.find(op.file_id);
      if (dirty != nullptr && *dirty > 0) {
        DiskModel disk(params_.disk);
        network_.append_message_stages(chain, *dirty + params_.rpc_request_bytes);
        chain.push_back(sim::Stage::make_use(server_cpu_, params_.server_cpu_us));
        chain.push_back(sim::Stage::make_use(server_disk_, disk.io_time_us(*dirty)));
        network_.append_message_stages(chain, params_.rpc_reply_meta_bytes);
        ++rpcs_;
        *dirty = 0;
      }
      return chain;
    }
    case FsOpType::lseek: {
      // Purely client-side bookkeeping (still burns the client's CPU).
      Client& client = client_for(op);
      sim::StageChain chain;
      chain.push_back(sim::Stage::make_use(client.cpu, params_.client_overhead_us * 0.5));
      return chain;
    }
  }
  return {};
}

std::string NfsModel::stats_summary() const {
  std::ostringstream out;
  out << "nfs model: clients=" << clients_.size() << " rpcs=" << rpcs_
      << " async_flushes=" << async_flushes_ << " readaheads=" << readaheads_ << "\n";
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client& c = *clients_[i];
    out << "  client " << i << ": block cache hits=" << c.cache.hits()
        << " misses=" << c.cache.misses() << " ratio=" << c.cache.hit_ratio()
        << " cpu util=" << c.cpu.utilization() << "\n";
  }
  out << "  server block cache: hits=" << server_cache_.hits()
      << " misses=" << server_cache_.misses() << " ratio=" << server_cache_.hit_ratio() << "\n";
  out << "  server disk: completed=" << server_disk_.completed()
      << " utilization=" << server_disk_.utilization() << "\n";
  out << "  network: messages=" << network_.messages_sent()
      << " utilization=" << network_.medium().utilization() << "\n";
  return out.str();
}

void NfsModel::reset_stats() {
  for (auto& c : clients_) {
    c->cpu.reset_stats();
    c->cache.reset_stats();
    c->attr.reset_stats();
  }
  server_cache_.reset_stats();
  server_attr_.reset_stats();
  server_cpu_.reset_stats();
  server_disk_.reset_stats();
  network_.medium().reset_stats();
  rpcs_ = 0;
  async_flushes_ = 0;
  readaheads_ = 0;
}

void NfsModel::flush_caches() {
  for (auto& c : clients_) {
    c->cache.clear();
    c->attr.clear();
    c->dirty_bytes.clear();
    c->last_end.clear();
  }
  server_cache_.clear();
  server_attr_.clear();
}

}  // namespace wlgen::fsmodel
