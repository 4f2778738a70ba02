#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/flat_map.h"

namespace wlgen::fsmodel {

/// Fixed-capacity LRU set keyed by 64-bit ids (block keys, inode numbers).
/// Used for the NFS client block/attribute caches and the server buffer
/// cache; the hit/miss counters feed the model statistics.
///
/// Flat layout: entries are nodes of one array linked into an intrusive
/// recency list by 32-bit indices, found through an open-addressing index.
/// Nodes and index grow with occupancy (nothing is sized to the capacity
/// up front), and a warm cache allocates nothing: an eviction recycles the
/// victim's node for the newcomer.
class LruCache {
 public:
  explicit LruCache(std::size_t capacity);

  /// Looks up `key`; a hit refreshes recency.  Counted in the statistics.
  bool access(std::uint64_t key);

  /// True when present, without updating recency or statistics.
  bool contains(std::uint64_t key) const;

  /// Inserts (or refreshes) `key`, evicting the least recently used entry
  /// when at capacity.  Returns true when an eviction happened.
  bool insert(std::uint64_t key);

  /// Removes a key if present (e.g. invalidation after unlink).
  void erase(std::uint64_t key);

  /// Drops everything.
  void clear();

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  /// hits / (hits + misses); 0 when no accesses were made.
  double hit_ratio() const;

  void reset_stats();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;  ///< towards the most recent end
    std::uint32_t next = kNil;  ///< towards the least recent end
  };

  void unlink(std::uint32_t n);
  void push_front(std::uint32_t n);

  std::size_t capacity_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;  ///< nodes released by erase()
  util::FlatIdMap<std::uint32_t> index_;   ///< key -> node
  std::uint32_t head_ = kNil;              ///< most recently used
  std::uint32_t tail_ = kNil;              ///< least recently used
  std::size_t size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wlgen::fsmodel
