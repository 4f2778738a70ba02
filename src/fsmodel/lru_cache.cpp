#include "fsmodel/lru_cache.h"

#include <algorithm>

namespace wlgen::fsmodel {

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("LruCache: capacity must be >= 1");
  if (capacity_ >= kNil) throw std::invalid_argument("LruCache: capacity too large");
}

void LruCache::unlink(std::uint32_t n) {
  Node& node = nodes_[n];
  if (node.prev != kNil) {
    nodes_[node.prev].next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != kNil) {
    nodes_[node.next].prev = node.prev;
  } else {
    tail_ = node.prev;
  }
}

void LruCache::push_front(std::uint32_t n) {
  Node& node = nodes_[n];
  node.prev = kNil;
  node.next = head_;
  if (head_ != kNil) {
    nodes_[head_].prev = n;
  } else {
    tail_ = n;
  }
  head_ = n;
}

bool LruCache::access(std::uint64_t key) {
  const std::uint32_t* n = index_.find(key);
  if (n == nullptr) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (*n != head_) {
    unlink(*n);
    push_front(*n);
  }
  return true;
}

bool LruCache::contains(std::uint64_t key) const { return index_.contains(key); }

bool LruCache::insert(std::uint64_t key) {
  if (const std::uint32_t* n = index_.find(key)) {
    if (*n != head_) {
      unlink(*n);
      push_front(*n);
    }
    return false;
  }
  std::uint32_t n = kNil;
  bool evicted = false;
  if (size_ >= capacity_) {
    // Full: the least recently used node is recycled for the newcomer.
    n = tail_;
    unlink(n);
    index_.erase(nodes_[n].key);
    --size_;
    evicted = true;
  } else if (!free_nodes_.empty()) {
    n = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    // Grow with occupancy, starting at a few dozen nodes rather than one.
    if (nodes_.size() == nodes_.capacity()) {
      nodes_.reserve(
          std::min<std::size_t>(capacity_, std::max<std::size_t>(64, 2 * nodes_.size())));
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].key = key;
  push_front(n);
  index_[key] = n;
  ++size_;
  return evicted;
}

void LruCache::erase(std::uint64_t key) {
  const std::uint32_t* n = index_.find(key);
  if (n == nullptr) return;
  const std::uint32_t node = *n;
  unlink(node);
  index_.erase(key);
  free_nodes_.push_back(node);
  --size_;
}

void LruCache::clear() {
  nodes_.clear();
  free_nodes_.clear();
  index_.clear();
  head_ = tail_ = kNil;
  size_ = 0;
}

double LruCache::hit_ratio() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void LruCache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace wlgen::fsmodel
