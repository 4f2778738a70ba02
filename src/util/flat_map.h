#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wlgen::util {

/// Open-addressing hash map from 64-bit ids (inode numbers, block keys) to
/// small values: one flat slot array, linear probing, backward-shift
/// deletion.  Lookups, inserts and erases allocate nothing once the table
/// has grown to the map's working size; the table starts at kInitialSlots
/// on the first insert, doubles when it would pass half full and never
/// shrinks (clear() keeps it).  An unused map costs no allocation.
///
/// Iteration is deliberately not offered: slot order depends on the hash,
/// and nothing that feeds a result may depend on it.
template <typename V>
class FlatIdMap {
 public:
  /// The value stored under `key`, or null.
  V* find(std::uint64_t key) {
    const std::size_t i = locate(key);
    return i == kMissing ? nullptr : &slots_[i].value;
  }
  const V* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i == kMissing ? nullptr : &slots_[i].value;
  }

  bool contains(std::uint64_t key) const { return locate(key) != kMissing; }

  /// The value under `key`, value-initialised on first use.
  V& operator[](std::uint64_t key) {
    if (V* found = find(key)) return *found;
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kInitialSlots : 2 * slots_.size());
    }
    std::size_t i = home(key);
    while (slots_[i].used) i = next(i);
    slots_[i] = Slot{key, V{}, true};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    std::size_t hole = locate(key);
    if (hole == kMissing) return false;
    // Backward-shift: pull later members of the probe run into the hole
    // unless their home lies cyclically in (hole, j].
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      const std::size_t h = home(slots_[j].key);
      const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr std::size_t kMissing = ~std::size_t{0};

  struct Slot {
    std::uint64_t key = 0;
    V value{};
    bool used = false;
  };

  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the high bits of key * 2^64/phi spread the
    // structured ids (inode << 24 ^ block) over the table.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  /// Slot index holding `key`, or kMissing.
  std::size_t locate(std::uint64_t key) const {
    if (slots_.empty()) return kMissing;
    for (std::size_t i = home(key);; i = next(i)) {
      if (!slots_[i].used) return kMissing;
      if (slots_[i].key == key) return i;
    }
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].used) i = next(i);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace wlgen::util
