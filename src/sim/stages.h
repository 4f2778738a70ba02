#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>

#include "sim/callback.h"
#include "sim/resource.h"
#include "sim/simulation.h"

namespace wlgen::sim {

/// One step of a modelled operation: either a pure delay (no contention, e.g.
/// network propagation or a cache-hit copy) or the use of a contended
/// resource (disk, CPU, shared network medium).
struct Stage {
  enum class Kind { delay, use };

  Kind kind = Kind::delay;
  Resource* resource = nullptr;  ///< required when kind == use
  SimTime duration = 0.0;        ///< delay length or service demand, in µs

  static Stage make_delay(SimTime duration);
  static Stage make_use(Resource& resource, SimTime service_time);
};

/// A compiled operation: an ordered chain of stages.  File-system models
/// (fsmodel) compile each system call into one of these; the executor walks
/// the chain and reports the total elapsed (queueing + service) time, which
/// is exactly the paper's per-syscall response time.
///
/// A small vector: the first kInlineCapacity stages live inside the object,
/// longer chains spill to one heap block.  Eight covers every cache-hit
/// chain and the one-block NFS read and metadata misses (seven stages
/// each), so planning a typical syscall allocates nothing.
class StageChain {
 public:
  static constexpr std::size_t kInlineCapacity = 8;

  using value_type = Stage;
  using iterator = Stage*;
  using const_iterator = const Stage*;

  StageChain() noexcept : data_(inline_) {}
  StageChain(std::initializer_list<Stage> stages);
  StageChain(const StageChain& other);
  StageChain(StageChain&& other) noexcept;
  StageChain& operator=(const StageChain& other);
  StageChain& operator=(StageChain&& other) noexcept;
  ~StageChain() { release_heap(); }

  void push_back(const Stage& stage) {
    if (size_ == capacity_) grow(2 * capacity_);
    ::new (static_cast<void*>(data_ + size_)) Stage(stage);
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True once the chain has outgrown its inline storage.
  bool spilled() const { return data_ != inline_; }

  Stage& operator[](std::size_t i) { return data_[i]; }
  const Stage& operator[](std::size_t i) const { return data_[i]; }

  Stage* begin() { return data_; }
  Stage* end() { return data_ + size_; }
  const Stage* begin() const { return data_; }
  const Stage* end() const { return data_ + size_; }

 private:
  void grow(std::size_t capacity);
  void release_heap();
  void assign(const Stage* first, std::size_t count);

  Stage* data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  union {  // uninitialised until push_back/assign construct stages in place
    Stage inline_[kInlineCapacity];
  };
};

/// Completion of a stage chain: receives the elapsed (queueing + service)
/// time.  Captures up to Callback::kInlineCapacity bytes stay inline.
using ChainDone = Callback<void(SimTime)>;

/// Total service demand of a chain (ignores queueing).
SimTime chain_service_demand(const StageChain& chain);

/// Executes the chain starting now; calls `done(elapsed_us)` when the last
/// stage finishes.  Many chains may be in flight concurrently.  The chain's
/// state lives in a pool owned by `sim` (sim/chain_state.h), so a warm
/// simulation runs chains of up to StageChain::kInlineCapacity stages
/// without touching the heap.  Throws std::invalid_argument when `done` is
/// empty.
void execute_chain(Simulation& sim, StageChain chain, ChainDone done);

}  // namespace wlgen::sim
