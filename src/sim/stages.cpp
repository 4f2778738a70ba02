#include "sim/stages.h"

#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "sim/chain_state.h"

namespace wlgen::sim {

Stage Stage::make_delay(SimTime duration) {
  if (duration < 0.0) throw std::invalid_argument("Stage::make_delay: negative duration");
  return Stage{Kind::delay, nullptr, duration};
}

Stage Stage::make_use(Resource& resource, SimTime service_time) {
  if (service_time < 0.0) throw std::invalid_argument("Stage::make_use: negative service time");
  return Stage{Kind::use, &resource, service_time};
}

// --- StageChain -------------------------------------------------------------

StageChain::StageChain(std::initializer_list<Stage> stages) : data_(inline_) {
  assign(stages.begin(), stages.size());
}

StageChain::StageChain(const StageChain& other) : data_(inline_) {
  assign(other.data_, other.size_);
}

StageChain::StageChain(StageChain&& other) noexcept : data_(inline_) {
  *this = std::move(other);
}

StageChain& StageChain::operator=(const StageChain& other) {
  if (this != &other) assign(other.data_, other.size_);
  return *this;
}

StageChain& StageChain::operator=(StageChain&& other) noexcept {
  if (this == &other) return *this;
  if (other.spilled()) {
    // Steal the heap block; `other` falls back to its inline storage.
    release_heap();
    data_ = other.data_;
    capacity_ = other.capacity_;
    size_ = other.size_;
    other.data_ = other.inline_;
    other.capacity_ = kInlineCapacity;
  } else {
    // An inline source always fits: our capacity is at least the inline one.
    std::uninitialized_copy_n(other.data_, other.size_, data_);
    size_ = other.size_;
  }
  other.size_ = 0;
  return *this;
}

void StageChain::assign(const Stage* first, std::size_t count) {
  if (count > capacity_) {
    release_heap();
    grow(count);
  }
  std::uninitialized_copy_n(first, count, data_);
  size_ = static_cast<std::uint32_t>(count);
}

void StageChain::grow(std::size_t capacity) {
  auto* block = static_cast<Stage*>(::operator new(capacity * sizeof(Stage)));
  std::uninitialized_copy_n(data_, size_, block);
  release_heap();
  data_ = block;
  capacity_ = static_cast<std::uint32_t>(capacity);
}

void StageChain::release_heap() {
  if (!spilled()) return;
  ::operator delete(data_);
  data_ = inline_;
  capacity_ = kInlineCapacity;
}

SimTime chain_service_demand(const StageChain& chain) {
  SimTime total = 0.0;
  for (const auto& s : chain) total += s.duration;
  return total;
}

// --- chain execution --------------------------------------------------------

/// Simulation's friend for the chain-state pool.
class ChainRunner {
 public:
  static ChainState& acquire(Simulation& sim) {
    if (sim.free_chains_.empty()) {
      sim.chain_pool_.push_back(std::make_unique<ChainState>());
      sim.free_chains_.push_back(sim.chain_pool_.back().get());
    }
    ChainState& state = *sim.free_chains_.back();
    sim.free_chains_.pop_back();
    state.sim = &sim;
    return state;
  }

  static void release(ChainState& state) { state.sim->free_chains_.push_back(&state); }
};

namespace {

void run_stage(ChainState& state, std::uint32_t index);

/// Continuation of stage `index`: 16 bytes, inline in EventFn.
struct NextStage {
  ChainState* state;
  std::uint32_t index;
  void operator()() const { run_stage(*state, index + 1); }
};

/// Traced continuation: records the finished stage on the ring first.  It
/// schedules the same events at the same times, so the simulated outcome —
/// and every stats digest — is identical to the untraced one.
struct TracedNextStage {
  ChainState* state;
  obs::TraceRing* ring;
  SimTime t0;
  std::uint32_t index;
  std::uint32_t name_id;
  void operator()() const {
    obs::TraceEvent event;
    event.ts_us = t0;
    event.dur_us = state->sim->now() - t0;
    event.name_id = name_id;
    event.track = name_id;  // one virtual-time track per resource name
    ring->push(event);
    run_stage(*state, index + 1);
  }
};

template <typename Fn>
void dispatch_stage(Simulation& sim, const Stage& stage, Fn continuation) {
  switch (stage.kind) {
    case Stage::Kind::delay:
      sim.schedule(stage.duration, continuation);
      break;
    case Stage::Kind::use:
      if (stage.resource == nullptr) {
        throw std::logic_error("execute_chain: use stage without resource");
      }
      stage.resource->use(stage.duration, continuation);
      break;
  }
}

void run_stage(ChainState& state, std::uint32_t index) {
  Simulation& sim = *state.sim;
  if (index >= state.chain.size()) {
    // Recycle the state before running the completion, which may start the
    // next chain (and so reuse this very state).
    ChainDone done = std::move(state.done);
    const SimTime elapsed = sim.now() - state.start;
    ChainRunner::release(state);
    done(elapsed);
    return;
  }
  const Stage& stage = state.chain[index];
  // One thread-local load + predictable branch when tracing is off.
  obs::TraceRing* ring = obs::stage_trace_slot();
  if (ring == nullptr) {
    dispatch_stage(sim, stage, NextStage{&state, index});
    return;
  }
  const std::uint32_t name_id = ring->intern(
      stage.kind == Stage::Kind::use && stage.resource != nullptr ? stage.resource->name()
                                                                  : "delay");
  dispatch_stage(sim, stage, TracedNextStage{&state, ring, sim.now(), index, name_id});
}

}  // namespace

void execute_chain(Simulation& sim, StageChain chain, ChainDone done) {
  if (!done) throw std::invalid_argument("execute_chain: empty completion");
  ChainState& state = ChainRunner::acquire(sim);
  state.chain = std::move(chain);
  state.done = std::move(done);
  state.start = sim.now();
  run_stage(state, 0);
}

}  // namespace wlgen::sim
