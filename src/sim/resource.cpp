#include "sim/resource.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace wlgen::sim {

Resource::Resource(Simulation& sim, std::string name, std::size_t capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("Resource: capacity must be >= 1");
  stats_start_ = last_change_ = sim_.now();
}

void Resource::integrate_to_now() {
  const SimTime dt = sim_.now() - last_change_;
  if (dt > 0.0) {
    busy_integral_ += dt * static_cast<double>(busy_);
    queue_integral_ += dt * static_cast<double>(waiting_size_);
    last_change_ = sim_.now();
  }
}

void Resource::use(SimTime service_time, EventFn on_complete) {
  if (service_time < 0.0) throw std::invalid_argument("Resource::use: negative service time");
  if (!on_complete) throw std::invalid_argument("Resource::use: empty completion");
  integrate_to_now();
  if (busy_ < capacity_) {
    start_service(service_time, std::move(on_complete));
  } else {
    push_waiting(service_time, std::move(on_complete));
  }
}

void Resource::push_waiting(SimTime service_time, EventFn on_complete) {
  if (waiting_size_ == waiting_.size()) {
    // Full: unroll into a buffer twice the size, oldest request first.
    std::vector<Pending> grown(std::max<std::size_t>(8, 2 * waiting_.size()));
    for (std::size_t i = 0; i < waiting_size_; ++i) {
      grown[i] = std::move(waiting_[(waiting_head_ + i) & (waiting_.size() - 1)]);
    }
    waiting_ = std::move(grown);
    waiting_head_ = 0;
  }
  Pending& tail = waiting_[(waiting_head_ + waiting_size_) & (waiting_.size() - 1)];
  tail.service_time = service_time;
  tail.on_complete = std::move(on_complete);
  ++waiting_size_;
}

void Resource::start_service(SimTime service_time, EventFn on_complete) {
  ++busy_;
  if (free_serving_.empty()) {
    free_serving_.push_back(static_cast<std::uint32_t>(serving_.size()));
    serving_.emplace_back();
  }
  const std::uint32_t slot = free_serving_.back();
  free_serving_.pop_back();
  serving_[slot] = std::move(on_complete);
  sim_.schedule(service_time, [this, slot] { on_service_done(slot); });
}

void Resource::on_service_done(std::uint32_t slot) {
  EventFn on_complete = std::move(serving_[slot]);
  free_serving_.push_back(slot);
  integrate_to_now();
  --busy_;
  ++completed_;
  if (waiting_size_ != 0) {
    Pending& next = waiting_[waiting_head_];
    waiting_head_ = (waiting_head_ + 1) & (waiting_.size() - 1);
    --waiting_size_;
    start_service(next.service_time, std::move(next.on_complete));
  }
  // Run the completion after dequeueing the successor so a completion that
  // immediately re-enters use() observes a consistent queue.
  on_complete();
}

double Resource::utilization() const {
  const SimTime elapsed = sim_.now() - stats_start_;
  if (elapsed <= 0.0) return 0.0;
  double integral = busy_integral_;
  integral += (sim_.now() - last_change_) * static_cast<double>(busy_);
  return integral / (elapsed * static_cast<double>(capacity_));
}

double Resource::mean_queue_length() const {
  const SimTime elapsed = sim_.now() - stats_start_;
  if (elapsed <= 0.0) return 0.0;
  double integral = queue_integral_;
  integral += (sim_.now() - last_change_) * static_cast<double>(waiting_size_);
  return integral / elapsed;
}

SimTime Resource::busy_time() const {
  return busy_integral_ + (sim_.now() - last_change_) * static_cast<double>(busy_);
}

void Resource::reset_stats() {
  completed_ = 0;
  busy_integral_ = 0.0;
  queue_integral_ = 0.0;
  stats_start_ = last_change_ = sim_.now();
}

}  // namespace wlgen::sim
