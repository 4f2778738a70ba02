#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "util/rng.h"

namespace wlgen::core {

/// How byte offsets inside a file are chosen — implements the paper's
/// future-work item "the file types could include indexed files and
/// direct-access files" (section 6.2).  `sequential` is the paper's model
/// ("only sequential file access is simulated", section 4.2).
enum class AccessPattern {
  sequential,      ///< paper default: forward, wrapping at EOF
  uniform_random,  ///< direct-access: offsets uniform over the file
  zipf_block,      ///< indexed: log-uniform (Zipf-like) favouring low blocks
};

const char* to_string(AccessPattern pattern);

/// Chooses the starting offset of a non-sequential access on a file of
/// `file_size` bytes for an access of `access_size` bytes.
std::uint64_t choose_offset(AccessPattern pattern, std::uint64_t file_size,
                            std::uint64_t access_size, util::RngStream& rng);

/// Selection policy over a user's active work items — the independence
/// dimension of the model (section 3.1.4).  The paper "assume[s]
/// independence, subject to obvious logical constraints"; the Markov policy
/// implements the section 6.2 proposal so the assumption can be examined
/// (bench/ablation_markov).
class OpStreamPolicy {
 public:
  virtual ~OpStreamPolicy() = default;

  /// Picks an index in [0, count).  `previous` is the last picked index or
  /// kNone at a session start / after the previous item completed.
  virtual std::size_t choose(std::size_t count, std::size_t previous,
                             util::RngStream& rng) const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<OpStreamPolicy> clone() const = 0;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

/// The work items of one login session that are not done yet, as ascending
/// item indices: the candidates an OpStreamPolicy chooses among.  An item
/// leaves once, when it is done, so picking an op is one binary search
/// rather than a scan of every item.  The policy sees exactly the
/// (count, previous position) that listing the live items afresh would
/// give it, so every pick and every draw is the same.
class LiveItems {
 public:
  /// Items [0, count) are all live.
  void reset(std::size_t count) {
    live_.resize(count);
    std::iota(live_.begin(), live_.end(), std::uint32_t{0});
  }
  void clear() { live_.clear(); }
  bool empty() const { return live_.empty(); }
  std::size_t size() const { return live_.size(); }

  /// Drops item `index` (a no-op when it is not live).
  void retire(std::size_t index) {
    const auto it = std::lower_bound(live_.begin(), live_.end(), index);
    if (it != live_.end() && *it == index) live_.erase(it);
  }

  /// Item `index`'s position among the live items; kNone when not live.
  std::size_t position_of(std::size_t index) const {
    const auto it = std::lower_bound(live_.begin(), live_.end(), index);
    if (it == live_.end() || *it != index) return OpStreamPolicy::kNone;
    return static_cast<std::size_t>(it - live_.begin());
  }

  /// The item `policy` picks next, `previous` being the last picked item
  /// (kNone at a session start).  Requires !empty().
  std::size_t pick(const OpStreamPolicy& policy, std::size_t previous,
                   util::RngStream& rng) const {
    return live_[policy.choose(live_.size(), position_of(previous), rng)];
  }

 private:
  std::vector<std::uint32_t> live_;
};

/// The paper's model: every operation picks a work item uniformly at random.
class IndependentOpStream final : public OpStreamPolicy {
 public:
  std::size_t choose(std::size_t count, std::size_t previous,
                     util::RngStream& rng) const override;
  std::string name() const override { return "independent"; }
  std::unique_ptr<OpStreamPolicy> clone() const override;
};

/// Order-1 Markov stream: with probability `persistence` the next operation
/// stays on the same work item, otherwise it jumps uniformly.
class MarkovOpStream final : public OpStreamPolicy {
 public:
  /// persistence in [0, 1).
  explicit MarkovOpStream(double persistence);

  std::size_t choose(std::size_t count, std::size_t previous,
                     util::RngStream& rng) const override;
  std::string name() const override;
  std::unique_ptr<OpStreamPolicy> clone() const override;

  double persistence() const { return persistence_; }

 private:
  double persistence_;
};

/// Scales think times by simulated time of day — the section 6.2 proposal
/// built on Calzarossa & Serazzi's observation that "the distribution of
/// inter-login times varies depending on time of day".
class ThinkTimeModulator {
 public:
  virtual ~ThinkTimeModulator() = default;

  /// Multiplier applied to a sampled think time at simulated time `now_us`.
  virtual double multiplier(double now_us) const = 0;

  virtual std::string name() const = 0;
};

/// The paper's (time-independent) behaviour: multiplier 1 everywhere.
class ConstantModulator final : public ThinkTimeModulator {
 public:
  double multiplier(double) const override { return 1.0; }
  std::string name() const override { return "constant"; }
};

/// Sinusoidal day profile: multiplier swings between `busy_multiplier` (fast
/// thinking, busy hours) and `idle_multiplier` over `period_us`.
class DiurnalModulator final : public ThinkTimeModulator {
 public:
  DiurnalModulator(double period_us, double busy_multiplier, double idle_multiplier);

  double multiplier(double now_us) const override;
  std::string name() const override { return "diurnal"; }

 private:
  double period_us_;
  double busy_;
  double idle_;
};

}  // namespace wlgen::core
