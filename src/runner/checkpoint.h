#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/log_sink.h"

namespace wlgen::runner {

/// Everything a completed shard persists so a later run can skip
/// re-simulating it: its run files plus the scalar aggregates that cannot
/// be reconstructed from records alone.
///
/// The per-user floating-point statistics are deliberately NOT stored:
/// pre-folded shard stats would change the global per-user reduction order
/// (FP addition is not associative) and break the bit-identical digest
/// contract.  Resume instead re-reads the shard's sorted runs — the stable
/// per-run sort preserves each user's original append order, so re-adding
/// records per user reproduces the exact same fold sequence as a live run.
/// Scalars below are integer sums / maxima, which ARE grouping-invariant.
///
/// No RNG engine state is needed at a shard boundary: every user stream is
/// derived from (seed, global user index) alone, so the fingerprint's seed
/// plus the shard's user range fully determine the remaining streams.
struct ShardCheckpoint {
  std::size_t shard = 0;
  std::size_t begin = 0;  ///< user range [begin, end)
  std::size_t end = 0;
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  std::uint64_t events = 0;
  std::uint64_t rng_draws = 0;
  std::uint64_t heap_high_water = 0;
  double max_simulated_us = 0.0;
  std::vector<core::SpillRun> runs;
};

/// `<spool_dir>/shard<NNNNNN>.ckpt`.
std::string checkpoint_path(const std::string& spool_dir, std::size_t shard);

/// Checkpoint identity of an input file: its path plus an FNV-1a hash of its
/// current contents, so a resume after the file was edited in place is
/// refused like any other configuration change ("" for an empty path).
/// Throws std::runtime_error when the file cannot be read.
std::string file_identity(const std::string& path);

/// Writes atomically (tmp + rename) so an interrupted run never leaves a
/// half-written checkpoint.  Throws std::runtime_error on I/O failure.
void write_checkpoint(const std::string& path, const ShardCheckpoint& checkpoint,
                      const std::string& fingerprint);

/// Loads and validates one shard checkpoint.
///
/// * missing / unparseable file, a run file that is absent or has the
///   wrong size, or a stored user range different from
///   [expect_begin, expect_end) → nullopt (the shard simply re-runs; the
///   fingerprint pins users+shards, so a range mismatch can only mean the
///   file predates this scheme);
/// * fingerprint mismatch → std::runtime_error (resuming under a different
///   configuration would silently merge incompatible results — fail loud).
std::optional<ShardCheckpoint> load_checkpoint(const std::string& path,
                                               const std::string& fingerprint,
                                               std::size_t expect_begin,
                                               std::size_t expect_end);

}  // namespace wlgen::runner
