#pragma once

#include <vector>

#include "core/log_sink.h"
#include "core/usage_log.h"

namespace wlgen::runner {

/// Merges usage logs (per-user logs indexed by global user, or per-shard
/// logs over ascending disjoint user ranges) into one log ordered by the
/// runner's merge contract:
///
///   (issue_time_us ascending, user index ascending, per-user issue order)
///
/// Timestamp ties across users break by user index — the deterministic
/// analogue of the event core's FIFO tie-break — and ties within a user keep
/// the user's own issue order.  The result is a pure function of the
/// per-user inputs, so it is bit-identical however those inputs were
/// produced (1 shard or N, 1 thread or T).
///
/// Each input is one in-RAM run of core::MergeLogReader, the loser tree the
/// spill path also drains, so both log paths share one merge.  Inputs need
/// not be sorted (an unsorted one is stable-sorted first); they are
/// consumed and freed.  Full (time, user) ties across inputs keep input
/// order, so the stream always equals a stable sort of the concatenation.
core::UsageLog merge_user_logs(std::vector<core::UsageLog> inputs);

/// True when `log` is non-descending on the (issue_time_us, user) key —
/// the observable half of the merge contract; exposed for tests and the
/// CLI's --verify-merge mode.  Per-user sub-order on full ties is NOT
/// checkable from a log alone (records carry no per-user issue ordinal);
/// the runner tests pin it by comparing whole logs across shard counts.
bool is_merge_ordered(const core::UsageLog& log);

/// Streaming variant over a LogReader cursor — same check in O(1) memory,
/// so --verify-merge works on spilled runs that never fit in RAM.
bool is_merge_ordered(core::LogReader& reader);

}  // namespace wlgen::runner
