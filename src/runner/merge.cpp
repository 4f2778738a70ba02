#include "runner/merge.h"

#include <algorithm>
#include <memory>

namespace wlgen::runner {

namespace {

bool merge_key_less(const core::OpRecord& a, const core::OpRecord& b) {
  if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
  return a.user < b.user;
}

}  // namespace

core::UsageLog merge_user_logs(std::vector<core::UsageLog> inputs) {
  // Each input becomes one sorted in-RAM run of the same loser-tree merge
  // the spill path drains (core::MergeLogReader).  USIM appends records at
  // completion, so an input is stable-sorted on the (time, user) key first
  // when it needs it; stability keeps each user's issue order on full ties.
  // The merge breaks (time, user) ties across inputs by input index, so the
  // stream equals a stable sort of the inputs' concatenation, whatever
  // users each input holds.
  std::size_t total = 0;
  std::vector<std::unique_ptr<core::LogReader>> runs;
  runs.reserve(inputs.size());
  for (core::UsageLog& log : inputs) {
    auto& records = log.records_mutable();
    if (!std::is_sorted(records.begin(), records.end(), merge_key_less)) {
      std::stable_sort(records.begin(), records.end(), merge_key_less);
    }
    total += records.size();
    runs.push_back(std::make_unique<core::MemoryLogReader>(log));
  }

  core::UsageLog merged;
  merged.records_mutable().reserve(total);
  core::MergeLogReader merge(std::move(runs));
  core::OpRecord record;
  while (merge.next(record)) merged.append(record);
  return merged;
}  // the inputs are freed here

bool is_merge_ordered(const core::UsageLog& log) {
  const auto& records = log.records();
  return std::is_sorted(records.begin(), records.end(), merge_key_less);
}

bool is_merge_ordered(core::LogReader& reader) {
  core::OpRecord prev;
  if (!reader.next(prev)) return true;
  core::OpRecord cur;
  while (reader.next(cur)) {
    if (merge_key_less(cur, prev)) return false;
    prev = cur;
  }
  return true;
}

}  // namespace wlgen::runner
