#include "core/analysis.h"

#include <algorithm>
#include <array>
#include <utility>

#include "util/flat_map.h"

namespace wlgen::core {

UsageAnalyzer::UsageAnalyzer(LogReader& reader) { consume(reader); }

UsageAnalyzer::UsageAnalyzer(const UsageLog& log) {
  MemoryLogReader reader(log);
  consume(reader);
}

void UsageAnalyzer::consume(LogReader& reader) {
  struct SessionAccumulator {
    std::uint64_t key = 0;  ///< user << 32 | session
    double start = 0.0;
    double end = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::vector<FileTouch> files;               ///< first-touch order
    util::FlatIdMap<std::uint32_t> file_slot;  ///< file id -> files index + 1
  };
  std::vector<SessionAccumulator> acc;          // first-seen order
  util::FlatIdMap<std::uint32_t> session_slot;  // key -> acc index + 1
  std::array<OpTypeStats, fsmodel::kFsOpTypeCount> per_op;

  const auto touch = [](SessionAccumulator& a, std::uint64_t file_id) -> FileTouch& {
    std::uint32_t& slot = a.file_slot[file_id];
    if (slot == 0) {
      a.files.emplace_back().file_id = file_id;
      slot = static_cast<std::uint32_t>(a.files.size());
    }
    return a.files[slot - 1];
  };

  OpRecord r;
  while (reader.next(r)) {
    const bool data_op = fsmodel::is_data_op(r.op);
    ++op_count_;
    response_.add(r.response_us);
    response_sum_us_ += r.response_us;
    auto& op_stats = per_op[static_cast<std::size_t>(r.op)];
    op_stats.response_us.add(r.response_us);
    if (data_op) {
      access_size_.add(static_cast<double>(r.actual_bytes));
      data_response_.add(r.response_us);
      op_stats.access_size.add(static_cast<double>(r.actual_bytes));
      data_bytes_ += static_cast<double>(r.actual_bytes);
    }
    const std::uint64_t key = std::uint64_t{r.user} << 32 | r.session;
    std::uint32_t& slot = session_slot[key];
    if (slot == 0) {
      acc.emplace_back();
      acc.back().key = key;
      acc.back().start = r.issue_time_us;
      slot = static_cast<std::uint32_t>(acc.size());
    }
    SessionAccumulator& a = acc[slot - 1];
    a.start = std::min(a.start, r.issue_time_us);
    a.end = std::max(a.end, r.issue_time_us + r.response_us);
    ++a.ops;
    if (data_op) {
      a.bytes += r.actual_bytes;
      FileTouch& t = touch(a, r.file_id);
      t.bytes += r.actual_bytes;
      t.file_size = std::max(t.file_size, r.file_size);
      t.category = r.category;
    } else if (r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
      // Opening counts as referencing the file even if no byte moves.
      FileTouch& t = touch(a, r.file_id);
      t.file_size = std::max(t.file_size, r.file_size);
      t.category = r.category;
    }
  }

  for (std::size_t op = 0; op < per_op.size(); ++op) {
    if (per_op[op].response_us.count() > 0) {
      per_op_.emplace(static_cast<fsmodel::FsOpType>(op), per_op[op]);
    }
  }

  // Sessions in (user, session) order and files in id order: the orders the
  // per-session sums and per_category_usage() fold in, so every double is
  // accumulated exactly as an ordered-map scan would.
  std::vector<std::pair<std::uint64_t, std::size_t>> order(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) order[i] = {acc[i].key, i};
  std::sort(order.begin(), order.end());
  sessions_.reserve(acc.size());
  touches_.reserve(acc.size());
  for (const auto& [key, i] : order) {
    SessionAccumulator& a = acc[i];
    std::sort(a.files.begin(), a.files.end(),
              [](const FileTouch& x, const FileTouch& y) { return x.file_id < y.file_id; });
    SessionSummary s;
    s.user = static_cast<std::uint32_t>(key >> 32);
    s.session = static_cast<std::uint32_t>(key);
    s.start_us = a.start;
    s.end_us = a.end;
    s.ops = a.ops;
    s.bytes_accessed = a.bytes;
    s.files_referenced = a.files.size();
    for (const FileTouch& t : a.files) s.total_file_bytes += static_cast<double>(t.file_size);
    if (s.files_referenced > 0) {
      s.mean_file_size = s.total_file_bytes / static_cast<double>(s.files_referenced);
    }
    if (s.total_file_bytes > 0.0) {
      s.access_per_byte = static_cast<double>(s.bytes_accessed) / s.total_file_bytes;
    }
    sessions_.push_back(s);
    touches_.push_back(std::move(a.files));
  }
}

double UsageAnalyzer::response_per_byte_us() const {
  return data_bytes_ > 0.0 ? response_sum_us_ / data_bytes_ : 0.0;
}

namespace {

stats::Histogram histogram_of(const std::vector<double>& values, std::size_t bins) {
  if (values.empty()) return stats::Histogram(0.0, 1.0, bins);
  return stats::Histogram::from_data(values, bins);
}

}  // namespace

stats::Histogram UsageAnalyzer::session_access_per_byte_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    if (s.files_referenced > 0) values.push_back(s.access_per_byte);
  }
  return histogram_of(values, bins);
}

stats::Histogram UsageAnalyzer::session_file_size_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) {
    if (s.files_referenced > 0) values.push_back(s.mean_file_size);
  }
  return histogram_of(values, bins);
}

stats::Histogram UsageAnalyzer::session_files_histogram(std::size_t bins) const {
  std::vector<double> values;
  values.reserve(sessions_.size());
  for (const auto& s : sessions_) values.push_back(static_cast<double>(s.files_referenced));
  return histogram_of(values, bins);
}

std::map<std::string, CategoryUsage> UsageAnalyzer::per_category_usage() const {
  std::map<std::string, CategoryUsage> out;
  std::map<std::string, std::size_t> sessions_touching;
  std::size_t touching_any = 0;
  for (const auto& files : touches_) {
    if (files.empty()) continue;
    ++touching_any;
    std::map<std::string, std::size_t> files_in_category;
    for (const FileTouch& t : files) {
      const std::string label = t.category.label();
      auto& usage = out[label];
      if (t.file_size > 0) {
        usage.access_per_byte.add(static_cast<double>(t.bytes) /
                                  static_cast<double>(t.file_size));
        usage.file_size.add(static_cast<double>(t.file_size));
      }
      ++files_in_category[label];
    }
    for (const auto& [label, count] : files_in_category) {
      out[label].files_per_session.add(static_cast<double>(count));
      ++sessions_touching[label];
    }
  }
  // Over the sessions that referenced at least one file.
  const double total_sessions = static_cast<double>(touching_any);
  if (total_sessions > 0.0) {
    for (auto& [label, usage] : out) {
      usage.fraction_sessions_touching =
          static_cast<double>(sessions_touching[label]) / total_sessions;
    }
  }
  return out;
}

}  // namespace wlgen::core
