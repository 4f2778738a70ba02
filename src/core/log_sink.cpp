#include "core/log_sink.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/strings.h"
#include "util/svg.h"

namespace wlgen::core {

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

namespace {

inline void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

inline double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// True when the op and category bytes of an encoded record name real
/// enumerators — decode_record casts them unchecked, and consumers index
/// arrays by them.
bool enum_bytes_valid(const unsigned char* in) {
  return in[24] < fsmodel::kFsOpTypeCount &&
         in[25] <= static_cast<unsigned char>(FileType::regular) &&
         in[26] <= static_cast<unsigned char>(FileOwner::other) &&
         in[27] <= static_cast<unsigned char>(UseMode::temp);
}

std::string run_file_name(const std::string& stem, std::size_t index) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%06zu", index);
  return stem + "_run" + buffer + ".wlr";
}

}  // namespace

void encode_record(const OpRecord& r, unsigned char* out) {
  put_u64(out + 0, double_bits(r.issue_time_us));
  put_u64(out + 8, double_bits(r.response_us));
  put_u32(out + 16, r.user);
  put_u32(out + 20, r.session);
  out[24] = static_cast<unsigned char>(r.op);
  out[25] = static_cast<unsigned char>(r.category.file_type);
  out[26] = static_cast<unsigned char>(r.category.owner);
  out[27] = static_cast<unsigned char>(r.category.use);
  put_u64(out + 28, r.requested_bytes);
  put_u64(out + 36, r.actual_bytes);
  put_u64(out + 44, r.file_id);
  put_u64(out + 52, r.file_size);
}

OpRecord decode_record(const unsigned char* in) {
  OpRecord r;
  r.issue_time_us = bits_double(get_u64(in + 0));
  r.response_us = bits_double(get_u64(in + 8));
  r.user = get_u32(in + 16);
  r.session = get_u32(in + 20);
  r.op = static_cast<fsmodel::FsOpType>(in[24]);
  r.category.file_type = static_cast<FileType>(in[25]);
  r.category.owner = static_cast<FileOwner>(in[26]);
  r.category.use = static_cast<UseMode>(in[27]);
  r.requested_bytes = get_u64(in + 28);
  r.actual_bytes = get_u64(in + 36);
  r.file_id = get_u64(in + 44);
  r.file_size = get_u64(in + 52);
  return r;
}

// ---------------------------------------------------------------------------
// SpillSink
// ---------------------------------------------------------------------------

SpillSink::SpillSink(std::string dir, std::string stem, std::size_t buffer_records)
    : dir_(std::move(dir)),
      stem_(std::move(stem)),
      buffer_records_(std::max<std::size_t>(1, buffer_records)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("SpillSink: cannot create spool directory '" + dir_ +
                             "': " + ec.message());
  }
  buffer_.reserve(buffer_records_);
}

SpillSink::~SpillSink() = default;

void SpillSink::append(const OpRecord& record) {
  if (closed_) throw std::logic_error("SpillSink::append after close");
  // Runs are cut only when a *new* user arrives with the buffer over budget,
  // so a user's records never straddle two runs — the property that makes
  // per-run stable sort + k-way merge reproduce merge_user_logs exactly.
  if (have_user_ && record.user != last_user_ && buffer_.size() >= buffer_records_) flush();
  buffer_.push_back(record);
  last_user_ = record.user;
  have_user_ = true;
}

void SpillSink::close() {
  if (closed_) return;
  flush();
  closed_ = true;
}

void SpillSink::flush() {
  if (buffer_.empty()) return;
  // Each user's records arrive in issue order (nondecreasing time) with
  // users ascending, so the stable sort keeps per-user relative order —
  // exactly merge_user_logs' key and tie rules within this run.
  std::stable_sort(buffer_.begin(), buffer_.end(), [](const OpRecord& a, const OpRecord& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });

  const std::string path =
      (std::filesystem::path(dir_) / run_file_name(stem_, runs_.size())).string();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("SpillSink: cannot create run file '" + path + "'");
  }

  unsigned char header[kSpillHeaderBytes];
  std::memcpy(header, kSpillMagic, sizeof kSpillMagic);
  put_u64(header + 8, buffer_.size());

  std::vector<unsigned char> encoded(buffer_.size() * kSpillRecordBytes);
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    encode_record(buffer_[i], encoded.data() + i * kSpillRecordBytes);
  }
  const bool ok = std::fwrite(header, 1, sizeof header, file) == sizeof header &&
                  std::fwrite(encoded.data(), 1, encoded.size(), file) == encoded.size();
  const bool closed_ok = std::fclose(file) == 0;
  if (!ok || !closed_ok) {
    throw std::runtime_error("SpillSink: short write to run file '" + path + "'");
  }

  SpillRun run;
  run.path = path;
  run.records = buffer_.size();
  run.bytes = kSpillHeaderBytes + encoded.size();
  records_written_ += run.records;
  bytes_written_ += run.bytes;
  runs_.push_back(std::move(run));
  buffer_.clear();
}

// ---------------------------------------------------------------------------
// RunFileReader
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kReadChunkRecords = 1024;
}

RunFileReader::RunFileReader(const SpillRun& run) : path_(run.path) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("RunFileReader: cannot open run file '" + path_ + "'");
  }
  unsigned char header[kSpillHeaderBytes];
  if (std::fread(header, 1, sizeof header, file_) != sizeof header ||
      std::memcmp(header, kSpillMagic, sizeof kSpillMagic) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("RunFileReader: '" + path_ + "' is not a wlgen run file");
  }
  remaining_ = get_u64(header + 8);
  records_ = remaining_;
  buffer_.resize(kReadChunkRecords * kSpillRecordBytes);
}

RunFileReader::~RunFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool RunFileReader::next(OpRecord& out) {
  if (remaining_ == 0) return false;
  if (buffer_pos_ >= buffer_len_) {
    const std::size_t want =
        std::min<std::uint64_t>(remaining_, kReadChunkRecords) * kSpillRecordBytes;
    buffer_len_ = std::fread(buffer_.data(), 1, want, file_);
    buffer_pos_ = 0;
    // `want` is exactly what the header still owes us, so any short read —
    // even one that yields whole records — means the file was truncated.
    if (buffer_len_ != want) {
      throw std::runtime_error("RunFileReader: truncated run file '" + path_ + "'");
    }
  }
  const unsigned char* encoded = buffer_.data() + buffer_pos_;
  if (!enum_bytes_valid(encoded)) {
    throw std::runtime_error("RunFileReader: run file '" + path_ + "' record " +
                             std::to_string(records_ - remaining_) +
                             " has an out-of-range op or category byte");
  }
  out = decode_record(encoded);
  buffer_pos_ += kSpillRecordBytes;
  --remaining_;
  return true;
}

// ---------------------------------------------------------------------------
// MergeLogReader (loser tree)
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kNoInput = static_cast<std::size_t>(-1);
}

MergeLogReader::MergeLogReader(std::vector<std::unique_ptr<LogReader>> inputs)
    : inputs_(std::move(inputs)), k_(inputs_.size()) {
  current_.resize(k_);
  valid_.resize(k_, 0);
  tree_.assign(std::max<std::size_t>(k_, 1), kNoInput);
  for (std::size_t i = 0; i < k_; ++i) valid_[i] = inputs_[i]->next(current_[i]) ? 1 : 0;
  // Build the loser tree by inserting leaves in index order: each insertion
  // either settles into the first empty internal node on its root path or —
  // exactly once, for the last path — reaches tree_[0] as the winner.
  for (std::size_t i = 0; i < k_; ++i) {
    std::size_t winner = i;
    bool settled = false;
    for (std::size_t node = (i + k_) / 2; node >= 1; node /= 2) {
      if (tree_[node] == kNoInput) {
        tree_[node] = winner;
        settled = true;
        break;
      }
      if (beats(tree_[node], winner)) std::swap(winner, tree_[node]);
    }
    if (!settled) tree_[0] = winner;
  }
}

bool MergeLogReader::beats(std::size_t a, std::size_t b) const {
  if (!valid_[a]) return false;
  if (!valid_[b]) return true;
  const OpRecord& ra = current_[a];
  const OpRecord& rb = current_[b];
  if (ra.issue_time_us != rb.issue_time_us) return ra.issue_time_us < rb.issue_time_us;
  if (ra.user != rb.user) return ra.user < rb.user;
  return a < b;  // stability across inputs: lower input index first
}

void MergeLogReader::replay(std::size_t leaf) {
  std::size_t winner = leaf;
  for (std::size_t node = (leaf + k_) / 2; node >= 1; node /= 2) {
    if (beats(tree_[node], winner)) std::swap(winner, tree_[node]);
  }
  tree_[0] = winner;
}

bool MergeLogReader::next(OpRecord& out) {
  if (k_ == 0) return false;
  const std::size_t w = tree_[0];
  if (w == kNoInput || !valid_[w]) return false;
  out = current_[w];
  valid_[w] = inputs_[w]->next(current_[w]) ? 1 : 0;
  replay(w);
  return true;
}

// ---------------------------------------------------------------------------
// PrefetchLogReader
// ---------------------------------------------------------------------------

// Block hand-over protocol: the helper fills block `published_ % kRingBlocks`
// outside the lock and publishes it by bumping published_ under the lock;
// the consumer holds block `released_ % kRingBlocks` while it reads it and
// gives it back by bumping released_.  The helper may only start a block
// while published_ - released_ < kRingBlocks, so it never writes the block
// the consumer holds.  Every read and write of a block's records is ordered
// by the mutex acquire/release around those counter updates.

PrefetchLogReader::PrefetchLogReader(std::unique_ptr<LogReader> inner)
    : inner_(std::move(inner)), ring_(kRingBlocks * kBlockRecords) {
  helper_ = std::thread([this] { produce(); });
}

PrefetchLogReader::~PrefetchLogReader() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  space_.notify_one();
  helper_.join();
}

void PrefetchLogReader::produce() {
  for (;;) {
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      space_.wait(lock, [this] { return stopping_ || published_ - released_ < kRingBlocks; });
      if (stopping_) return;
      slot = published_ % kRingBlocks;
    }
    OpRecord* block = ring_.data() + slot * kBlockRecords;
    std::size_t count = 0;
    std::exception_ptr error;
    try {
      while (count < kBlockRecords && inner_->next(block[count])) ++count;
    } catch (...) {
      error = std::current_exception();
    }
    // A short block means the inner stream ended or threw.
    const bool at_end = count < kBlockRecords;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      fill_[slot] = count;
      if (count > 0) ++published_;
      if (at_end) {
        finished_ = true;
        error_ = error;
      }
    }
    ready_.notify_one();
    if (at_end) return;
  }
}

bool PrefetchLogReader::acquire_block() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (holding_) {
    ++released_;
    holding_ = false;
    space_.notify_one();
  }
  ready_.wait(lock, [this] { return published_ > released_ || finished_; });
  if (published_ > released_) {
    const std::size_t slot = released_ % kRingBlocks;
    cursor_ = ring_.data() + slot * kBlockRecords;
    end_ = cursor_ + fill_[slot];
    holding_ = true;
    return true;
  }
  if (error_) std::rethrow_exception(error_);
  return false;
}

bool PrefetchLogReader::next(OpRecord& out) {
  if (cursor_ == end_ && !acquire_block()) return false;
  out = *cursor_++;
  return true;
}

std::unique_ptr<LogReader> merge_spilled_runs(const std::vector<SpillRun>& runs) {
  std::vector<std::unique_ptr<LogReader>> readers;
  readers.reserve(runs.size());
  for (const auto& run : runs) readers.push_back(std::make_unique<RunFileReader>(run));
  return std::make_unique<MergeLogReader>(std::move(readers));
}

std::unique_ptr<LogReader> open_spilled_log(const std::vector<SpillRun>& runs) {
  return std::make_unique<PrefetchLogReader>(merge_spilled_runs(runs));
}

// ---------------------------------------------------------------------------
// Streaming adapters
// ---------------------------------------------------------------------------

std::uint64_t write_log_text(LogReader& reader, std::ostream& out) {
  const auto saved_precision = out.precision(17);
  out << usage_log_header_line();
  std::uint64_t written = 0;
  OpRecord record;
  while (reader.next(record)) {
    append_record_text(out, record);
    ++written;
  }
  out.precision(saved_precision);
  return written;
}

std::uint64_t write_log_file(LogReader& reader, const std::string& path) {
  std::ofstream out = util::open_text_file(path);
  const std::uint64_t written = write_log_text(reader, out);
  out.flush();
  if (!out) throw std::runtime_error("write_text_file: write failed for " + path);
  return written;
}

void parse_log_text(const std::string& text, LogSink& sink) {
  for (const auto& line : util::split(text, '\n')) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    sink.append(parse_record_line(trimmed));
  }
  sink.close();
}

UsageLog materialize(LogReader& reader) {
  UsageLog log;
  OpRecord record;
  while (reader.next(record)) log.append(record);
  return log;
}

}  // namespace wlgen::core
