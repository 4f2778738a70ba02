#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/usage_log.h"

namespace wlgen::core {

// ---------------------------------------------------------------------------
// Producer side: LogSink
// ---------------------------------------------------------------------------

/// Record-at-a-time consumer of a usage-log stream — the producer-side half
/// of the streaming log pipeline (DESIGN.md "Streaming log pipeline").
/// Everything that used to "return a UsageLog by value" now appends into a
/// LogSink instead, so the producer never has to know whether records are
/// being materialized in RAM (MemorySink — the default, today's behaviour)
/// or spilled to sorted on-disk runs (SpillSink — the million-user path).
class LogSink {
 public:
  virtual ~LogSink() = default;

  /// Appends one completed-op record.  Producers append in per-user issue
  /// order with ascending user index across users (the order UserSimulator
  /// and the sharded runner naturally produce).
  virtual void append(const OpRecord& record) = 0;

  /// Flushes buffered state and finalizes the sink.  Idempotent; append()
  /// must not be called afterwards.
  virtual void close() = 0;
};

/// In-memory sink: appends into a UsageLog (exactly the historical path).
class MemorySink final : public LogSink {
 public:
  void append(const OpRecord& record) override { log_.append(record); }
  void close() override {}

  const UsageLog& log() const { return log_; }
  UsageLog take_log() { return std::move(log_); }

 private:
  UsageLog log_;
};

// ---------------------------------------------------------------------------
// Binary run format
// ---------------------------------------------------------------------------

/// Fixed-width little-endian record encoding.  Doubles are stored as their
/// raw IEEE-754 bits, so a spill-and-read round trip is bit-exact — the
/// merge contract and the %.17g digests both depend on that.
inline constexpr std::size_t kSpillRecordBytes = 60;

/// 8-byte magic + u64 record count, then count fixed-width records.
inline constexpr std::size_t kSpillHeaderBytes = 16;
inline constexpr char kSpillMagic[8] = {'W', 'L', 'G', 'R', 'U', 'N', '1', '\0'};

void encode_record(const OpRecord& record, unsigned char* out);
OpRecord decode_record(const unsigned char* in);

/// Metadata of one sorted on-disk run.
struct SpillRun {
  std::string path;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;  ///< file size including the header
};

/// Disk-spilling sink: buffers records and cuts them into sorted run files
/// (`<stem>_run<NNNNNN>.wlr` under `dir`) of ~`buffer_records` each.
///
/// Runs are only cut at *user boundaries*: a user's records never straddle
/// two runs.  Producers append users in ascending index order and each
/// user's records in issue order (per-user issue times are nondecreasing —
/// records are emitted at op completion inside a time-monotone event loop),
/// so a stable sort of each run by (issue_time, user) plus a k-way merge
/// keyed the same way reproduces runner::merge_user_logs byte for byte:
/// within-user order survives the stable sort, and a (time, user) key can
/// never tie across runs because a user lives in exactly one run.
class SpillSink final : public LogSink {
 public:
  /// Creates `dir` if needed.  Throws std::runtime_error when the directory
  /// or a run file cannot be created.
  SpillSink(std::string dir, std::string stem, std::size_t buffer_records = 65536);
  ~SpillSink() override;
  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  void append(const OpRecord& record) override;
  void close() override;

  /// The finished runs (valid after close()).
  const std::vector<SpillRun>& runs() const { return runs_; }
  std::uint64_t records_written() const { return records_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void flush();

  std::string dir_;
  std::string stem_;
  std::size_t buffer_records_;
  std::vector<OpRecord> buffer_;
  std::vector<SpillRun> runs_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint32_t last_user_ = 0;
  bool have_user_ = false;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Consumer side: LogReader
// ---------------------------------------------------------------------------

/// Forward cursor over a usage-log stream — the consumer-side half of the
/// pipeline.  UsageAnalyzer, TraceReplayer and the text serializer all
/// iterate one of these, so they work identically over an in-RAM log, one
/// spilled run, or a k-way merge of a million users' runs.
class LogReader {
 public:
  virtual ~LogReader() = default;

  /// Fills `out` with the next record; false at end of stream.
  virtual bool next(OpRecord& out) = 0;
};

/// Cursor over a materialized UsageLog (non-owning).
class MemoryLogReader final : public LogReader {
 public:
  explicit MemoryLogReader(const UsageLog& log) : log_(log) {}
  bool next(OpRecord& out) override {
    if (index_ >= log_.size()) return false;
    out = log_.records()[index_++];
    return true;
  }

 private:
  const UsageLog& log_;
  std::size_t index_ = 0;
};

/// Buffered cursor over one binary run file.  Throws std::runtime_error on
/// open failure, bad magic, a truncated file, or a record whose op or
/// category byte names no enumerator (the message gives the file and the
/// record index).
class RunFileReader final : public LogReader {
 public:
  explicit RunFileReader(const SpillRun& run);
  ~RunFileReader() override;
  RunFileReader(const RunFileReader&) = delete;
  RunFileReader& operator=(const RunFileReader&) = delete;

  bool next(OpRecord& out) override;

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<unsigned char> buffer_;
  std::size_t buffer_pos_ = 0;   ///< bytes consumed from buffer_
  std::size_t buffer_len_ = 0;   ///< bytes valid in buffer_
  std::uint64_t records_ = 0;    ///< records the header declares
  std::uint64_t remaining_ = 0;  ///< records left in the file
};

/// Loser-tree k-way merge over sorted inputs, keyed by (issue_time, user)
/// with input index as the final tie-break — the reader that gives a
/// spilled sharded run the exact merge_user_logs stream.  Each input must
/// itself be non-descending on (issue_time, user).  Handles k = 0 (empty
/// stream) and k = 1 (degenerate pass-through) without special casing at
/// the call site.
class MergeLogReader final : public LogReader {
 public:
  explicit MergeLogReader(std::vector<std::unique_ptr<LogReader>> inputs);
  bool next(OpRecord& out) override;

 private:
  bool beats(std::size_t a, std::size_t b) const;
  void replay(std::size_t leaf);

  std::vector<std::unique_ptr<LogReader>> inputs_;
  std::vector<OpRecord> current_;
  std::vector<char> valid_;
  std::vector<std::size_t> tree_;  ///< [0] = winner, [1..k-1] = losers
  std::size_t k_ = 0;
};

/// Read-ahead cursor: one helper thread drains `inner` into a fixed ring of
/// record blocks while the caller consumes the previous ones, so an
/// expensive inner stream (a k-way merge over run files) overlaps with
/// whatever the caller does per record.  The stream is the inner stream,
/// record for record.  An exception the inner reader throws on the helper
/// thread is rethrown by next() after every record that preceded it, i.e.
/// at the same stream position an in-thread drain would see it.  The
/// destructor stops and joins the helper at any point in the stream.
class PrefetchLogReader final : public LogReader {
 public:
  static constexpr std::size_t kBlockRecords = 1024;
  static constexpr std::size_t kRingBlocks = 4;

  explicit PrefetchLogReader(std::unique_ptr<LogReader> inner);
  ~PrefetchLogReader() override;
  PrefetchLogReader(const PrefetchLogReader&) = delete;
  PrefetchLogReader& operator=(const PrefetchLogReader&) = delete;

  bool next(OpRecord& out) override;

 private:
  void produce();
  bool acquire_block();

  std::unique_ptr<LogReader> inner_;
  std::vector<OpRecord> ring_;  ///< kRingBlocks blocks of kBlockRecords

  std::mutex mutex_;
  std::size_t fill_[kRingBlocks] = {};  ///< records in each published block
  std::condition_variable ready_;  ///< consumer waits: a block is published
  std::condition_variable space_;  ///< helper waits: a block is released
  std::size_t published_ = 0;      ///< blocks the helper has filled
  std::size_t released_ = 0;       ///< blocks the consumer has finished
  bool finished_ = false;          ///< helper saw end of stream or an error
  bool stopping_ = false;          ///< destructor asked the helper to quit
  std::exception_ptr error_;

  // Consumer-side cursor into the held block (touched only by next()).
  const OpRecord* cursor_ = nullptr;
  const OpRecord* end_ = nullptr;
  bool holding_ = false;

  std::thread helper_;
};

/// The merged (issue_time, user) view over a set of spilled runs, drained
/// on the calling thread.  Opening the run files and priming the merge
/// happen here, so open, header and first-record errors throw from this
/// call.
std::unique_ptr<LogReader> merge_spilled_runs(const std::vector<SpillRun>& runs);

/// merge_spilled_runs wrapped in a PrefetchLogReader: the same stream and
/// the same errors, with the merge running on a helper thread.  This is the
/// whole-log entry point (analysis, text export, merge verification); code
/// already running inside pool workers uses merge_spilled_runs so it never
/// adds a thread per worker.
std::unique_ptr<LogReader> open_spilled_log(const std::vector<SpillRun>& runs);

// ---------------------------------------------------------------------------
// Streaming adapters
// ---------------------------------------------------------------------------

/// Streams the reader to `out` in UsageLog::serialize's exact text format
/// (header line + one tab-separated record per line, %.17g doubles).
/// Returns the number of records written.
std::uint64_t write_log_text(LogReader& reader, std::ostream& out);

/// write_log_text into the file at `path`, creating parent directories when
/// needed.  The text goes straight to the file, so a spilled run's merged
/// log is never held in RAM.  Throws std::runtime_error when the file
/// cannot be opened or written.  Returns the number of records written.
std::uint64_t write_log_file(LogReader& reader, const std::string& path);

/// Parses UsageLog text (serialize() output) record by record into `sink`.
/// Throws std::invalid_argument on malformed input.
void parse_log_text(const std::string& text, LogSink& sink);

/// Drains a reader into a materialized UsageLog (tests and small runs).
UsageLog materialize(LogReader& reader);

}  // namespace wlgen::core
