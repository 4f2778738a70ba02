// Streaming log pipeline: binary codec, spill sink, k-way merge reader, the
// prefetching reader and the text-streaming adapters (DESIGN.md "Streaming
// log pipeline").
#include "core/log_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.h"
#include "core/usage_log.h"
#include "util/svg.h"

namespace wlgen::core {
namespace {

OpRecord make_record(std::uint32_t user, double issue_us, double response_us,
                     std::uint64_t bytes = 512) {
  OpRecord r;
  r.issue_time_us = issue_us;
  r.response_us = response_us;
  r.user = user;
  r.session = user * 2 + 1;
  r.op = fsmodel::FsOpType::read;
  r.category = {FileType::regular, FileOwner::notes, UseMode::read_write};
  r.requested_bytes = bytes;
  r.actual_bytes = bytes;
  r.file_id = 7000 + user;
  r.file_size = 4096;
  return r;
}

std::string temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("wlgen_log_sink_") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(RecordCodec, RoundTripsEveryFieldBitExact) {
  OpRecord r = make_record(42, 123.456789012345678, 9.000000000000002e-3);
  r.op = fsmodel::FsOpType::creat;
  r.category = {FileType::directory, FileOwner::other, UseMode::temp};
  r.requested_bytes = 0xDEADBEEFCAFEull;
  r.actual_bytes = 0x123456789ABCull;
  r.file_id = 0xFFFFFFFFFFFFFFFFull;
  r.file_size = 1;

  unsigned char buffer[kSpillRecordBytes];
  encode_record(r, buffer);
  const OpRecord d = decode_record(buffer);

  // Doubles travel as raw IEEE bits: compare representations, not values.
  EXPECT_EQ(std::memcmp(&d.issue_time_us, &r.issue_time_us, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&d.response_us, &r.response_us, sizeof(double)), 0);
  EXPECT_EQ(d.user, r.user);
  EXPECT_EQ(d.session, r.session);
  EXPECT_EQ(d.op, r.op);
  EXPECT_EQ(d.category, r.category);
  EXPECT_EQ(d.requested_bytes, r.requested_bytes);
  EXPECT_EQ(d.actual_bytes, r.actual_bytes);
  EXPECT_EQ(d.file_id, r.file_id);
  EXPECT_EQ(d.file_size, r.file_size);
}

TEST(RecordCodec, PreservesNonFiniteAndDenormalDoubles) {
  for (double value : {0.0, -0.0, 5e-324, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    OpRecord r = make_record(1, value, value);
    unsigned char buffer[kSpillRecordBytes];
    encode_record(r, buffer);
    const OpRecord d = decode_record(buffer);
    EXPECT_EQ(std::memcmp(&d.issue_time_us, &r.issue_time_us, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&d.response_us, &r.response_us, sizeof(double)), 0);
  }
}

TEST(SpillSink, SingleRunRoundTrip) {
  const std::string dir = temp_dir("single");
  SpillSink sink(dir, "shard000000", 1024);
  std::vector<OpRecord> records;
  for (std::uint32_t u = 0; u < 5; ++u) {
    for (int i = 0; i < 7; ++i) {
      records.push_back(make_record(u, 100.0 * i + u, 3.5 * i));
      sink.append(records.back());
    }
  }
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  EXPECT_EQ(sink.records_written(), records.size());
  EXPECT_EQ(sink.runs()[0].bytes,
            kSpillHeaderBytes + records.size() * kSpillRecordBytes);

  auto reader = open_spilled_log(sink.runs());
  const UsageLog log = materialize(*reader);

  // Ground truth: the exact merge contract (stable sort by time then user).
  std::vector<OpRecord> expected = records;
  std::stable_sort(expected.begin(), expected.end(), [](const auto& a, const auto& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  ASSERT_EQ(log.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(log.records()[i].issue_time_us, expected[i].issue_time_us);
    EXPECT_EQ(log.records()[i].user, expected[i].user);
    EXPECT_EQ(log.records()[i].file_id, expected[i].file_id);
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillSink, CutsRunsOnlyAtUserBoundaries) {
  const std::string dir = temp_dir("boundaries");
  // Tiny buffer so nearly every user boundary cuts a run — but a single
  // user's burst (longer than the buffer) must still stay in one run.
  SpillSink sink(dir, "s", 4);
  for (int i = 0; i < 11; ++i) sink.append(make_record(0, i, 1.0));  // > buffer
  for (std::uint32_t u = 1; u < 6; ++u) {
    for (int i = 0; i < 3; ++i) sink.append(make_record(u, i, 1.0));
  }
  sink.close();
  ASSERT_GE(sink.runs().size(), 2u);

  // No user may appear in two runs.
  std::vector<std::uint32_t> owner_run(16, UINT32_MAX);
  for (std::size_t run_index = 0; run_index < sink.runs().size(); ++run_index) {
    RunFileReader reader(sink.runs()[run_index]);
    OpRecord r;
    while (reader.next(r)) {
      if (owner_run[r.user] == UINT32_MAX) {
        owner_run[r.user] = static_cast<std::uint32_t>(run_index);
      }
      EXPECT_EQ(owner_run[r.user], run_index) << "user " << r.user << " straddles runs";
    }
  }
  EXPECT_EQ(sink.records_written(), 11u + 5u * 3u);
  std::filesystem::remove_all(dir);
}

TEST(MergeLogReader, HandlesZeroAndOneInput) {
  std::vector<std::unique_ptr<LogReader>> none;
  MergeLogReader empty(std::move(none));
  OpRecord r;
  EXPECT_FALSE(empty.next(r));

  UsageLog log;
  log.append(make_record(3, 1.0, 2.0));
  log.append(make_record(3, 5.0, 2.0));
  std::vector<std::unique_ptr<LogReader>> one;
  one.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader single(std::move(one));
  ASSERT_TRUE(single.next(r));
  EXPECT_EQ(r.issue_time_us, 1.0);
  ASSERT_TRUE(single.next(r));
  EXPECT_EQ(r.issue_time_us, 5.0);
  EXPECT_FALSE(single.next(r));
}

TEST(MergeLogReader, MergesWithEmptyInputsAndTieBreaksByUser) {
  // Inputs 0 and 2 are empty; 1 and 3 tie on issue_time everywhere, so the
  // user index decides — exactly the merge_user_logs contract.
  UsageLog a;
  a.append(make_record(7, 10.0, 1.0));
  a.append(make_record(7, 20.0, 1.0));
  UsageLog b;
  b.append(make_record(2, 10.0, 1.0));
  b.append(make_record(2, 20.0, 1.0));
  UsageLog empty_log;

  std::vector<std::unique_ptr<LogReader>> inputs;
  inputs.push_back(std::make_unique<MemoryLogReader>(empty_log));
  inputs.push_back(std::make_unique<MemoryLogReader>(a));
  inputs.push_back(std::make_unique<MemoryLogReader>(empty_log));
  inputs.push_back(std::make_unique<MemoryLogReader>(b));
  MergeLogReader merge(std::move(inputs));

  std::vector<std::uint32_t> users;
  OpRecord r;
  while (merge.next(r)) users.push_back(r.user);
  EXPECT_EQ(users, (std::vector<std::uint32_t>{2, 7, 2, 7}));
}

TEST(MergeLogReader, PreservesWithinUserOrderOnEqualTimestamps) {
  // Same (time, user) repeatedly in ONE input: input order must survive —
  // the stable-sort half of the merge contract.
  UsageLog log;
  for (std::uint64_t i = 0; i < 6; ++i) log.append(make_record(4, 50.0, 1.0, 100 + i));
  std::vector<std::unique_ptr<LogReader>> inputs;
  inputs.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader merge(std::move(inputs));
  OpRecord r;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(merge.next(r));
    EXPECT_EQ(r.requested_bytes, 100 + i);
  }
  EXPECT_FALSE(merge.next(r));
}

TEST(MergeLogReader, ManyInputsMatchGlobalStableSort) {
  std::mt19937 rng(1992);
  std::vector<UsageLog> logs(9);
  std::vector<OpRecord> all;
  for (std::uint32_t input = 0; input < logs.size(); ++input) {
    double t = 0.0;
    const int count = static_cast<int>(rng() % 40);  // some inputs empty
    for (int i = 0; i < count; ++i) {
      t += static_cast<double>(rng() % 5);  // nondecreasing, frequent ties
      const OpRecord r = make_record(input, t, 1.0, all.size());
      logs[input].append(r);
      all.push_back(r);
    }
  }
  std::vector<std::unique_ptr<LogReader>> inputs;
  for (const auto& log : logs) inputs.push_back(std::make_unique<MemoryLogReader>(log));
  MergeLogReader merge(std::move(inputs));

  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.issue_time_us != b.issue_time_us) return a.issue_time_us < b.issue_time_us;
    return a.user < b.user;
  });
  OpRecord r;
  for (const auto& expected : all) {
    ASSERT_TRUE(merge.next(r));
    EXPECT_EQ(r.issue_time_us, expected.issue_time_us);
    EXPECT_EQ(r.user, expected.user);
    EXPECT_EQ(r.requested_bytes, expected.requested_bytes);
  }
  EXPECT_FALSE(merge.next(r));
}

TEST(RunFileReader, RejectsBadMagicAndTruncation) {
  const std::string dir = temp_dir("corrupt");
  SpillSink sink(dir, "x", 64);
  for (int i = 0; i < 10; ++i) sink.append(make_record(0, i, 1.0));
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  SpillRun run = sink.runs()[0];

  // Truncate the file mid-record.
  std::filesystem::resize_file(run.path, run.bytes - 7);
  {
    RunFileReader reader(run);
    OpRecord r;
    EXPECT_THROW({ while (reader.next(r)) {} }, std::runtime_error);
  }

  // Corrupt the magic.
  {
    std::FILE* f = std::fopen(run.path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_THROW(RunFileReader{run}, std::runtime_error);

  SpillRun missing = run;
  missing.path += ".nope";
  EXPECT_THROW(RunFileReader{missing}, std::runtime_error);
  std::filesystem::remove_all(dir);
}

// Overwrites one byte of a run file in place (the file keeps its size, so
// only record validation can notice).
void poke_byte(const std::string& path, std::uint64_t offset, unsigned char value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(value, f);
  std::fclose(f);
}

TEST(RunFileReader, RejectsOutOfRangeOpAndCategoryBytes) {
  const std::string dir = temp_dir("enum_bytes");
  SpillSink sink(dir, "x", 64);
  for (int i = 0; i < 10; ++i) sink.append(make_record(0, i, 1.0));
  sink.close();
  ASSERT_EQ(sink.runs().size(), 1u);
  const SpillRun run = sink.runs()[0];
  const std::string original = [&] {
    std::FILE* f = std::fopen(run.path.c_str(), "rb");
    std::string bytes(run.bytes, '\0');
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }();

  // Record 6's op byte, then each category byte, one past the last
  // enumerator and at 0xFF.
  constexpr std::uint64_t kRecord = 6;
  const std::uint64_t base = kSpillHeaderBytes + kRecord * kSpillRecordBytes;
  const struct {
    std::uint64_t offset;
    unsigned char value;
  } flips[] = {{24, static_cast<unsigned char>(fsmodel::kFsOpTypeCount)}, {24, 0xFF},
               {25, 2}, {25, 0xFF}, {26, 3}, {26, 0xFF}, {27, 4}, {27, 0xFF}};
  for (const auto& flip : flips) {
    poke_byte(run.path, base + flip.offset, flip.value);
    ASSERT_EQ(std::filesystem::file_size(run.path), run.bytes);
    RunFileReader reader(run);
    OpRecord r;
    for (std::uint64_t i = 0; i < kRecord; ++i) ASSERT_TRUE(reader.next(r));
    try {
      reader.next(r);
      ADD_FAILURE() << "byte " << flip.offset << " = " << int{flip.value} << " was accepted";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(run.path), std::string::npos) << message;
      EXPECT_NE(message.find("record 6"), std::string::npos) << message;
    }
    poke_byte(run.path, base + flip.offset,
              static_cast<unsigned char>(original[base + flip.offset]));
  }

  // Restored, the file reads through: the check accepts every real value.
  auto reader = open_spilled_log({run});
  EXPECT_EQ(materialize(*reader).size(), 10u);
  std::filesystem::remove_all(dir);
}

// --- PrefetchLogReader ------------------------------------------------------

constexpr std::size_t kBlock = PrefetchLogReader::kBlockRecords;

// Spills `records` records of users with a few records each (issue times
// drawn per user, nondecreasing) into runs of about `buffer_records`.
std::vector<SpillRun> spill_records(const std::string& dir, std::size_t records,
                                    std::size_t buffer_records) {
  SpillSink sink(dir, "p", buffer_records);
  std::mt19937 rng(static_cast<std::uint32_t>(records * 31 + buffer_records));
  std::uint32_t user = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < records; ++i) {
    if (i % 5 == 0) {
      ++user;
      t = static_cast<double>(rng() % 1000);
    }
    t += static_cast<double>(rng() % 7);  // equal times across users force ties
    sink.append(make_record(user, t, 1.0 + static_cast<double>(i), i));
  }
  sink.close();
  return sink.runs();
}

struct Drained {
  std::vector<OpRecord> records;
  std::string error;  ///< empty when the stream ended normally
};

Drained drain(LogReader& reader) {
  Drained out;
  OpRecord r;
  try {
    while (reader.next(r)) out.records.push_back(r);
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

std::string text_of(const std::vector<OpRecord>& records) {
  UsageLog log;
  for (const auto& r : records) log.append(r);
  return log.serialize();
}

TEST(PrefetchLogReader, StreamMatchesPlainMergeAtEveryBlockBoundary) {
  const std::string dir = temp_dir("prefetch_stream");
  for (const std::size_t records :
       {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1, 3 * kBlock}) {
    // One run (buffer larger than the stream), then many.
    for (const std::size_t buffer : {4 * kBlock, std::max<std::size_t>(1, records / 9)}) {
      std::filesystem::remove_all(dir);
      const auto runs = spill_records(dir, records, buffer);
      if (records == 0) {
        EXPECT_TRUE(runs.empty());
      } else if (buffer > records) {
        EXPECT_EQ(runs.size(), 1u);
      } else if (records > 1) {
        EXPECT_GT(runs.size(), 1u);
      }
      auto plain = merge_spilled_runs(runs);
      auto prefetched = open_spilled_log(runs);
      const Drained expected = drain(*plain);
      const Drained got = drain(*prefetched);
      EXPECT_TRUE(expected.error.empty()) << expected.error;
      EXPECT_TRUE(got.error.empty()) << got.error;
      ASSERT_EQ(got.records.size(), records) << runs.size() << " runs";
      EXPECT_EQ(text_of(got.records), text_of(expected.records))
          << records << " records in " << runs.size() << " runs";
      // Past the end the stream stays ended.
      OpRecord r;
      EXPECT_FALSE(prefetched->next(r));
    }
  }
  std::filesystem::remove_all(dir);
}

// Spills three runs of 1500 records, corrupts run 1 with `corrupt`, then
// drains it through the plain merge and through the prefetcher: both must
// deliver the same records and then the same error.
void expect_same_failure(const char* tag, void (*corrupt)(const SpillRun&),
                         const char* expected_fragment) {
  const std::string dir = temp_dir(tag);
  const auto runs = spill_records(dir, 4500, 1500);
  ASSERT_EQ(runs.size(), 3u);
  ASSERT_GT(runs[1].records, kBlock + 1);
  corrupt(runs[1]);

  auto plain = merge_spilled_runs(runs);
  auto prefetched = open_spilled_log(runs);
  const Drained expected = drain(*plain);
  const Drained got = drain(*prefetched);
  ASSERT_FALSE(expected.error.empty());
  EXPECT_NE(expected.error.find(runs[1].path), std::string::npos) << expected.error;
  EXPECT_NE(expected.error.find(expected_fragment), std::string::npos) << expected.error;
  // The error lies past the first prefetched blocks, so the hand-over of
  // complete blocks and of the partial block before it is exercised.
  EXPECT_GT(expected.records.size(), 2 * kBlock);
  EXPECT_LT(expected.records.size(), 4500u);
  EXPECT_EQ(got.error, expected.error);
  ASSERT_EQ(got.records.size(), expected.records.size());
  EXPECT_EQ(text_of(got.records), text_of(expected.records));
  // The error sticks: the next call reports it again.
  OpRecord r;
  EXPECT_THROW(prefetched->next(r), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(PrefetchLogReader, FlippedEnumByteSurfacesAfterTheSameRecords) {
  expect_same_failure(
      "prefetch_enum",
      [](const SpillRun& run) {
        poke_byte(run.path, kSpillHeaderBytes + 1300 * kSpillRecordBytes + 24, 0xFF);
      },
      "record 1300");
}

TEST(PrefetchLogReader, TruncatedRunSurfacesAfterTheSameRecords) {
  expect_same_failure(
      "prefetch_truncated",
      [](const SpillRun& run) { std::filesystem::resize_file(run.path, run.bytes - 7); },
      "truncated");
}

TEST(PrefetchLogReader, FirstRecordErrorsThrowFromOpen) {
  const std::string dir = temp_dir("prefetch_open");
  const auto runs = spill_records(dir, 600, 200);
  ASSERT_GT(runs.size(), 1u);
  poke_byte(runs[1].path, kSpillHeaderBytes + 25, 0xFF);
  EXPECT_THROW(merge_spilled_runs(runs), std::runtime_error);
  EXPECT_THROW(open_spilled_log(runs), std::runtime_error);
  auto missing = runs;
  missing[0].path += ".nope";
  EXPECT_THROW(open_spilled_log(missing), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(PrefetchLogReader, DestroysMidStream) {
  const std::string dir = temp_dir("prefetch_destroy");
  const auto runs = spill_records(dir, 8 * kBlock, 2 * kBlock);
  for (const std::size_t consumed : {std::size_t{0}, std::size_t{1}, kBlock + 1}) {
    auto reader = open_spilled_log(runs);
    OpRecord r;
    for (std::size_t i = 0; i < consumed; ++i) ASSERT_TRUE(reader->next(r));
    reader.reset();  // must stop and join the helper, not hang
  }
  std::filesystem::remove_all(dir);
}

/// Endless synthetic stream that counts what the helper has pulled.
class CountingReader final : public LogReader {
 public:
  explicit CountingReader(std::atomic<std::size_t>& pulled) : pulled_(pulled) {}
  bool next(OpRecord& out) override {
    const std::size_t i = pulled_.load();
    out = make_record(0, static_cast<double>(i), 1.0);
    pulled_.store(i + 1);
    return true;
  }

 private:
  std::atomic<std::size_t>& pulled_;
};

TEST(PrefetchLogReader, DestroysWhileTheHelperWaitsOnAFullRing) {
  constexpr std::size_t kRing = PrefetchLogReader::kRingBlocks * kBlock;
  for (const std::size_t consumed : {std::size_t{0}, std::size_t{1}}) {
    std::atomic<std::size_t> pulled{0};
    auto reader = std::make_unique<PrefetchLogReader>(std::make_unique<CountingReader>(pulled));
    OpRecord r;
    for (std::size_t i = 0; i < consumed; ++i) {
      ASSERT_TRUE(reader->next(r));
      EXPECT_EQ(r.issue_time_us, static_cast<double>(i));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pulled.load() < kRing && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // The ring is full: the helper stops pulling until a block is released.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pulled.load(), kRing);
    reader.reset();
  }
}

TEST(TextAdapters, WriteLogFileMatchesSerializeAndCreatesDirectories) {
  const std::string dir = temp_dir("log_file");
  UsageLog log;
  for (std::uint32_t u = 0; u < 4; ++u) log.append(make_record(u, 0.3 + u, 1e-7 * u));
  const std::string path = dir + "/nested/out/log.tsv";
  MemoryLogReader reader(log);
  EXPECT_EQ(write_log_file(reader, path), log.size());
  EXPECT_EQ(util::read_text_file(path), log.serialize());

  MemoryLogReader again(log);
  EXPECT_THROW(write_log_file(again, dir), std::runtime_error);  // a directory
  std::filesystem::remove_all(dir);
}

TEST(TextAdapters, WriteLogTextMatchesSerialize) {
  UsageLog log;
  for (std::uint32_t u = 0; u < 3; ++u) {
    log.append(make_record(u, 0.1 + u * 1e-9, 1234.5678901234567));
  }
  std::ostringstream out;
  MemoryLogReader reader(log);
  const std::uint64_t written = write_log_text(reader, out);
  EXPECT_EQ(written, log.size());
  EXPECT_EQ(out.str(), log.serialize());
}

TEST(TextAdapters, ParseLogTextRoundTrips) {
  UsageLog log;
  log.append(make_record(0, 1.5, 2.5));
  log.append(make_record(9, 3.25, 0.125, 0));
  const std::string text = log.serialize();

  MemorySink sink;
  parse_log_text(text, sink);
  const UsageLog parsed = sink.take_log();
  ASSERT_EQ(parsed.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(parsed.records()[i].issue_time_us, log.records()[i].issue_time_us);
    EXPECT_EQ(parsed.records()[i].user, log.records()[i].user);
    EXPECT_EQ(parsed.records()[i].actual_bytes, log.records()[i].actual_bytes);
  }
}

TEST(Analyzer, ReaderAndLogConstructionAgree) {
  UsageLog log;
  std::mt19937 rng(7);
  for (int i = 0; i < 200; ++i) {
    OpRecord r = make_record(rng() % 4, i * 10.0, 1.0 + (rng() % 100));
    if (i % 3 == 0) r.op = fsmodel::FsOpType::write;
    if (i % 7 == 0) r.op = fsmodel::FsOpType::open;
    log.append(r);
  }
  UsageAnalyzer from_log(log);
  MemoryLogReader reader(log);
  UsageAnalyzer from_reader(reader);

  EXPECT_EQ(from_log.op_count(), from_reader.op_count());
  EXPECT_EQ(from_log.response_stats().mean(), from_reader.response_stats().mean());
  EXPECT_EQ(from_log.access_size_stats().mean(), from_reader.access_size_stats().mean());
  EXPECT_EQ(from_log.response_per_byte_us(), from_reader.response_per_byte_us());
}

}  // namespace
}  // namespace wlgen::core
