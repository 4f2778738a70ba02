// Streaming log pipeline: binary codec, spill sink, k-way merge reader and
// the text-streaming adapters (DESIGN.md "Streaming log pipeline").
#include "core/log_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/usage_log.h"

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
