// Unit tests for src/fs: POSIX-flavoured semantics of the simulated file
// system — path resolution, descriptor lifecycle, EOF truncation,
// unlink-while-open, directory behaviour, capacity accounting.

#include <gtest/gtest.h>

#include "fs/filesystem.h"
#include "fs/path.h"

namespace wlgen::fs {
namespace {

TEST(Path, SplitNormalizes) {
  std::vector<std::string> parts;
  ASSERT_TRUE(split_path("/a/./b/../c//d/", parts));
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "c", "d"}));
  ASSERT_TRUE(split_path("/", parts));
  EXPECT_TRUE(parts.empty());
  EXPECT_FALSE(split_path("relative/path", parts));
  EXPECT_FALSE(split_path("", parts));
}

TEST(Path, DotDotClampsAtRoot) {
  std::vector<std::string> parts;
  ASSERT_TRUE(split_path("/../../a", parts));
  EXPECT_EQ(parts, (std::vector<std::string>{"a"}));
}

TEST(Path, JoinParentBase) {
  EXPECT_EQ(join_path({}), "/");
  EXPECT_EQ(join_path({"a", "b"}), "/a/b");
  EXPECT_EQ(parent_path("/a/b"), "/a");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
  EXPECT_EQ(base_name("/"), "");
}

TEST(FileSystem, CreateWriteReadRoundTrip) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/hello");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fsys.write(fd.value(), 100).value(), 100u);
  EXPECT_EQ(fsys.close(fd.value()), FsStatus::ok);

  const auto rd = fsys.open("/hello", kRead);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 60u);
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 40u);  // EOF truncation
  EXPECT_EQ(fsys.read(rd.value(), 60).value(), 0u);   // at EOF
  EXPECT_EQ(fsys.close(rd.value()), FsStatus::ok);
}

TEST(FileSystem, EofTruncationIsTheTable53Mechanism) {
  // A 1000-byte file read in 1024-byte requests moves only 1000 bytes —
  // the reason the paper's measured mean access size (946.71) is below the
  // 1024-byte input mean.
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 1000);
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  EXPECT_EQ(fsys.read(rd.value(), 1024).value(), 1000u);
}

TEST(FileSystem, OpenFlagsEnforced) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());

  const auto rd = fsys.open("/f", kRead);
  EXPECT_EQ(fsys.write(rd.value(), 5).status(), FsStatus::not_permitted);
  fsys.close(rd.value());

  const auto wr = fsys.open("/f", kWrite);
  EXPECT_EQ(fsys.read(wr.value(), 5).status(), FsStatus::not_permitted);
  fsys.close(wr.value());

  EXPECT_EQ(fsys.open("/f", 0).status(), FsStatus::invalid_argument);
}

TEST(FileSystem, CreatTruncatesExisting) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 500);
  fsys.close(fd.value());
  fd = fsys.creat("/f");
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/f").value().size, 0u);
}

TEST(FileSystem, OpenMissingWithoutCreateFails) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.open("/nope", kRead).status(), FsStatus::not_found);
  EXPECT_EQ(fsys.open("/no/dir/file", kRead | kCreate | kWrite).status(), FsStatus::not_found);
}

TEST(FileSystem, AppendModePositionsAtEof) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/log");
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());
  fd = fsys.open("/log", kWrite | kAppend);
  fsys.write(fd.value(), 5);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/log").value().size, 15u);
}

TEST(FileSystem, LseekWhenceVariants) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 100);
  EXPECT_EQ(fsys.lseek(fd.value(), 10, Seek::set).value(), 10u);
  EXPECT_EQ(fsys.lseek(fd.value(), 5, Seek::cur).value(), 15u);
  EXPECT_EQ(fsys.lseek(fd.value(), -10, Seek::end).value(), 90u);
  EXPECT_EQ(fsys.lseek(fd.value(), -200, Seek::cur).status(), FsStatus::invalid_argument);
  // Seeking past EOF is legal; the read then returns 0.
  EXPECT_EQ(fsys.lseek(fd.value(), 500, Seek::set).value(), 500u);
  fsys.close(fd.value());
}

TEST(FileSystem, BadDescriptorsRejected) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.read(99, 1).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.write(99, 1).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.close(99), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.lseek(99, 0, Seek::set).status(), FsStatus::bad_descriptor);
  EXPECT_EQ(fsys.fstat(99).status(), FsStatus::bad_descriptor);
}

TEST(FileSystem, UnlinkWhileOpenKeepsInodeAlive) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/victim");
  fsys.write(fd.value(), 42);
  EXPECT_EQ(fsys.unlink("/victim"), FsStatus::ok);
  EXPECT_FALSE(fsys.exists("/victim"));
  // The descriptor still works (classic UNIX tmp-file idiom).
  fsys.lseek(fd.value(), 0, Seek::set);
  EXPECT_EQ(fsys.read(fd.value(), 100).status(), FsStatus::not_permitted);  // write-only fd
  EXPECT_EQ(fsys.fstat(fd.value()).value().size, 42u);
  const std::size_t inodes_before = fsys.inode_count();
  fsys.close(fd.value());
  EXPECT_EQ(fsys.inode_count(), inodes_before - 1);  // collected on close
}

TEST(FileSystem, HardLinksShareTheInode) {
  SimulatedFileSystem fsys;
  auto fd = fsys.creat("/a");
  fsys.write(fd.value(), 50);
  fsys.close(fd.value());
  ASSERT_EQ(fsys.link("/a", "/b"), FsStatus::ok);
  EXPECT_EQ(fsys.stat("/b").value().inode, fsys.stat("/a").value().inode);
  EXPECT_EQ(fsys.stat("/a").value().link_count, 2u);
  // Writing through one name is visible through the other.
  fd = fsys.open("/b", kWrite | kAppend);
  fsys.write(fd.value(), 10);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.stat("/a").value().size, 60u);
  // Unlinking one name keeps the file alive under the other.
  EXPECT_EQ(fsys.unlink("/a"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/b"));
  EXPECT_EQ(fsys.stat("/b").value().link_count, 1u);
  const std::uint64_t used = fsys.bytes_in_use();
  EXPECT_EQ(fsys.unlink("/b"), FsStatus::ok);
  EXPECT_EQ(fsys.bytes_in_use(), used - 60);
}

TEST(FileSystem, LinkErrors) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/f").value());
  EXPECT_EQ(fsys.link("/missing", "/x"), FsStatus::not_found);
  EXPECT_EQ(fsys.link("/d", "/x"), FsStatus::is_a_directory);
  EXPECT_EQ(fsys.link("/f", "/f"), FsStatus::already_exists);
  EXPECT_EQ(fsys.link("/f", "/no/dir/x"), FsStatus::not_found);
}

TEST(FileSystem, UnlinkErrors) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.unlink("/missing"), FsStatus::not_found);
  fsys.mkdir("/dir");
  EXPECT_EQ(fsys.unlink("/dir"), FsStatus::is_a_directory);
}

TEST(FileSystem, MkdirRmdirSemantics) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::ok);
  EXPECT_EQ(fsys.mkdir("/a"), FsStatus::already_exists);
  EXPECT_EQ(fsys.mkdir("/x/y"), FsStatus::not_found);  // parent missing
  EXPECT_EQ(fsys.mkdir_recursive("/x/y/z"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/x/y/z"));
  EXPECT_EQ(fsys.rmdir("/x/y"), FsStatus::directory_not_empty);
  EXPECT_EQ(fsys.rmdir("/x/y/z"), FsStatus::ok);
  EXPECT_EQ(fsys.rmdir("/x/y"), FsStatus::ok);
}

TEST(FileSystem, DirectoryHasEntrySizeAndIsReadable) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  EXPECT_EQ(fsys.stat("/d").value().size, 0u);
  fsys.close(fsys.creat("/d/file_one").value());
  fsys.close(fsys.creat("/d/f2").value());
  // 16 + strlen per UFS-style entry.
  EXPECT_EQ(fsys.stat("/d").value().size, (16 + 8) + (16 + 2));
  // read(2) on the directory works (4.xBSD semantics).
  const auto fd = fsys.open("/d", kRead);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fsys.read(fd.value(), 1000).value(), fsys.stat("/d").value().size);
  fsys.close(fd.value());
  // ...but writing it does not.
  EXPECT_EQ(fsys.open("/d", kWrite).status(), FsStatus::is_a_directory);
  fsys.unlink("/d/f2");
  EXPECT_EQ(fsys.stat("/d").value().size, 16u + 8u);
}

TEST(FileSystem, ReaddirSorted) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/d/b").value());
  fsys.close(fsys.creat("/d/a").value());
  const auto names = fsys.readdir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(fsys.readdir("/d/a").status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.readdir("/missing").status(), FsStatus::not_found);
}

TEST(FileSystem, RenameMovesAndReplaces) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/a");
  fsys.mkdir("/b");
  auto fd = fsys.creat("/a/f");
  fsys.write(fd.value(), 7);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.rename("/a/f", "/b/g"), FsStatus::ok);
  EXPECT_FALSE(fsys.exists("/a/f"));
  EXPECT_EQ(fsys.stat("/b/g").value().size, 7u);

  fd = fsys.creat("/b/h");
  fsys.write(fd.value(), 3);
  fsys.close(fd.value());
  EXPECT_EQ(fsys.rename("/b/h", "/b/g"), FsStatus::ok);  // replaces g
  EXPECT_EQ(fsys.stat("/b/g").value().size, 3u);
}

TEST(FileSystem, RenameDirectoryIntoItselfRejected) {
  SimulatedFileSystem fsys;
  fsys.mkdir_recursive("/a/b");
  EXPECT_EQ(fsys.rename("/a", "/a/b/c"), FsStatus::invalid_argument);
}

TEST(FileSystem, RenameDirectoryOntoItselfIsNoOp) {
  SimulatedFileSystem fsys;
  fsys.mkdir_recursive("/a/b");
  fsys.close(fsys.creat("/a/b/f").value());
  const FileStat before = fsys.stat("/a/b").value();
  EXPECT_EQ(fsys.rename("/a/b", "/a/b"), FsStatus::ok);
  EXPECT_EQ(fsys.rename("/a/b", "/a/./b"), FsStatus::ok);
  const FileStat after = fsys.stat("/a/b").value();
  EXPECT_EQ(after.inode, before.inode);
  EXPECT_EQ(after.size, before.size);
  EXPECT_EQ(fsys.readdir("/a").value(), std::vector<std::string>{"b"});
  EXPECT_TRUE(fsys.exists("/a/b/f"));
  // Still refused one level further down.
  EXPECT_EQ(fsys.rename("/a/b", "/a/b/c"), FsStatus::invalid_argument);
}

TEST(FileSystem, RenameFileOntoItselfIsNoOp) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/a");
  fsys.close(fsys.creat("/a/f").value());
  EXPECT_EQ(fsys.rename("/a/f", "/a/./f"), FsStatus::ok);
  EXPECT_TRUE(fsys.exists("/a/f"));
}

TEST(FileSystem, CapacityEnforced) {
  SimulatedFileSystem::Options options;
  options.capacity_bytes = 100;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/f");
  EXPECT_EQ(fsys.write(fd.value(), 80).value(), 80u);
  EXPECT_EQ(fsys.write(fd.value(), 80).status(), FsStatus::no_space);
  EXPECT_EQ(fsys.bytes_in_use(), 80u);
  // Truncation frees space.
  fsys.close(fd.value());
  EXPECT_EQ(fsys.truncate("/f", 10), FsStatus::ok);
  EXPECT_EQ(fsys.bytes_in_use(), 10u);
}

TEST(FileSystem, MaxOpenFilesEnforced) {
  SimulatedFileSystem::Options options;
  options.max_open_files = 2;
  SimulatedFileSystem fsys(options);
  const auto a = fsys.creat("/a");
  const auto b = fsys.creat("/b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(fsys.creat("/c").status(), FsStatus::too_many_open_files);
  fsys.close(a.value());
  EXPECT_TRUE(fsys.creat("/c").ok());
}

TEST(FileSystem, NameLengthEnforced) {
  SimulatedFileSystem::Options options;
  options.max_name_length = 5;
  SimulatedFileSystem fsys(options);
  EXPECT_EQ(fsys.creat("/toolongname").status(), FsStatus::name_too_long);
  EXPECT_TRUE(fsys.creat("/ok").ok());
}

TEST(FileSystem, StoreDataRoundTripsBytes) {
  SimulatedFileSystem::Options options;
  options.store_data = true;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/data");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  EXPECT_EQ(fsys.write_bytes(fd.value(), payload).value(), 5u);
  fsys.close(fd.value());

  const auto rd = fsys.open("/data", kRead);
  const auto got = fsys.read_bytes(rd.value(), 5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), payload);
  fsys.close(rd.value());
}

TEST(FileSystem, ReadBytesRequiresStoreData) {
  SimulatedFileSystem fsys;  // store_data off
  const auto fd = fsys.creat("/f");
  EXPECT_EQ(fsys.read_bytes(fd.value(), 1).status(), FsStatus::invalid_argument);
  fsys.close(fd.value());
}

TEST(FileSystem, SyntheticWritePatternIsDeterministic) {
  SimulatedFileSystem::Options options;
  options.store_data = true;
  SimulatedFileSystem fsys(options);
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 300);  // synthetic pattern: byte i = i & 0xff
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  const auto got = fsys.read_bytes(rd.value(), 300);
  ASSERT_TRUE(got.ok());
  for (std::size_t i = 0; i < got.value().size(); ++i) {
    EXPECT_EQ(got.value()[i], static_cast<std::uint8_t>(i & 0xff));
  }
  fsys.close(rd.value());
}

TEST(FileSystem, StatCountsAccesses) {
  SimulatedFileSystem fsys;
  const auto fd = fsys.creat("/f");
  fsys.write(fd.value(), 100);
  fsys.lseek(fd.value(), 0, Seek::set);
  fsys.close(fd.value());
  const auto rd = fsys.open("/f", kRead);
  fsys.read(rd.value(), 30);
  fsys.read(rd.value(), 30);
  fsys.close(rd.value());
  const auto st = fsys.stat("/f").value();
  EXPECT_EQ(st.read_ops, 2u);
  EXPECT_EQ(st.write_ops, 1u);
  EXPECT_EQ(st.bytes_read, 60u);
  EXPECT_EQ(st.bytes_written, 100u);
  EXPECT_EQ(st.link_count, 1u);
}

TEST(FileSystem, ClockStampsTimestamps) {
  SimulatedFileSystem fsys;
  double now = 123.0;
  fsys.set_clock([&now] { return now; });
  const auto fd = fsys.creat("/f");
  EXPECT_DOUBLE_EQ(fsys.fstat(fd.value()).value().created_at, 123.0);
  now = 456.0;
  fsys.write(fd.value(), 1);
  EXPECT_DOUBLE_EQ(fsys.fstat(fd.value()).value().modified_at, 456.0);
  fsys.close(fd.value());
}

TEST(FileSystemCopy, CopyIsDeepAndKeepsItsOwnClock) {
  SimulatedFileSystem::Options options;
  options.store_data = true;
  SimulatedFileSystem original(options);
  int original_reads = 0;
  original.set_clock([&original_reads] { return 10.0 + original_reads++; });
  ASSERT_EQ(original.mkdir("/d"), FsStatus::ok);
  const Fd a = original.creat("/d/a").value();
  original.write_bytes(a, {1, 2, 3});
  original.close(a);
  const Fd b = original.creat("/d/b").value();  // left open: copied too
  original.write(b, 5);
  const FileStat dir_before = original.stat("/d").value();
  const int reads_before = original_reads;

  SimulatedFileSystem copy;
  copy.set_clock([] { return 99.0; });
  copy.copy_state_from(original);
  EXPECT_EQ(copy.options().store_data, true);
  EXPECT_EQ(copy.stat("/d").value().modified_at, dir_before.modified_at);
  EXPECT_EQ(copy.bytes_in_use(), 8u);
  EXPECT_EQ(copy.open_descriptor_count(), 1u);
  EXPECT_EQ(copy.tell(b).value(), 5u);
  const Fd read_a = copy.open("/d/a", kRead).value();
  EXPECT_EQ(copy.read_bytes(read_a, 3).value(), (std::vector<std::uint8_t>{1, 2, 3}));
  copy.close(read_a);

  // Mutate inside the copied directory: creat, unlink, rename, and the
  // copied descriptor.
  const Fd c = copy.creat("/d/c").value();
  EXPECT_EQ(copy.fstat(c).value().created_at, 99.0);
  copy.close(c);
  EXPECT_EQ(copy.unlink("/d/a"), FsStatus::ok);
  EXPECT_EQ(copy.rename("/d/b", "/d/e"), FsStatus::ok);
  EXPECT_EQ(copy.write(b, 7).value(), 7u);
  EXPECT_EQ(copy.close(b), FsStatus::ok);
  EXPECT_EQ(copy.readdir("/d").value(), (std::vector<std::string>{"c", "e"}));
  EXPECT_EQ(copy.stat("/d").value().modified_at, 99.0);

  // The original saw none of it, and its clock was never read.
  EXPECT_EQ(original_reads, reads_before);
  EXPECT_EQ(original.readdir("/d").value(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(original.stat("/d").value().size, dir_before.size);
  EXPECT_EQ(original.stat("/d").value().modified_at, dir_before.modified_at);
  EXPECT_EQ(original.bytes_in_use(), 8u);
  EXPECT_EQ(original.open_descriptor_count(), 1u);
  EXPECT_EQ(original.tell(b).value(), 5u);
  EXPECT_EQ(original.stat("/d/b").value().size, 5u);
  const Fd again = original.open("/d/a", kRead).value();
  EXPECT_EQ(original.read_bytes(again, 3).value(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(original.fstat(again).value().accessed_at, 10.0 + reads_before);
  original.close(again);
  EXPECT_EQ(original.close(b), FsStatus::ok);
}

TEST(FileSystemCopy, PristineUntilAnInodeOrDescriptorIsMade) {
  SimulatedFileSystem fsys;
  EXPECT_TRUE(fsys.pristine());
  EXPECT_EQ(fsys.open("/missing", kRead).status(), FsStatus::not_found);
  EXPECT_EQ(fsys.mkdir("/a/b"), FsStatus::not_found);
  EXPECT_TRUE(fsys.pristine());
  fsys.close(fsys.open("/", kRead).value());
  EXPECT_FALSE(fsys.pristine());

  SimulatedFileSystem made;
  made.mkdir("/d");
  made.rmdir("/d");
  EXPECT_FALSE(made.pristine());
  made.copy_state_from(SimulatedFileSystem{});
  EXPECT_TRUE(made.pristine());
}

TEST(FileSystem, CountsFilesAndDirectories) {
  SimulatedFileSystem fsys;
  fsys.mkdir("/d");
  fsys.close(fsys.creat("/d/a").value());
  fsys.close(fsys.creat("/d/b").value());
  EXPECT_EQ(fsys.regular_file_count(), 2u);
  EXPECT_EQ(fsys.directory_count(), 2u);  // root + /d
  fsys.unlink("/d/a");
  EXPECT_EQ(fsys.regular_file_count(), 1u);
}

TEST(FileSystem, RelativePathsRejected) {
  SimulatedFileSystem fsys;
  EXPECT_EQ(fsys.creat("relative").status(), FsStatus::invalid_argument);
  EXPECT_EQ(fsys.mkdir(""), FsStatus::invalid_argument);
  EXPECT_EQ(fsys.stat("no-slash").status(), FsStatus::invalid_argument);
}

TEST(FileSystem, PathThroughFileRejected) {
  SimulatedFileSystem fsys;
  fsys.close(fsys.creat("/f").value());
  EXPECT_EQ(fsys.creat("/f/child").status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.stat("/f/child").status(), FsStatus::not_a_directory);
}

// The handle-addressed calls: the path calls are a walk plus these, so
// they share every rule; these cases pin what only a handle can express.
TEST(FileSystemHandles, OpenAtCreatesAndReopens) {
  SimulatedFileSystem fsys;
  const Result<InodeId> dir = fsys.mkdir_at(1, "d");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(fsys.lookup(1, "d").value(), dir.value());
  const auto fd = fsys.open_at(dir.value(), "f", kWrite | kCreate | kTruncate);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fsys.write(fd.value(), 9).value(), 9u);
  const InodeId f = fsys.fstat(fd.value()).value().inode;
  EXPECT_EQ(fsys.close(fd.value()), FsStatus::ok);
  EXPECT_EQ(fsys.stat("/d/f").value().inode, f);
  EXPECT_EQ(fsys.stat(f).value().size, 9u);
  EXPECT_EQ(fsys.stat(dir.value()).value().size, 16u + 1u);
  const auto again = fsys.open(f, kRead);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(fsys.read(again.value(), 100).value(), 9u);
  fsys.close(again.value());
  EXPECT_EQ(fsys.open_at(dir.value(), "missing", kRead).status(), FsStatus::not_found);
  EXPECT_EQ(fsys.mkdir_at(dir.value(), "f").status(), FsStatus::already_exists);
  EXPECT_EQ(fsys.open(dir.value(), kWrite).status(), FsStatus::is_a_directory);
}

TEST(FileSystemHandles, EntryChangesStampTheDirectory) {
  SimulatedFileSystem fsys;
  double now = 5.0;
  fsys.set_clock([&now] { return now; });
  const InodeId dir = fsys.mkdir_at(1, "dir").value();
  EXPECT_EQ(fsys.stat(1).value().modified_at, 5.0);
  EXPECT_EQ(fsys.stat(1).value().size, 16u + 3u);
  EXPECT_EQ(fsys.stat(dir).value().created_at, 5.0);
  now = 7.0;
  fsys.close(fsys.open_at(dir, "f", kWrite | kCreate).value());
  EXPECT_EQ(fsys.stat(dir).value().modified_at, 7.0);
  EXPECT_EQ(fsys.stat(dir).value().size, 16u + 1u);
  now = 9.0;
  EXPECT_EQ(fsys.unlink_at(dir, "f"), FsStatus::ok);
  EXPECT_EQ(fsys.stat(dir).value().modified_at, 9.0);
  EXPECT_EQ(fsys.stat(dir).value().size, 0u);
  EXPECT_EQ(fsys.stat(1).value().modified_at, 5.0);
}

TEST(FileSystemHandles, RejectBadNamesAndHandles) {
  SimulatedFileSystem fsys;
  fsys.close(fsys.creat("/f").value());
  const InodeId f = fsys.stat("/f").value().inode;
  for (const char* bad : {"", ".", "..", "a/b"}) {
    EXPECT_EQ(fsys.open_at(1, bad, kRead | kCreate).status(), FsStatus::invalid_argument) << bad;
    EXPECT_EQ(fsys.mkdir_at(1, bad).status(), FsStatus::invalid_argument) << bad;
    EXPECT_EQ(fsys.unlink_at(1, bad), FsStatus::invalid_argument) << bad;
    EXPECT_EQ(fsys.lookup(1, bad).status(), FsStatus::invalid_argument) << bad;
  }
  EXPECT_EQ(fsys.open_at(f, "x", kRead | kCreate).status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.mkdir_at(f, "x").status(), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.unlink_at(f, "x"), FsStatus::not_a_directory);
  EXPECT_EQ(fsys.unlink_at(1, "missing"), FsStatus::not_found);
  for (const InodeId never : {InodeId{0}, InodeId{99}, ~InodeId{0}}) {
    EXPECT_EQ(fsys.stat(never).status(), FsStatus::not_found);
    EXPECT_EQ(fsys.open(never, kRead).status(), FsStatus::not_found);
    EXPECT_EQ(fsys.open_at(never, "x", kRead | kCreate).status(), FsStatus::not_found);
    EXPECT_EQ(fsys.mkdir_at(never, "x").status(), FsStatus::not_found);
  }
  // Flag and descriptor-limit checks come first, as in open(path).
  EXPECT_EQ(fsys.open(f, 0).status(), FsStatus::invalid_argument);
  EXPECT_EQ(fsys.open_at(0, "x", 0).status(), FsStatus::invalid_argument);
  SimulatedFileSystem::Options options;
  options.max_name_length = 3;
  SimulatedFileSystem narrow(options);
  EXPECT_EQ(narrow.mkdir_at(1, "long").status(), FsStatus::name_too_long);
}

// Resolution walks path components in place on a fixed stack: ".."
// stays lexical however long the path, and only a path that nests deeper
// than the stack is refused, as ENAMETOOLONG.
TEST(FileSystem, LongPathsResolveLexicallyWithoutAllocating) {
  SimulatedFileSystem fsys;
  ASSERT_EQ(fsys.mkdir("/d"), FsStatus::ok);
  fsys.close(fsys.creat("/d/f").value());
  std::string wandering = "/d";
  for (int i = 0; i < 1000; ++i) wandering += "/missing/..";
  EXPECT_TRUE(fsys.stat(wandering + "/f").ok());
  EXPECT_EQ(fsys.unlink(wandering + "/nope"), FsStatus::not_found);

  std::string deep;
  for (std::size_t i = 0; i <= PathComponents::kMaxDepth; ++i) deep += "/x";
  EXPECT_EQ(fsys.stat(deep).status(), FsStatus::name_too_long);
  EXPECT_EQ(fsys.mkdir(deep), FsStatus::name_too_long);
  // Exactly at the limit it is an ordinary miss.
  std::string at_limit;
  for (std::size_t i = 0; i < PathComponents::kMaxDepth; ++i) at_limit += "/x";
  EXPECT_EQ(fsys.stat(at_limit).status(), FsStatus::not_found);
}

TEST(ResultType, ValueAccessContracts) {
  Result<int> good(5);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(good.status(), FsStatus::ok);
  Result<int> bad(FsStatus::not_found);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_THROW(Result<int>(FsStatus::ok), std::logic_error);
}

}  // namespace
}  // namespace wlgen::fs
