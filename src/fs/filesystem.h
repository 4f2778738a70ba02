#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fs/path.h"
#include "fs/status.h"
#include "util/flat_map.h"

namespace wlgen::fs {

/// Inode number; root is always inode 1.
using InodeId = std::uint64_t;

/// The root directory's inode.
inline constexpr InodeId kRootInode = 1;

/// File descriptor handle (>= 0 when valid).
using Fd = int;

/// Kind of an inode.
enum class FileKind { regular, directory };

/// Open flags, OR-able.  Mirrors the UNIX open(2) surface the paper's USIM
/// drives ("the interface in UNIX systems appears in the form of system
/// calls, e.g., open, read" — section 3.1.2).
enum OpenFlags : unsigned {
  kRead = 1u << 0,      ///< allow read()
  kWrite = 1u << 1,     ///< allow write()
  kCreate = 1u << 2,    ///< create if missing
  kTruncate = 1u << 3,  ///< truncate to zero on open
  kAppend = 1u << 4,    ///< position at EOF before every write
};

/// stat(2)-style metadata snapshot.
struct FileStat {
  InodeId inode = 0;
  FileKind kind = FileKind::regular;
  std::uint64_t size = 0;
  std::uint32_t link_count = 0;
  std::uint64_t read_ops = 0;    ///< lifetime read() calls touching the inode
  std::uint64_t write_ops = 0;   ///< lifetime write() calls touching the inode
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double created_at = 0.0;       ///< simulated time, microseconds
  double modified_at = 0.0;
  double accessed_at = 0.0;
};

/// lseek whence.
enum class Seek { set, cur, end };

/// In-memory file system with UNIX semantics.
///
/// Period-accurate details the workload depends on: directories carry a real
/// size (the sum of their entry records, 16 bytes + name length each, as in
/// the old UFS on-disk format), and read(2) on a directory is permitted —
/// 4.xBSD, the system the paper's characterisation was measured on, allowed
/// exactly that, and the paper "treats directories as special files"
/// (section 4.1.2).
///
/// This substrate substitutes for the real file system the paper's generator
/// drives: "a new file system is created to which file I/O is directed"
/// (section 4.1) so existing files are never modified.  Here the *entire*
/// file system is the new one, held in memory.  Semantics kept faithfully:
/// byte-granular sizes, read truncation at EOF (the cause of Table 5.3's
/// measured mean access size < the 1024-byte input mean), open-before-read,
/// POSIX unlink-while-open lifetime, and directory tree behaviour.
///
/// Timing intentionally lives elsewhere (fsmodel): this class answers *what
/// happens*, the models answer *how long it takes*.
///
/// open, stat, unlink and mkdir also come in handle-addressed forms —
/// open(InodeId), open_at(dir, name), stat(InodeId), unlink_at, mkdir_at,
/// plus lookup — and their path forms are a path walk (resolve /
/// resolve_parent) followed by the handle call, so each syscall's rules live
/// in one place.  link, rename, rmdir and truncate are path-only.  Inode ids
/// are handed out monotonically from 2 and never reused: a handle to a
/// collected inode answers not_found forever, exactly as its old path would.
class SimulatedFileSystem {
 public:
  struct Options {
    /// When true, file contents are stored and verified (tests); when false
    /// only sizes are tracked, keeping big experiments cheap.
    bool store_data = false;
    /// Total byte capacity (0 = unlimited).
    std::uint64_t capacity_bytes = 0;
    /// Max simultaneously open descriptors.
    std::size_t max_open_files = 4096;
    /// Max length of a single path component.
    std::size_t max_name_length = 255;
  };

  SimulatedFileSystem();
  explicit SimulatedFileSystem(Options options);

  /// Supplies a simulated-clock source for inode timestamps (defaults to 0).
  void set_clock(std::function<double()> clock);

  /// The clock set_clock supplied; empty when none was (timestamps read 0).
  const std::function<double()>& clock() const { return clock_; }

  /// Replaces this file system's state with a deep copy of `other`'s: its
  /// options, inodes and directory entries, stored bytes, open descriptors,
  /// next descriptor number and bytes in use.  This file system keeps its
  /// own clock.  On an exception the state is left unchanged.
  void copy_state_from(const SimulatedFileSystem& other);

  /// True while nothing has happened to this file system: the root is its
  /// only inode and no descriptor was ever opened.
  bool pristine() const;

  // --- system-call surface -------------------------------------------------

  /// Opens a file.  kCreate creates missing regular files; opening a
  /// directory is allowed read-only (for readdir-style traversal).
  Result<Fd> open(const std::string& path, unsigned flags);

  /// creat(2): open with kWrite|kCreate|kTruncate.
  Result<Fd> creat(const std::string& path);

  /// Opens an existing inode by handle (not_found once it is collected).
  Result<Fd> open(InodeId inode, unsigned flags);

  /// Opens entry `name` of directory `dir`; kCreate creates a missing
  /// regular file and kTruncate truncates, as open(path) does.  `name` is a
  /// single component: empty, ".", ".." or a name holding '/' is
  /// invalid_argument.
  Result<Fd> open_at(InodeId dir, std::string_view name, unsigned flags);

  /// Closes a descriptor.
  FsStatus close(Fd fd);

  /// Reads up to `count` bytes at the descriptor offset; returns the number
  /// actually read (truncated at EOF) and advances the offset.
  Result<std::uint64_t> read(Fd fd, std::uint64_t count);

  /// Reads and returns stored bytes (requires store_data).
  Result<std::vector<std::uint8_t>> read_bytes(Fd fd, std::uint64_t count);

  /// Writes `count` synthetic bytes at the offset, growing the file as
  /// needed; returns bytes written and advances the offset.
  Result<std::uint64_t> write(Fd fd, std::uint64_t count);

  /// Writes real bytes (stored when store_data is on).
  Result<std::uint64_t> write_bytes(Fd fd, const std::vector<std::uint8_t>& data);

  /// Repositions the descriptor offset; returns the new offset.
  Result<std::uint64_t> lseek(Fd fd, std::int64_t offset, Seek whence);

  /// Removes a directory entry; the inode survives while still open.
  FsStatus unlink(const std::string& path);

  /// unlink(2) of entry `name` in directory `dir`.
  FsStatus unlink_at(InodeId dir, std::string_view name);

  /// link(2): creates a second directory entry for an existing regular file.
  FsStatus link(const std::string& existing, const std::string& link_path);

  /// Creates a directory (parents must exist).
  FsStatus mkdir(const std::string& path);

  /// Creates directory `name` in directory `dir`; returns its inode.
  Result<InodeId> mkdir_at(InodeId dir, std::string_view name);

  /// Creates all missing ancestors then the directory itself.
  FsStatus mkdir_recursive(const std::string& path);

  /// Removes an empty directory.
  FsStatus rmdir(const std::string& path);

  /// Renames/moves a file or directory.  Refuses to move a directory into
  /// its own subtree.
  FsStatus rename(const std::string& from, const std::string& to);

  /// Metadata by path.
  Result<FileStat> stat(const std::string& path) const;

  /// Metadata by handle (not_found once the inode is collected).
  Result<FileStat> stat(InodeId inode) const;

  /// The inode entry `name` of directory `dir` names (one path step).
  Result<InodeId> lookup(InodeId dir, std::string_view name) const;

  /// Metadata by descriptor.
  Result<FileStat> fstat(Fd fd) const;

  /// Truncates (or zero-extends) a file to `size`.
  FsStatus truncate(const std::string& path, std::uint64_t size);

  /// Names in a directory, sorted.
  Result<std::vector<std::string>> readdir(const std::string& path) const;

  /// True when the path resolves.
  bool exists(const std::string& path) const;

  /// Current descriptor offset (for tests).
  Result<std::uint64_t> tell(Fd fd) const;

  // --- introspection -------------------------------------------------------

  std::uint64_t bytes_in_use() const { return bytes_in_use_; }
  std::size_t regular_file_count() const;
  std::size_t directory_count() const;
  std::size_t open_descriptor_count() const { return open_files_.size(); }
  std::size_t inode_count() const { return live_inodes_; }
  const Options& options() const { return options_; }

 private:
  using Children = std::map<std::string, InodeId, std::less<>>;

  /// An inode's plain fields: everything but a directory's entries.
  struct InodeFields {
    bool live = false;  ///< false for slot 0 and for collected inodes
    FileKind kind = FileKind::regular;
    std::uint32_t link_count = 0;
    std::uint32_t open_count = 0;
    std::uint64_t size = 0;
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    double created_at = 0.0;
    double modified_at = 0.0;
    double accessed_at = 0.0;
  };
  /// A slot of the inode table; the slot index is the inode id.  Collected
  /// inodes leave their slot behind, dead, so a slot is kept small: a
  /// directory's entries live behind a pointer and stored bytes (tests
  /// only) in contents_.
  struct Inode : InodeFields {
    std::unique_ptr<Children> children;  ///< directories only
  };

  struct OpenFile {
    InodeId inode = 0;
    std::uint64_t offset = 0;
    unsigned flags = 0;
  };

  double now() const { return clock_ ? clock_() : 0.0; }
  void add_child(Inode& dir, std::string_view name, InodeId id);
  void remove_child(Inode& dir, std::string_view name);
  /// Appends a fresh inode; returns its id.  Grows the table, so every
  /// Inode& taken before the call dangles — re-fetch after inserting.
  InodeId new_inode(FileKind kind);
  /// The live inode `id`, or null (out of range or collected).
  Inode* find_inode(InodeId id);
  const Inode* find_inode(InodeId id) const;
  Inode& inode_ref(InodeId id);
  const Inode& inode_ref(InodeId id) const;
  /// The directory a handle op works in: the checks resolve_parent makes
  /// on a walked path, applied to a handle and a single-component name.
  Result<Inode*> entry_dir(InodeId dir, std::string_view name);
  Result<const Inode*> entry_dir(InodeId dir, std::string_view name) const;
  /// open(2)'s checks that precede name resolution.
  FsStatus open_precheck(unsigned flags) const;
  /// open(InodeId) once the prechecks passed.
  Result<Fd> open_inode(InodeId id, unsigned flags);
  /// Path walks: components are viewed in place on a fixed stack
  /// (PathComponents), so resolving allocates nothing.  `leaf` views into
  /// `path`.
  Result<InodeId> resolve(std::string_view path) const;
  Result<InodeId> resolve_parent(std::string_view path, std::string_view& leaf) const;
  void maybe_collect(InodeId id);
  FsStatus grow_check(std::uint64_t extra) const;
  Result<OpenFile*> descriptor(Fd fd);
  Result<const OpenFile*> descriptor(Fd fd) const;

  Options options_;
  std::function<double()> clock_;
  std::vector<Inode> inodes_;  ///< indexed by id; slot 0 unused, 1 is the root
  std::size_t live_inodes_ = 0;
  std::map<InodeId, std::vector<std::uint8_t>> contents_;  ///< only when store_data
  util::FlatIdMap<OpenFile> open_files_;  ///< keyed by descriptor
  static constexpr Fd kFirstFd = 3;  // mimic stdin/stdout/stderr being taken
  Fd next_fd_ = kFirstFd;
  std::uint64_t bytes_in_use_ = 0;
};

}  // namespace wlgen::fs
