#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/workload.h"
#include "fs/filesystem.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace wlgen::core {

/// One file created by the FSC.
struct CreatedFile {
  std::string path;
  FileCategory category;
  std::uint64_t size = 0;
  fs::InodeId inode = 0;
  std::size_t owner_user = kSystemOwner;  ///< owning user index; kSystemOwner for shared files

  static constexpr std::size_t kSystemOwner = static_cast<std::size_t>(-1);
};

/// The manifest of the file system the FSC built: every created file plus
/// per-category lookup pools the USIM selects from.  "In this new file
/// system, only those files which may be accessed need to be created"
/// (paper section 4.1).
class CreatedFileSystem {
 public:
  /// Root directories used by the layout.
  static std::string system_dir();                 ///< "/system"
  static std::string user_dir(std::size_t user);   ///< "/users/u<k>"

  /// All created files.
  const std::vector<CreatedFile>& files() const { return files_; }

  /// Indices (into files()) of the files user `user` may pick from for
  /// `category`: the user's own files for USER-owned categories, the shared
  /// system pool for NOTES/OTHER.  May be empty (the USIM then creates).
  const std::vector<std::size_t>& pool(const FileCategory& category, std::size_t user) const;

  std::size_t file_count() const { return files_.size(); }

  /// Number of users the layout was built for.
  std::size_t user_count() const { return user_count_; }

  /// Registers a file (used by FileSystemCreator and by tests).
  void add_file(CreatedFile file);

  void set_user_count(std::size_t users) { user_count_ = users; }

 private:
  /// The pool_slot_ key of (category, owner): one key space per owner, the
  /// shared system owner first.
  static std::uint64_t pool_key(std::size_t category_index, std::size_t owner);

  std::vector<CreatedFile> files_;
  std::vector<std::vector<std::size_t>> pools_;
  util::FlatIdMap<std::uint32_t> pool_slot_;  ///< pool_key -> pools_ index
  std::size_t user_count_ = 0;
  static const std::vector<std::size_t> kEmptyPool;
};

/// Configuration of the initial file system build.
struct FscConfig {
  std::size_t num_users = 1;
  /// Global index of the first user to lay out: the build covers users
  /// [first_user, first_user + num_users).  File sizes draw from per-user
  /// RNG streams derived from the seed, so a range build produces exactly
  /// the trees a full build would give those users — the property the
  /// sharded runner's deterministic partitioning rests on (see DESIGN.md).
  std::size_t first_user = 0;
  /// Total regular files created per user (split across the USER-owned
  /// categories by their Table 5.1 fractions and scattered over the user's
  /// subdirectories).
  std::size_t files_per_user = 64;
  /// Total files in the shared /system tree (NOTES + OTHER categories).
  std::size_t system_files = 256;
  /// Subdirectories under each user's home (plus the home itself); gives the
  /// DIR/USER category a realistic pool and keeps directory sizes in the
  /// Table 5.1 regime (~800 B).
  std::size_t user_subdirs = 4;
  /// Subdirectories under /system for the NOTES and OTHER trees (half each).
  std::size_t system_subdirs = 4;
  std::uint64_t seed = 1991;
};

/// The paper's File System Creator: "builds a new file system according to
/// the file distributions for each file category ... we create a directory
/// for system files, and several directories, one for each virtual user"
/// (section 4.1.2).
class FileSystemCreator {
 public:
  FileSystemCreator(fs::SimulatedFileSystem& fsys, std::vector<FileCategoryProfile> profiles,
                    FscConfig config);

  /// Builds directories and files; returns the manifest.
  /// Throws std::runtime_error if the substrate rejects an operation (which
  /// would mean the configuration is impossible, e.g. capacity exceeded).
  CreatedFileSystem create();

  const FscConfig& config() const { return config_; }

 private:
  /// A directory the build creates files in: its handle and its path.
  struct Dir {
    fs::InodeId inode = 0;
    std::string path;
  };
  /// A regular-file profile with its lower-cased file-name stem.
  struct Stemmed {
    const FileCategoryProfile* profile = nullptr;
    std::string stem;  ///< "reg_user_rdonly" for REG/USER/RDONLY
  };

  std::uint64_t sample_size(const FileCategoryProfile& profile, util::RngStream& rng);
  /// mkdir_at, tolerating a directory that already exists.
  Dir make_dir(const Dir& parent, std::string_view name);
  /// Creates `count` files over `dirs`, each drawing its profile, directory
  /// and size from `rng` (in that order).
  void create_files(CreatedFileSystem& out, const std::vector<Stemmed>& profiles,
                    std::span<const Dir> dirs, std::size_t count, std::size_t owner_user,
                    util::RngStream& rng);

  fs::SimulatedFileSystem& fsys_;
  std::vector<FileCategoryProfile> profiles_;
  FscConfig config_;
};

}  // namespace wlgen::core
