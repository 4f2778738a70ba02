#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dist/distribution.h"

namespace wlgen::core {

/// Shared handle to an immutable distribution.  Workload specifications are
/// value types that get copied into simulators, so the distributions they
/// carry are shared-immutable rather than uniquely owned.
using DistRef = std::shared_ptr<const dist::Distribution>;

/// Convenience: wraps a concrete distribution into a DistRef.
template <typename D, typename... Args>
DistRef make_dist(Args&&... args) {
  return std::make_shared<const D>(std::forward<Args>(args)...);
}

/// File type axis of the paper's file category (Table 5.1): directories are
/// "treated as special files".
enum class FileType : std::uint8_t { directory, regular };

/// Owner axis: the user's own files, the campus "notes" (bulletin-board)
/// files, and other/system files — the categorisation of DI86 that the
/// paper's tables use.
enum class FileOwner : std::uint8_t { user, notes, other };

/// Type-of-use axis: read-only, newly created, read-write, temporary.
enum class UseMode : std::uint8_t { read_only, new_file, read_write, temp };

const char* to_string(FileType v);
const char* to_string(FileOwner v);
const char* to_string(UseMode v);

/// A file category — one row key of paper Tables 5.1/5.2.
struct FileCategory {
  FileType file_type = FileType::regular;
  FileOwner owner = FileOwner::user;
  UseMode use = UseMode::read_only;

  auto operator<=>(const FileCategory&) const = default;

  /// "REG/USER/RDONLY"-style label, matching the paper's table rows.
  std::string label() const;

  /// Stable small integer for indexing (file_type*12 + owner*4 + use).
  std::size_t index() const;

  /// Number of distinct index() values.
  static constexpr std::size_t kCount = 24;
};

/// Per-category description of the *initial file system* — a row of paper
/// Table 5.1: the distribution of file sizes and the fraction of all files
/// that fall in this category.
struct FileCategoryProfile {
  FileCategory category;
  DistRef size_dist;               ///< file size in bytes
  double fraction_of_files = 0.0;  ///< in [0,1]; fractions sum to ~1
};

/// Per-category description of *user behaviour* — a row of paper Table 5.2:
/// how much of each touched file is accessed, how large touched files are,
/// how many files a session touches, and what fraction of users touch the
/// category at all.
struct UsageProfile {
  FileCategory category;
  DistRef accesses_per_byte;   ///< bytes accessed / file size (can be > 1)
  DistRef file_size;           ///< size of files in this category (for NEW/TEMP creation)
  DistRef files_per_session;   ///< number of files referenced per login session
  double prob_accessing_category = 1.0;  ///< paper's "percent of users accessing"
};

/// A type of user — a row of paper Table 5.4 plus its usage distributions.
/// The think time separates "extremely heavy" (0), "heavy" (5000 µs) and
/// "light" (20000 µs) I/O users.
struct UserType {
  std::string name;
  DistRef think_time_us;      ///< inter-I/O-request time
  DistRef access_size_bytes;  ///< bytes requested per read/write system call
  std::vector<UsageProfile> usage;
};

/// A user population: mixture fractions over user types — the experimental
/// variable of Figures 5.6–5.11 (e.g. "80% heavy and 20% light I/O users").
struct Population {
  struct Group {
    UserType type;
    double fraction = 1.0;
  };
  std::vector<Group> groups;

  /// Throws std::invalid_argument unless fractions are positive and the
  /// group list is non-empty; fractions are normalised in place.
  void validate_and_normalize();

  /// Deterministically assigns a type to user `index` of `total` with
  /// largest-remainder apportionment, so a 6-user 50/50 population really is
  /// 3 + 3 (matching how the paper composes its populations).
  const UserType& type_for_user(std::size_t index, std::size_t total) const;
};

/// All category keys in a stable order (24 combinations).
std::vector<FileCategory> all_categories();

}  // namespace wlgen::core
