#pragma once

#include <cstddef>
#include <new>
#include <string>
#include <string_view>
#include <vector>

namespace wlgen::fs {

/// Fixed-capacity stack of path components viewed in place — the
/// allocation-free destination for split_path that the file system's
/// resolver walks.  Pushing past kMaxDepth sets a sticky overflow flag
/// instead of growing.
class PathComponents {
 public:
  static constexpr std::size_t kMaxDepth = 256;

  PathComponents() {}  // not "= default": that would be deleted by the union

  void emplace_back(std::string_view piece) {
    if (size_ == kMaxDepth) {
      overflowed_ = true;
      return;
    }
    ::new (static_cast<void*>(&parts_[size_++])) std::string_view(piece);
  }
  void pop_back() { --size_; }
  void clear() {
    size_ = 0;
    overflowed_ = false;
  }

  bool empty() const { return size_ == 0; }
  std::string_view back() const { return parts_[size_ - 1]; }
  const std::string_view* begin() const { return parts_; }
  const std::string_view* end() const { return parts_ + size_; }
  /// True when the path nested deeper than kMaxDepth live components.
  bool overflowed() const { return overflowed_; }

 private:
  // Constructed element by element: a resolve must not pay for zeroing
  // the whole stack.
  union {
    std::string_view parts_[kMaxDepth];
  };
  std::size_t size_ = 0;
  bool overflowed_ = false;
};

/// Splits an absolute path into components, resolving "." and ".." lexically
/// ("/a/./b/../c" -> {"a","c"}).  Returns false for non-absolute or empty
/// paths; ".." above the root clamps at the root, as POSIX does.
/// `components` is a std::vector<std::string> or a PathComponents.
template <typename Components>
bool split_path(std::string_view path, Components& components) {
  components.clear();
  if (path.empty() || path.front() != '/') return false;
  std::size_t i = 1;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    const std::size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i == start) break;
    const std::string_view piece = path.substr(start, i - start);
    if (piece == ".") continue;
    if (piece == "..") {
      if (!components.empty()) components.pop_back();
      continue;  // ".." at the root stays at the root
    }
    components.emplace_back(piece);
  }
  return true;
}

/// Joins components back into a canonical absolute path ("/" for empty).
std::string join_path(const std::vector<std::string>& components);

/// Parent of a canonical absolute path ("/a/b" -> "/a", "/a" -> "/").
std::string parent_path(std::string_view path);

/// Final component ("/a/b" -> "b"); empty for "/".
std::string base_name(std::string_view path);

}  // namespace wlgen::fs
