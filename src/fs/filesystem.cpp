#include "fs/filesystem.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace wlgen::fs {

SimulatedFileSystem::SimulatedFileSystem() : SimulatedFileSystem(Options{}) {}

SimulatedFileSystem::SimulatedFileSystem(Options options) : options_(options) {
  inodes_.resize(1);  // slot 0 is never an inode id
  new_inode(FileKind::directory);  // the root, kRootInode
}

void SimulatedFileSystem::set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

void SimulatedFileSystem::copy_state_from(const SimulatedFileSystem& other) {
  if (this == &other) return;
  // Copy into locals first, then move in: nothing below the copies throws.
  std::vector<Inode> inodes;
  inodes.reserve(other.inodes_.size());
  for (const Inode& node : other.inodes_) {
    Inode& copy = inodes.emplace_back();
    static_cast<InodeFields&>(copy) = node;
    if (node.children) copy.children = std::make_unique<Children>(*node.children);
  }
  auto contents = other.contents_;
  auto open_files = other.open_files_;
  options_ = other.options_;
  inodes_ = std::move(inodes);
  live_inodes_ = other.live_inodes_;
  contents_ = std::move(contents);
  open_files_ = std::move(open_files);
  next_fd_ = other.next_fd_;
  bytes_in_use_ = other.bytes_in_use_;
}

bool SimulatedFileSystem::pristine() const {
  return inodes_.size() == kRootInode + 1 && next_fd_ == kFirstFd;
}

void SimulatedFileSystem::add_child(Inode& dir, std::string_view name, InodeId id) {
  dir.children->emplace(std::string(name), id);
  dir.size += 16 + name.size();  // UFS-style directory entry record
  dir.modified_at = now();
}

void SimulatedFileSystem::remove_child(Inode& dir, std::string_view name) {
  const auto it = dir.children->find(name);
  if (it == dir.children->end()) return;
  const std::uint64_t entry = 16 + name.size();
  dir.size -= std::min<std::uint64_t>(dir.size, entry);
  dir.children->erase(it);
  dir.modified_at = now();
}

InodeId SimulatedFileSystem::new_inode(FileKind kind) {
  // The table's growth moves every Inode: keep that a nothrow move, never a copy.
  static_assert(std::is_nothrow_move_constructible_v<Inode>);
  const InodeId id = inodes_.size();
  Inode& node = inodes_.emplace_back();
  node.live = true;
  node.kind = kind;
  node.link_count = 1;
  node.created_at = node.modified_at = node.accessed_at = now();
  if (kind == FileKind::directory) node.children = std::make_unique<Children>();
  ++live_inodes_;
  return id;
}

SimulatedFileSystem::Inode* SimulatedFileSystem::find_inode(InodeId id) {
  return id < inodes_.size() && inodes_[id].live ? &inodes_[id] : nullptr;
}

const SimulatedFileSystem::Inode* SimulatedFileSystem::find_inode(InodeId id) const {
  return id < inodes_.size() && inodes_[id].live ? &inodes_[id] : nullptr;
}

SimulatedFileSystem::Inode& SimulatedFileSystem::inode_ref(InodeId id) {
  Inode* node = find_inode(id);
  if (node == nullptr) throw std::logic_error("SimulatedFileSystem: dangling inode id");
  return *node;
}

const SimulatedFileSystem::Inode& SimulatedFileSystem::inode_ref(InodeId id) const {
  const Inode* node = find_inode(id);
  if (node == nullptr) throw std::logic_error("SimulatedFileSystem: dangling inode id");
  return *node;
}

Result<InodeId> SimulatedFileSystem::resolve(std::string_view path) const {
  PathComponents parts;
  if (!split_path(path, parts)) return FsStatus::invalid_argument;
  if (parts.overflowed()) return FsStatus::name_too_long;
  InodeId current = kRootInode;
  for (const std::string_view piece : parts) {
    if (piece.size() > options_.max_name_length) return FsStatus::name_too_long;
    const Inode& node = inode_ref(current);
    if (node.kind != FileKind::directory) return FsStatus::not_a_directory;
    const auto it = node.children->find(piece);
    if (it == node.children->end()) return FsStatus::not_found;
    current = it->second;
  }
  return current;
}

Result<InodeId> SimulatedFileSystem::resolve_parent(std::string_view path,
                                                    std::string_view& leaf) const {
  PathComponents parts;
  if (!split_path(path, parts)) return FsStatus::invalid_argument;
  if (parts.overflowed()) return FsStatus::name_too_long;
  if (parts.empty()) return FsStatus::invalid_argument;  // root has no parent entry
  leaf = parts.back();
  if (leaf.size() > options_.max_name_length) return FsStatus::name_too_long;
  parts.pop_back();
  InodeId current = kRootInode;
  for (const std::string_view piece : parts) {
    const Inode& node = inode_ref(current);
    if (node.kind != FileKind::directory) return FsStatus::not_a_directory;
    const auto it = node.children->find(piece);
    if (it == node.children->end()) return FsStatus::not_found;
    current = it->second;
  }
  if (inode_ref(current).kind != FileKind::directory) return FsStatus::not_a_directory;
  return current;
}

Result<SimulatedFileSystem::Inode*> SimulatedFileSystem::entry_dir(InodeId dir,
                                                                   std::string_view name) {
  const Result<const Inode*> found = std::as_const(*this).entry_dir(dir, name);
  if (!found.ok()) return found.status();
  return const_cast<Inode*>(found.value());
}

Result<const SimulatedFileSystem::Inode*> SimulatedFileSystem::entry_dir(
    InodeId dir, std::string_view name) const {
  if (name.empty() || name == "." || name == ".." ||
      name.find('/') != std::string_view::npos) {
    return FsStatus::invalid_argument;
  }
  if (name.size() > options_.max_name_length) return FsStatus::name_too_long;
  const Inode* node = find_inode(dir);
  if (node == nullptr) return FsStatus::not_found;
  if (node->kind != FileKind::directory) return FsStatus::not_a_directory;
  return node;
}

Result<InodeId> SimulatedFileSystem::lookup(InodeId dir, std::string_view name) const {
  const auto parent = entry_dir(dir, name);
  if (!parent.ok()) return parent.status();
  const auto it = parent.value()->children->find(name);
  if (it == parent.value()->children->end()) return FsStatus::not_found;
  return it->second;
}

void SimulatedFileSystem::maybe_collect(InodeId id) {
  Inode* node = find_inode(id);
  if (node == nullptr) return;
  if (node->link_count == 0 && node->open_count == 0) {
    bytes_in_use_ -= std::min<std::uint64_t>(bytes_in_use_, node->size);
    // The slot stays, dead: ids are never reused, so a stale handle can
    // only ever see not_found.
    *node = Inode{};
    --live_inodes_;
    if (options_.store_data) contents_.erase(id);
  }
}

FsStatus SimulatedFileSystem::grow_check(std::uint64_t extra) const {
  if (options_.capacity_bytes == 0) return FsStatus::ok;
  if (bytes_in_use_ + extra > options_.capacity_bytes) return FsStatus::no_space;
  return FsStatus::ok;
}

Result<SimulatedFileSystem::OpenFile*> SimulatedFileSystem::descriptor(Fd fd) {
  OpenFile* of = open_files_.find(static_cast<std::uint64_t>(fd));
  if (of == nullptr) return FsStatus::bad_descriptor;
  return of;
}

Result<const SimulatedFileSystem::OpenFile*> SimulatedFileSystem::descriptor(Fd fd) const {
  const OpenFile* of = open_files_.find(static_cast<std::uint64_t>(fd));
  if (of == nullptr) return FsStatus::bad_descriptor;
  return of;
}

FsStatus SimulatedFileSystem::open_precheck(unsigned flags) const {
  if ((flags & (kRead | kWrite)) == 0) return FsStatus::invalid_argument;
  if (open_files_.size() >= options_.max_open_files) return FsStatus::too_many_open_files;
  return FsStatus::ok;
}

Result<Fd> SimulatedFileSystem::open_inode(InodeId id, unsigned flags) {
  Inode* node = find_inode(id);
  if (node == nullptr) return FsStatus::not_found;
  if (node->kind == FileKind::directory && (flags & (kWrite | kTruncate)) != 0) {
    return FsStatus::is_a_directory;
  }
  if ((flags & kTruncate) != 0 && node->kind == FileKind::regular) {
    bytes_in_use_ -= std::min<std::uint64_t>(bytes_in_use_, node->size);
    node->size = 0;
    if (options_.store_data) contents_.erase(id);
    node->modified_at = now();
  }
  ++node->open_count;

  const Fd fd = next_fd_++;
  open_files_[static_cast<std::uint64_t>(fd)] = OpenFile{id, 0, flags};
  return fd;
}

Result<Fd> SimulatedFileSystem::open(InodeId inode, unsigned flags) {
  const FsStatus allowed = open_precheck(flags);
  if (allowed != FsStatus::ok) return allowed;
  return open_inode(inode, flags);
}

Result<Fd> SimulatedFileSystem::open_at(InodeId dir, std::string_view name, unsigned flags) {
  const FsStatus allowed = open_precheck(flags);
  if (allowed != FsStatus::ok) return allowed;
  const auto parent = entry_dir(dir, name);
  if (!parent.ok()) return parent.status();
  const auto it = parent.value()->children->find(name);
  if (it != parent.value()->children->end()) return open_inode(it->second, flags);
  if ((flags & kCreate) == 0) return FsStatus::not_found;
  const InodeId id = new_inode(FileKind::regular);
  add_child(inodes_[dir], name, id);  // re-fetched: new_inode grew the table
  return open_inode(id, flags);
}

Result<Fd> SimulatedFileSystem::open(const std::string& path, unsigned flags) {
  const FsStatus allowed = open_precheck(flags);
  if (allowed != FsStatus::ok) return allowed;
  const Result<InodeId> found = resolve(path);
  if (found.ok()) return open_inode(found.value(), flags);
  if (found.status() != FsStatus::not_found || (flags & kCreate) == 0) return found.status();
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  return open_at(parent.value(), leaf, flags);
}

Result<Fd> SimulatedFileSystem::creat(const std::string& path) {
  return open(path, kWrite | kCreate | kTruncate);
}

FsStatus SimulatedFileSystem::close(Fd fd) {
  const OpenFile* of = open_files_.find(static_cast<std::uint64_t>(fd));
  if (of == nullptr) return FsStatus::bad_descriptor;
  const InodeId inode = of->inode;
  open_files_.erase(static_cast<std::uint64_t>(fd));
  Inode& node = inode_ref(inode);
  if (node.open_count == 0) throw std::logic_error("SimulatedFileSystem: open_count underflow");
  --node.open_count;
  maybe_collect(inode);
  return FsStatus::ok;
}

Result<std::uint64_t> SimulatedFileSystem::read(Fd fd, std::uint64_t count) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  if ((of.flags & kRead) == 0) return FsStatus::not_permitted;
  Inode& node = inode_ref(of.inode);
  // Directories are readable as special files (4.xBSD semantics; the size is
  // the directory's entry bytes).
  const std::uint64_t available = of.offset < node.size ? node.size - of.offset : 0;
  const std::uint64_t got = std::min(count, available);
  of.offset += got;
  ++node.read_ops;
  node.bytes_read += got;
  node.accessed_at = now();
  return got;
}

Result<std::vector<std::uint8_t>> SimulatedFileSystem::read_bytes(Fd fd, std::uint64_t count) {
  if (!options_.store_data) return FsStatus::invalid_argument;
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  if (inode_ref(d.value()->inode).kind == FileKind::directory) return FsStatus::is_a_directory;
  const std::uint64_t start = d.value()->offset;
  const Result<std::uint64_t> got = read(fd, count);
  if (!got.ok()) return got.status();
  const std::vector<std::uint8_t>& stored = contents_[d.value()->inode];
  std::vector<std::uint8_t> out(static_cast<std::size_t>(got.value()));
  for (std::uint64_t i = 0; i < got.value(); ++i) {
    out[static_cast<std::size_t>(i)] = stored[static_cast<std::size_t>(start + i)];
  }
  return out;
}

Result<std::uint64_t> SimulatedFileSystem::write(Fd fd, std::uint64_t count) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  if ((of.flags & kWrite) == 0) return FsStatus::not_permitted;
  Inode& node = inode_ref(of.inode);
  if (node.kind == FileKind::directory) return FsStatus::is_a_directory;
  if ((of.flags & kAppend) != 0) of.offset = node.size;
  const std::uint64_t end = of.offset + count;
  if (end > node.size) {
    const FsStatus space = grow_check(end - node.size);
    if (space != FsStatus::ok) return space;
    bytes_in_use_ += end - node.size;
    node.size = end;
  }
  if (options_.store_data) {
    std::vector<std::uint8_t>& stored = contents_[of.inode];
    if (stored.size() < node.size) stored.resize(static_cast<std::size_t>(node.size), 0);
    for (std::uint64_t i = 0; i < count; ++i) {
      stored[static_cast<std::size_t>(of.offset + i)] =
          static_cast<std::uint8_t>((of.offset + i) & 0xff);
    }
  }
  of.offset += count;
  ++node.write_ops;
  node.bytes_written += count;
  node.modified_at = now();
  return count;
}

Result<std::uint64_t> SimulatedFileSystem::write_bytes(Fd fd,
                                                       const std::vector<std::uint8_t>& data) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  if ((of.flags & kWrite) == 0) return FsStatus::not_permitted;
  Inode& node = inode_ref(of.inode);
  if (node.kind == FileKind::directory) return FsStatus::is_a_directory;
  if ((of.flags & kAppend) != 0) of.offset = node.size;
  const std::uint64_t count = data.size();
  const std::uint64_t end = of.offset + count;
  if (end > node.size) {
    const FsStatus space = grow_check(end - node.size);
    if (space != FsStatus::ok) return space;
    bytes_in_use_ += end - node.size;
    node.size = end;
  }
  if (options_.store_data) {
    std::vector<std::uint8_t>& stored = contents_[of.inode];
    if (stored.size() < node.size) stored.resize(static_cast<std::size_t>(node.size), 0);
    std::copy(data.begin(), data.end(), stored.begin() + static_cast<std::ptrdiff_t>(of.offset));
  }
  of.offset += count;
  ++node.write_ops;
  node.bytes_written += count;
  node.modified_at = now();
  return count;
}

Result<std::uint64_t> SimulatedFileSystem::lseek(Fd fd, std::int64_t offset, Seek whence) {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  OpenFile& of = *d.value();
  const Inode& node = inode_ref(of.inode);
  std::int64_t base = 0;
  switch (whence) {
    case Seek::set: base = 0; break;
    case Seek::cur: base = static_cast<std::int64_t>(of.offset); break;
    case Seek::end: base = static_cast<std::int64_t>(node.size); break;
  }
  const std::int64_t target = base + offset;
  if (target < 0) return FsStatus::invalid_argument;
  of.offset = static_cast<std::uint64_t>(target);
  return of.offset;
}

FsStatus SimulatedFileSystem::unlink_at(InodeId dir, std::string_view name) {
  const auto parent = entry_dir(dir, name);
  if (!parent.ok()) return parent.status();
  Inode& directory = *parent.value();
  const auto it = directory.children->find(name);
  if (it == directory.children->end()) return FsStatus::not_found;
  const InodeId id = it->second;
  Inode& node = inode_ref(id);
  if (node.kind == FileKind::directory) return FsStatus::is_a_directory;
  remove_child(directory, name);
  if (node.link_count == 0) throw std::logic_error("SimulatedFileSystem: link_count underflow");
  --node.link_count;
  maybe_collect(id);
  return FsStatus::ok;
}

FsStatus SimulatedFileSystem::unlink(const std::string& path) {
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  return unlink_at(parent.value(), leaf);
}

FsStatus SimulatedFileSystem::link(const std::string& existing, const std::string& link_path) {
  const Result<InodeId> found = resolve(existing);
  if (!found.ok()) return found.status();
  if (inode_ref(found.value()).kind == FileKind::directory) {
    return FsStatus::is_a_directory;  // as POSIX EPERM-ish
  }
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(link_path, leaf);
  if (!parent.ok()) return parent.status();
  Inode& dir = inode_ref(parent.value());
  if (dir.children->count(leaf) != 0) return FsStatus::already_exists;
  add_child(dir, leaf, found.value());
  ++inode_ref(found.value()).link_count;
  return FsStatus::ok;
}

Result<InodeId> SimulatedFileSystem::mkdir_at(InodeId dir, std::string_view name) {
  const auto parent = entry_dir(dir, name);
  if (!parent.ok()) return parent.status();
  if (parent.value()->children->count(name) != 0) return FsStatus::already_exists;
  const InodeId id = new_inode(FileKind::directory);
  add_child(inodes_[dir], name, id);  // re-fetched: new_inode grew the table
  return id;
}

FsStatus SimulatedFileSystem::mkdir(const std::string& path) {
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  return mkdir_at(parent.value(), leaf).status();
}

FsStatus SimulatedFileSystem::mkdir_recursive(const std::string& path) {
  std::vector<std::string> parts;
  if (!split_path(path, parts)) return FsStatus::invalid_argument;
  std::string prefix;
  for (const auto& piece : parts) {
    prefix += '/';
    prefix += piece;
    const FsStatus st = mkdir(prefix);
    if (st == FsStatus::ok || st == FsStatus::already_exists) continue;
    return st;
  }
  return FsStatus::ok;
}

FsStatus SimulatedFileSystem::rmdir(const std::string& path) {
  std::string_view leaf;
  const Result<InodeId> parent = resolve_parent(path, leaf);
  if (!parent.ok()) return parent.status();
  Inode& dir = inode_ref(parent.value());
  const auto it = dir.children->find(leaf);
  if (it == dir.children->end()) return FsStatus::not_found;
  Inode& node = inode_ref(it->second);
  if (node.kind != FileKind::directory) return FsStatus::not_a_directory;
  if (!node.children->empty()) return FsStatus::directory_not_empty;
  const InodeId id = it->second;
  remove_child(dir, leaf);
  --node.link_count;
  maybe_collect(id);
  return FsStatus::ok;
}

FsStatus SimulatedFileSystem::rename(const std::string& from, const std::string& to) {
  std::string_view from_leaf;
  const Result<InodeId> from_parent = resolve_parent(from, from_leaf);
  if (!from_parent.ok()) return from_parent.status();
  const Children& from_entries = *inode_ref(from_parent.value()).children;
  const auto from_it = from_entries.find(from_leaf);
  if (from_it == from_entries.end()) return FsStatus::not_found;
  const InodeId moving = from_it->second;

  // A directory must not be moved below itself.  Onto its own entry is
  // not below: that is the no-op rename further down (POSIX).
  if (inode_ref(moving).kind == FileKind::directory) {
    std::vector<std::string> from_parts, to_parts;
    split_path(from, from_parts);
    split_path(to, to_parts);
    if (to_parts.size() > from_parts.size() &&
        std::equal(from_parts.begin(), from_parts.end(), to_parts.begin())) {
      return FsStatus::invalid_argument;
    }
  }

  std::string_view to_leaf;
  const Result<InodeId> to_parent = resolve_parent(to, to_leaf);
  if (!to_parent.ok()) return to_parent.status();
  Inode& dest_dir = inode_ref(to_parent.value());
  const auto existing = dest_dir.children->find(to_leaf);
  if (existing != dest_dir.children->end()) {
    if (existing->second == moving) return FsStatus::ok;  // rename onto itself
    Inode& target = inode_ref(existing->second);
    if (target.kind == FileKind::directory) {
      if (!target.children->empty()) return FsStatus::directory_not_empty;
      if (inode_ref(moving).kind != FileKind::directory) return FsStatus::is_a_directory;
    } else if (inode_ref(moving).kind == FileKind::directory) {
      return FsStatus::not_a_directory;
    }
    const InodeId replaced = existing->second;
    remove_child(dest_dir, to_leaf);
    --inode_ref(replaced).link_count;
    maybe_collect(replaced);
  }
  remove_child(inode_ref(from_parent.value()), from_leaf);
  add_child(dest_dir, to_leaf, moving);
  return FsStatus::ok;
}

Result<FileStat> SimulatedFileSystem::stat(InodeId inode) const {
  const Inode* node = find_inode(inode);
  if (node == nullptr) return FsStatus::not_found;
  FileStat st;
  st.inode = inode;
  st.kind = node->kind;
  st.size = node->size;
  st.link_count = node->link_count;
  st.read_ops = node->read_ops;
  st.write_ops = node->write_ops;
  st.bytes_read = node->bytes_read;
  st.bytes_written = node->bytes_written;
  st.created_at = node->created_at;
  st.modified_at = node->modified_at;
  st.accessed_at = node->accessed_at;
  return st;
}

Result<FileStat> SimulatedFileSystem::stat(const std::string& path) const {
  const Result<InodeId> found = resolve(path);
  if (!found.ok()) return found.status();
  return stat(found.value());
}

Result<FileStat> SimulatedFileSystem::fstat(Fd fd) const {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  return stat(d.value()->inode);
}

FsStatus SimulatedFileSystem::truncate(const std::string& path, std::uint64_t size) {
  const Result<InodeId> found = resolve(path);
  if (!found.ok()) return found.status();
  Inode& node = inode_ref(found.value());
  if (node.kind == FileKind::directory) return FsStatus::is_a_directory;
  if (size > node.size) {
    const FsStatus space = grow_check(size - node.size);
    if (space != FsStatus::ok) return space;
    bytes_in_use_ += size - node.size;
  } else {
    bytes_in_use_ -= node.size - size;
  }
  node.size = size;
  if (options_.store_data) contents_[found.value()].resize(static_cast<std::size_t>(size), 0);
  node.modified_at = now();
  return FsStatus::ok;
}

Result<std::vector<std::string>> SimulatedFileSystem::readdir(const std::string& path) const {
  const Result<InodeId> found = resolve(path);
  if (!found.ok()) return found.status();
  const Inode& node = inode_ref(found.value());
  if (node.kind != FileKind::directory) return FsStatus::not_a_directory;
  std::vector<std::string> names;
  names.reserve(node.children->size());
  for (const auto& [name, id] : *node.children) names.push_back(name);
  return names;  // std::map keeps them sorted
}

bool SimulatedFileSystem::exists(const std::string& path) const { return resolve(path).ok(); }

Result<std::uint64_t> SimulatedFileSystem::tell(Fd fd) const {
  const auto d = descriptor(fd);
  if (!d.ok()) return d.status();
  return d.value()->offset;
}

std::size_t SimulatedFileSystem::regular_file_count() const {
  std::size_t n = 0;
  for (const Inode& node : inodes_) {
    if (node.live && node.kind == FileKind::regular && node.link_count > 0) ++n;
  }
  return n;
}

std::size_t SimulatedFileSystem::directory_count() const {
  std::size_t n = 0;
  for (const Inode& node : inodes_) {
    if (node.live && node.kind == FileKind::directory) ++n;
  }
  return n;
}

}  // namespace wlgen::fs
