#include "core/fsc.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace wlgen::core {

namespace {

// The layout's directory names: /system, /users and /users/u<k>.
constexpr const char* kSystemName = "system";
constexpr const char* kUsersName = "users";
constexpr const char* kUserPrefix = "u";

/// "<prefix><i>", the name of the layout's i-th numbered directory.
std::string numbered(const char* prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

const std::vector<std::size_t> CreatedFileSystem::kEmptyPool = {};

std::string CreatedFileSystem::system_dir() { return std::string("/") + kSystemName; }

std::string CreatedFileSystem::user_dir(std::size_t user) {
  return std::string("/") + kUsersName + "/" + numbered(kUserPrefix, user);
}

std::uint64_t CreatedFileSystem::pool_key(std::size_t category_index, std::size_t owner) {
  const std::uint64_t owner_slot = owner == CreatedFile::kSystemOwner ? 0 : owner + 1;
  return owner_slot * FileCategory::kCount + category_index;
}

void CreatedFileSystem::add_file(CreatedFile file) {
  const std::size_t index = files_.size();
  std::uint32_t& slot = pool_slot_[pool_key(file.category.index(), file.owner_user)];
  if (slot == 0) {
    pools_.emplace_back();
    slot = static_cast<std::uint32_t>(pools_.size());
  }
  files_.push_back(std::move(file));
  pools_[slot - 1].push_back(index);
}

const std::vector<std::size_t>& CreatedFileSystem::pool(const FileCategory& category,
                                                        std::size_t user) const {
  const std::size_t owner =
      category.owner == FileOwner::user ? user : CreatedFile::kSystemOwner;
  const std::uint32_t* slot = pool_slot_.find(pool_key(category.index(), owner));
  return slot == nullptr ? kEmptyPool : pools_[*slot - 1];
}

FileSystemCreator::FileSystemCreator(fs::SimulatedFileSystem& fsys,
                                     std::vector<FileCategoryProfile> profiles, FscConfig config)
    : fsys_(fsys), profiles_(std::move(profiles)), config_(config) {
  if (profiles_.empty()) throw std::invalid_argument("FileSystemCreator: no category profiles");
  if (config_.num_users == 0) throw std::invalid_argument("FileSystemCreator: need >= 1 user");
}

std::uint64_t FileSystemCreator::sample_size(const FileCategoryProfile& profile,
                                             util::RngStream& rng) {
  if (!profile.size_dist) throw std::invalid_argument("FileSystemCreator: profile missing size dist");
  const double v = profile.size_dist->sample(rng);
  return static_cast<std::uint64_t>(std::max(1.0, std::llround(v) * 1.0));
}

namespace {

/// "REG/USER/RDONLY" -> "reg_user_rdonly": the stem of the category's files.
std::string category_stem(const FileCategory& category) {
  std::string stem = category.label();
  for (auto& c : stem) {
    c = c == '/' || c == '-' ? '_' : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return stem;
}

/// The build's one error: the substrate refused `what`.  Messages are
/// built only here, so a successful build formats none.
[[noreturn]] void fail(const std::string& what, fs::FsStatus status) {
  throw std::runtime_error("FileSystemCreator: " + what + " failed: " + fs::to_string(status));
}

}  // namespace

FileSystemCreator::Dir FileSystemCreator::make_dir(const Dir& parent, std::string_view name) {
  Dir dir;
  dir.path.reserve(parent.path.size() + 1 + name.size());
  if (parent.path != "/") dir.path = parent.path;
  dir.path += '/';
  dir.path += name;
  fs::Result<fs::InodeId> made = fsys_.mkdir_at(parent.inode, name);
  if (made.status() == fs::FsStatus::already_exists) made = fsys_.lookup(parent.inode, name);
  if (!made.ok()) fail("mkdir " + dir.path, made.status());
  dir.inode = made.value();
  return dir;
}

void FileSystemCreator::create_files(CreatedFileSystem& out, const std::vector<Stemmed>& profiles,
                                     std::span<const Dir> dirs, std::size_t count,
                                     std::size_t owner_user, util::RngStream& rng) {
  if (profiles.empty() || dirs.empty()) return;
  std::vector<double> weights;
  for (const Stemmed& p : profiles) weights.push_back(std::max(p.profile->fraction_of_files, 1e-9));
  std::vector<std::size_t> ordinal(profiles.size(), 0);
  std::string name;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = rng.categorical(weights);
    const Dir& dir = dirs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dirs.size()) - 1))];
    const Stemmed& chosen = profiles[pick];
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof digits, ordinal[pick]++).ptr;
    name.assign(chosen.stem).append(1, '_').append(digits, end);

    CreatedFile file;
    file.path.reserve(dir.path.size() + 1 + name.size());
    file.path.append(dir.path).append(1, '/').append(name);
    file.category = chosen.profile->category;
    file.size = sample_size(*chosen.profile, rng);
    file.owner_user = owner_user;

    // One directory step per file: created, filled and closed through the
    // directory's handle; the inode comes from the new descriptor.
    const auto fd = fsys_.open_at(dir.inode, name, fs::kWrite | fs::kCreate | fs::kTruncate);
    if (!fd.ok()) fail("creat(" + file.path + ")", fd.status());
    const auto wrote = fsys_.write(fd.value(), file.size);
    if (!wrote.ok()) fail("populate(" + file.path + ")", wrote.status());
    file.inode = fsys_.fstat(fd.value()).value().inode;
    const fs::FsStatus closed = fsys_.close(fd.value());
    if (closed != fs::FsStatus::ok) fail("close(" + file.path + ")", closed);
    out.add_file(std::move(file));
  }
}

std::vector<FileSystemCreator::Stemmed> FileSystemCreator::stemmed_profiles(FileOwner owner) const {
  // Directory-category profiles are realised by the layout's real
  // directories, whose sizes emerge from their entry counts (see
  // fs::SimulatedFileSystem).
  std::vector<Stemmed> out;
  for (const auto& p : profiles_) {
    if (p.category.file_type == FileType::regular && p.category.owner == owner) {
      out.push_back(Stemmed{&p, category_stem(p.category)});
    }
  }
  return out;
}

FileSystemCreator::SystemTree FileSystemCreator::build_system_tree(CreatedFileSystem& out) {
  // The shared system tree and every user tree draw from their own streams
  // ("fsc/system", "fsc/user/<k>"), so building users [first_user,
  // first_user + num_users) yields bit-identical trees to a full build —
  // the FSC side of the runner's deterministic user partitioning.
  util::RngStream system_rng(config_.seed, "fsc/system");

  // Each directory is made once; files are then created through its handle.
  const Dir root{fs::kRootInode, "/"};
  SystemTree tree;
  tree.system = make_dir(root, kSystemName);
  tree.users = make_dir(root, kUsersName);

  // System subtrees: the NOTES and OTHER categories each get half of the
  // configured system subdirectories (at least one apiece).
  const std::size_t notes_dir_count = std::max<std::size_t>(1, config_.system_subdirs / 2);
  const std::size_t other_dir_count =
      std::max<std::size_t>(1, config_.system_subdirs - notes_dir_count);
  for (std::size_t i = 0; i < notes_dir_count; ++i) {
    tree.notes_dirs.push_back(make_dir(tree.system, numbered("notes", i)));
  }
  for (std::size_t i = 0; i < other_dir_count; ++i) {
    tree.other_dirs.push_back(make_dir(tree.system, numbered("other", i)));
  }

  // Split the system file budget by the relative NOTES/OTHER fractions.
  const std::vector<Stemmed> notes_profiles = stemmed_profiles(FileOwner::notes);
  const std::vector<Stemmed> other_profiles = stemmed_profiles(FileOwner::other);
  double notes_frac = 0.0, other_frac = 0.0;
  for (const Stemmed& p : notes_profiles) notes_frac += p.profile->fraction_of_files;
  for (const Stemmed& p : other_profiles) other_frac += p.profile->fraction_of_files;
  const double system_total = std::max(notes_frac + other_frac, 1e-9);
  const std::size_t notes_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(config_.system_files) * notes_frac / system_total));
  create_files(out, notes_profiles, tree.notes_dirs, notes_count, CreatedFile::kSystemOwner,
               system_rng);
  create_files(out, other_profiles, tree.other_dirs, config_.system_files - notes_count,
               CreatedFile::kSystemOwner, system_rng);
  return tree;
}

/// A system-tree build kept for reuse: what it depended on, every clock
/// reading it made, and what it left in the file system and the manifest.
struct FileSystemCreator::Snapshot {
  /// Everything build_system_tree's calls depend on besides the clock, given
  /// a pristine file system.  A profile is its category, the bits of its
  /// fraction and its size distribution's address.
  struct Key {
    std::uint64_t seed = 0;
    std::size_t system_files = 0;
    std::size_t system_subdirs = 0;
    bool store_data = false;
    std::uint64_t capacity_bytes = 0;
    std::size_t max_open_files = 0;
    std::size_t max_name_length = 0;
    std::vector<std::tuple<std::size_t, std::uint64_t, const dist::Distribution*>> profiles;

    bool operator==(const Key&) const = default;
  };

  /// The process's snapshots, oldest first.  A snapshot never changes once
  /// kept, so threads restore from one at the same time; the mutex guards
  /// only the list and the count.
  struct Cache {
    std::mutex mutex;
    std::vector<std::shared_ptr<const Snapshot>> kept;
    std::uint64_t taken = 0;
  };
  static Cache& cache() {
    static Cache instance;
    return instance;
  }
  static constexpr std::size_t kCapacity = 4;

  /// True while every keyed distribution lives: no other object can then
  /// have its address, so an equal key names the same distributions.  Once
  /// one is freed no build can present the key again.
  bool alive() const {
    return std::none_of(dists.begin(), dists.end(), [](const auto& d) { return d.expired(); });
  }

  Key key;
  std::vector<std::weak_ptr<const dist::Distribution>> dists;  ///< the keyed ones
  std::vector<double> clock;
  fs::SimulatedFileSystem fs;
  CreatedFileSystem manifest;
  SystemTree tree;
};

namespace {

double read_clock(const std::function<double()>& clock) { return clock ? clock() : 0.0; }

/// For its lifetime, the file system's clock answers with `replay`'s values
/// first and the real clock's after, and appends every reading to
/// `record`.  The real clock is put back on destruction, advanced by
/// exactly the readings it gave.
class ClockTap {
 public:
  ClockTap(fs::SimulatedFileSystem& fsys, std::span<const double> replay,
           std::vector<double>& record)
      : fsys_(fsys), real_(fsys.clock()) {
    fsys_.set_clock([this, replay, &record, next = std::size_t{0}]() mutable {
      const double t = next < replay.size() ? replay[next++] : read_clock(real_);
      record.push_back(t);
      return t;
    });
  }
  ClockTap(const ClockTap&) = delete;
  ClockTap& operator=(const ClockTap&) = delete;
  ~ClockTap() { fsys_.set_clock(std::move(real_)); }

 private:
  fs::SimulatedFileSystem& fsys_;
  std::function<double()> real_;
};

/// Bitwise equality, so -0.0 never matches 0.0 and a NaN never matches.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  });
}

}  // namespace

std::uint64_t FileSystemCreator::system_tree_snapshots_taken() {
  Snapshot::Cache& cache = Snapshot::cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.taken;
}

FileSystemCreator::SystemTree FileSystemCreator::system_tree(CreatedFileSystem& out) {
  // A file system that already holds something would give the build other
  // inode ids and descriptor numbers: build it as is, and keep nothing.
  if (!fsys_.pristine()) return build_system_tree(out);

  Snapshot::Key key;
  key.seed = config_.seed;
  key.system_files = config_.system_files;
  key.system_subdirs = config_.system_subdirs;
  const fs::SimulatedFileSystem::Options& options = fsys_.options();
  key.store_data = options.store_data;
  key.capacity_bytes = options.capacity_bytes;
  key.max_open_files = options.max_open_files;
  key.max_name_length = options.max_name_length;
  for (const FileCategoryProfile& p : profiles_) {
    key.profiles.emplace_back(p.category.index(), std::bit_cast<std::uint64_t>(p.fraction_of_files),
                              p.size_dist.get());
  }

  Snapshot::Cache& cache = Snapshot::cache();
  const auto matches = [&key](const auto& kept) { return kept->alive() && kept->key == key; };
  std::shared_ptr<const Snapshot> found;
  {
    const std::lock_guard<std::mutex> lock(cache.mutex);
    std::erase_if(cache.kept, [](const auto& kept) { return !kept->alive(); });
    const auto it = std::find_if(cache.kept.begin(), cache.kept.end(), matches);
    if (it != cache.kept.end()) found = *it;
  }
  if (found) {
    // The build reads the clock the same number of times whatever it reads,
    // so take exactly those readings, as the build would.  The snapshot is
    // this build only when they are the readings it was made with;
    // otherwise build again on them.
    std::vector<double> readings(found->clock.size());
    for (double& t : readings) t = read_clock(fsys_.clock());
    if (same_bits(readings, found->clock)) {
      fsys_.copy_state_from(found->fs);
      out = found->manifest;
      return found->tree;
    }
    std::vector<double> record;
    const ClockTap tap(fsys_, readings, record);
    return build_system_tree(out);
  }

  auto snapshot = std::make_shared<Snapshot>();
  SystemTree tree;
  {
    const ClockTap tap(fsys_, {}, snapshot->clock);
    tree = build_system_tree(out);  // a failed build propagates, keeping nothing
  }
  snapshot->clock.shrink_to_fit();
  for (const FileCategoryProfile& p : profiles_) {
    if (p.size_dist) snapshot->dists.emplace_back(p.size_dist);
  }
  snapshot->fs.copy_state_from(fsys_);
  snapshot->manifest = out;
  snapshot->tree = tree;
  const std::lock_guard<std::mutex> lock(cache.mutex);
  // Threads that missed together each took one: the first is kept.
  if (std::none_of(cache.kept.begin(), cache.kept.end(), matches)) {
    snapshot->key = std::move(key);
    if (cache.kept.size() == Snapshot::kCapacity) cache.kept.erase(cache.kept.begin());
    cache.kept.push_back(std::move(snapshot));
    ++cache.taken;
  }
  return tree;
}

CreatedFileSystem FileSystemCreator::create() {
  CreatedFileSystem out;
  SystemTree tree = system_tree(out);
  out.set_user_count(config_.first_user + config_.num_users);
  const std::vector<Stemmed> user_profiles = stemmed_profiles(FileOwner::user);

  // Per-user home + subdirectories and files, each user from a private
  // stream keyed by the *global* user index.  user_dirs holds every user's
  // directories back to back, home first.
  const std::size_t user_end = config_.first_user + config_.num_users;
  const std::size_t dirs_per_user = 1 + config_.user_subdirs;
  std::vector<Dir> user_dirs;
  user_dirs.reserve(config_.num_users * dirs_per_user);
  for (std::size_t user = config_.first_user; user < user_end; ++user) {
    util::RngStream user_rng(config_.seed, "fsc/user/" + std::to_string(user));
    const std::size_t first = user_dirs.size();
    user_dirs.push_back(make_dir(tree.users, numbered(kUserPrefix, user)));
    for (std::size_t i = 0; i < config_.user_subdirs; ++i) {
      user_dirs.push_back(make_dir(user_dirs[first], numbered("d", i)));
    }
    create_files(out, user_profiles, std::span<const Dir>(user_dirs).subspan(first),
                 config_.files_per_user, user, user_rng);
  }

  // Register the real directories under their DIR categories so the USIM can
  // reference them: the user's own directories (DIR/USER) and the system and
  // users directories (DIR/OTHER).  Sizes are read now, after every entry
  // has been made.
  const auto add_dir = [&](Dir& dir, FileOwner owner, std::size_t owner_user) {
    CreatedFile file;
    file.category = FileCategory{FileType::directory, owner, UseMode::read_only};
    file.size = fsys_.stat(dir.inode).value().size;
    file.inode = dir.inode;
    file.owner_user = owner_user;
    file.path = std::move(dir.path);
    out.add_file(std::move(file));
  };
  add_dir(tree.system, FileOwner::other, CreatedFile::kSystemOwner);
  add_dir(tree.users, FileOwner::other, CreatedFile::kSystemOwner);
  for (Dir& dir : tree.notes_dirs) add_dir(dir, FileOwner::other, CreatedFile::kSystemOwner);
  for (Dir& dir : tree.other_dirs) add_dir(dir, FileOwner::other, CreatedFile::kSystemOwner);
  for (std::size_t k = 0; k < user_dirs.size(); ++k) {
    add_dir(user_dirs[k], FileOwner::user, config_.first_user + k / dirs_per_user);
  }
  return out;
}

}  // namespace wlgen::core
