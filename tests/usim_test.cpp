// Tests for the User Simulator: the paper's logical constraints on the
// operation stream (open-before-read, sequential access, close/unlink
// ordering), determinism, accounting, and the extension switches.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/analysis.h"
#include "core/fsc.h"
#include "core/presets.h"
#include "core/usim.h"
#include "fsmodel/local_model.h"
#include "fsmodel/nfs_model.h"

namespace wlgen::core {
namespace {

struct Rig {
  sim::Simulation simulation;
  fs::SimulatedFileSystem fsys;
  std::unique_ptr<fsmodel::NfsModel> model;
  CreatedFileSystem manifest;

  explicit Rig(std::size_t users, std::uint64_t seed = 1) {
    fsys.set_clock([this] { return simulation.now(); });
    model = std::make_unique<fsmodel::NfsModel>(simulation);
    FscConfig config;
    config.num_users = users;
    config.seed = seed;
    FileSystemCreator fsc(fsys, di86_file_profiles(), config);
    manifest = fsc.create();
  }
};

UsimConfig small_config(std::size_t users, std::size_t sessions, std::uint64_t seed = 7) {
  UsimConfig config;
  config.num_users = users;
  config.sessions_per_user = sessions;
  config.seed = seed;
  return config;
}

TEST(Usim, CompletesAllSessions) {
  Rig rig(2);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(2, 5));
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 10u);
  EXPECT_GT(usim.total_ops(), 100u);
  EXPECT_EQ(usim.log().size(), usim.total_ops());
  EXPECT_EQ(rig.fsys.open_descriptor_count(), 0u);  // everything closed
}

TEST(Usim, RunTwiceRejected) {
  Rig rig(1);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(1, 1));
  usim.run();
  EXPECT_THROW(usim.run(), std::logic_error);
}

TEST(Usim, OpenAlwaysPrecedesDataOps) {
  Rig rig(1);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(1, 4));
  usim.run();

  // Per (session, file): the op order must be creat/open -> data -> close,
  // the paper's "obvious logical constraints" (section 3.1.4).
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> open_depth;
  for (const auto& r : usim.log().records()) {
    const auto key = std::make_pair(r.session, r.file_id);
    switch (r.op) {
      case fsmodel::FsOpType::open:
      case fsmodel::FsOpType::creat:
        ++open_depth[key];
        break;
      case fsmodel::FsOpType::close:
        --open_depth[key];
        EXPECT_GE(open_depth[key], 0) << "close without open";
        break;
      case fsmodel::FsOpType::read:
      case fsmodel::FsOpType::write:
      case fsmodel::FsOpType::lseek:
        EXPECT_GT(open_depth[key], 0)
            << "data op on closed file " << r.file_id << " in session " << r.session;
        break;
      default:
        break;
    }
  }
}

TEST(Usim, TempFilesAreUnlinkedAfterClose) {
  Rig rig(1);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(1, 6));
  usim.run();

  std::set<std::uint64_t> temp_created, temp_unlinked;
  std::map<std::uint64_t, bool> closed;
  for (const auto& r : usim.log().records()) {
    if (r.category.use != UseMode::temp) continue;
    if (r.op == fsmodel::FsOpType::creat) temp_created.insert(r.file_id);
    if (r.op == fsmodel::FsOpType::close) closed[r.file_id] = true;
    if (r.op == fsmodel::FsOpType::unlink) {
      temp_unlinked.insert(r.file_id);
      EXPECT_TRUE(closed[r.file_id]) << "unlink before close on " << r.file_id;
    }
  }
  ASSERT_FALSE(temp_created.empty());
  EXPECT_EQ(temp_created, temp_unlinked);
  // No tmp_* litter remains in any user directory.
  const auto names = rig.fsys.readdir(CreatedFileSystem::user_dir(0)).value();
  for (const auto& n : names) EXPECT_FALSE(n.starts_with("tmp_")) << n;
}

TEST(Usim, SequentialReadsAdvanceThroughFile) {
  Rig rig(1);
  UsimConfig config = small_config(1, 3);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     config);
  usim.run();
  // Reads on a descriptor re-visit offset 0 only via a logged lseek.  The
  // log keys by (session, file); a session may open the same pool file via
  // two work items with independent offsets, so the strict invariant is
  // checked only for files opened exactly once in the session.
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> opens;
  for (const auto& r : usim.log().records()) {
    if (r.op == fsmodel::FsOpType::open || r.op == fsmodel::FsOpType::creat) {
      ++opens[std::make_pair(r.session, r.file_id)];
    }
  }
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> since_rewind;
  std::size_t checked = 0;
  for (const auto& r : usim.log().records()) {
    const auto key = std::make_pair(r.session, r.file_id);
    if (opens[key] != 1) continue;
    if (r.op == fsmodel::FsOpType::lseek) {
      since_rewind[key] = 0;
    } else if (r.op == fsmodel::FsOpType::read && r.category.use == UseMode::read_only) {
      since_rewind[key] += r.actual_bytes;
      EXPECT_LE(since_rewind[key], r.file_size) << "read past EOF without rewind";
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the invariant was actually exercised
}

TEST(Usim, ReadsAreTruncatedAtEof) {
  Rig rig(1);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(1, 5));
  usim.run();
  const UsageAnalyzer analyzer(usim.log());
  const auto access = analyzer.access_size_stats();
  // Mean actual access below the 1024-byte request mean (Table 5.3's 946.71).
  EXPECT_LT(access.mean(), 1024.0);
  EXPECT_GT(access.mean(), 500.0);
}

TEST(Usim, DeterministicForFixedSeed) {
  const auto run_once = [](std::uint64_t seed) {
    Rig rig(2, 3);
    UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                       small_config(2, 3, seed));
    usim.run();
    return usim.log().serialize();
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(Usim, PopulationMixAssignsTypes) {
  Rig rig(4);
  UsimConfig config = small_config(4, 2);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, mixed_population(0.5),
                     config);
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 8u);
}

TEST(Usim, ZeroThinkTimeUsersSaturate) {
  // Extremely heavy users (think 0) finish sooner in simulated time than the
  // same work with 20 ms thinking, but issue the same kind of ops.
  const auto elapsed_for = [](const Population& pop) {
    Rig rig(1);
    UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, pop,
                       small_config(1, 3));
    usim.run();
    return rig.simulation.now();
  };
  Population extreme;
  extreme.groups.push_back({extremely_heavy_user(), 1.0});
  Population light;
  light.groups.push_back({light_user(), 1.0});
  EXPECT_LT(elapsed_for(extreme), elapsed_for(light) / 2.0);
}

TEST(Usim, ValidatesConfiguration) {
  Rig rig(1);
  EXPECT_THROW(UserSimulator(rig.simulation, rig.fsys, *rig.model, rig.manifest,
                             default_population(), small_config(0, 1)),
               std::invalid_argument);
  EXPECT_THROW(UserSimulator(rig.simulation, rig.fsys, *rig.model, rig.manifest,
                             default_population(), small_config(1, 0)),
               std::invalid_argument);
  // More users than the FSC laid out directories for.
  EXPECT_THROW(UserSimulator(rig.simulation, rig.fsys, *rig.model, rig.manifest,
                             default_population(), small_config(5, 1)),
               std::invalid_argument);
  UsimConfig bad = small_config(1, 1);
  bad.windows_per_user = 0;
  EXPECT_THROW(
      UserSimulator(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(), bad),
      std::invalid_argument);
}

TEST(Usim, CollectLogOffKeepsCounters) {
  Rig rig(1);
  UsimConfig config = small_config(1, 3);
  config.collect_log = false;
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     config);
  usim.run();
  EXPECT_EQ(usim.log().size(), 0u);
  EXPECT_GT(usim.total_ops(), 0u);
}

TEST(Usim, MarkovStreamProducesLongerRuns) {
  const auto mean_run_length = [](double persistence) {
    Rig rig(1);
    UsimConfig config = small_config(1, 6);
    config.markov_persistence = persistence;
    UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                       config);
    usim.run();
    // Average length of same-file op runs in the log.
    std::uint64_t runs = 0, ops = 0;
    std::uint64_t prev_file = 0;
    bool first = true;
    for (const auto& r : usim.log().records()) {
      ++ops;
      if (first || r.file_id != prev_file) ++runs;
      prev_file = r.file_id;
      first = false;
    }
    return static_cast<double>(ops) / static_cast<double>(runs);
  };
  EXPECT_GT(mean_run_length(0.95), mean_run_length(-1.0) * 1.3);
}

TEST(Usim, RandomAccessPatternSkipsRewinds) {
  Rig rig(1);
  UsimConfig config = small_config(1, 4);
  config.pattern = AccessPattern::uniform_random;
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     config);
  usim.run();
  std::size_t lseeks = 0, reads = 0;
  for (const auto& r : usim.log().records()) {
    if (r.op == fsmodel::FsOpType::lseek) ++lseeks;
    if (r.op == fsmodel::FsOpType::read) ++reads;
  }
  EXPECT_GT(reads, 50u);
  EXPECT_EQ(lseeks, 0u);  // random offsets never hit the EOF-rewind path
}

TEST(Usim, StatBeforeOpenEmitsStats) {
  Rig rig(1);
  UsimConfig config = small_config(1, 4);
  config.stat_before_open_prob = 1.0;
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     config);
  usim.run();
  std::size_t stats = 0, opens = 0;
  for (const auto& r : usim.log().records()) {
    if (r.op == fsmodel::FsOpType::stat) ++stats;
    if (r.op == fsmodel::FsOpType::open) ++opens;
  }
  EXPECT_EQ(stats, opens);  // every open of an existing file was stat-ed
  EXPECT_GT(stats, 0u);
}

TEST(Usim, MultiWindowUsersRunConcurrentSessions) {
  Rig rig(1);
  UsimConfig config = small_config(1, 2);
  config.windows_per_user = 3;
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     config);
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 6u);  // 3 windows x 2 sessions
  // Session ordinals are unique per user even across windows.
  std::set<std::uint32_t> ordinals;
  for (const auto& r : usim.log().records()) ordinals.insert(r.session);
  EXPECT_EQ(ordinals.size(), 6u);
}

TEST(Usim, WorksAgainstLocalModelToo) {
  Rig rig(1);
  fsmodel::LocalDiskModel local(rig.simulation);
  UserSimulator usim(rig.simulation, rig.fsys, local, rig.manifest, default_population(),
                     small_config(1, 3));
  usim.run();
  EXPECT_EQ(usim.sessions_completed(), 3u);
  EXPECT_GT(usim.total_ops(), 50u);
}

TEST(Usim, NewFilesLandInUserDirectories) {
  Rig rig(1);
  UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                     small_config(1, 5));
  usim.run();
  // New files are scattered across the user's home and its subdirectories.
  const FileCategory user_dirs{FileType::directory, FileOwner::user, UseMode::read_only};
  std::size_t dirs_with_new = 0;
  for (std::size_t idx : rig.manifest.pool(user_dirs, 0)) {
    const auto names = rig.fsys.readdir(rig.manifest.files()[idx].path);
    if (!names.ok()) continue;
    bool saw_new = false;
    for (const auto& name : names.value()) {
      if (name.starts_with("new_")) saw_new = true;
      EXPECT_FALSE(name.starts_with("tmp_")) << name;  // temps were unlinked
    }
    if (saw_new) ++dirs_with_new;
  }
  EXPECT_GE(dirs_with_new, 2u);
}

TEST(Usim, ThinkTimeModulatorSlowsSimulatedTime) {
  const auto elapsed_with = [](std::shared_ptr<const ThinkTimeModulator> mod) {
    Rig rig(1);
    UsimConfig config = small_config(1, 3);
    config.think_modulator = std::move(mod);
    UserSimulator usim(rig.simulation, rig.fsys, *rig.model, rig.manifest, default_population(),
                       config);
    usim.run();
    return rig.simulation.now();
  };
  // A modulator pinned at 10x think time stretches the run.
  class TenX final : public ThinkTimeModulator {
   public:
    double multiplier(double) const override { return 10.0; }
    std::string name() const override { return "10x"; }
  };
  EXPECT_GT(elapsed_with(std::make_shared<TenX>()), elapsed_with(nullptr) * 3.0);
}

}  // namespace
}  // namespace wlgen::core
