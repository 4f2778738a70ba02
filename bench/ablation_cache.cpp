// Ablation — NFS client cache size vs the Figure 5.6 contention curve.
//
// Figure 5.6's linear response growth assumes the server is the bottleneck.
// This experiment sweeps the client block-cache size: a tiny cache pushes
// every access to the server (steeper, still growing); a huge cache absorbs
// almost everything (flatter).  It isolates the mechanism DESIGN.md credits
// for the figure's shape.

#include <memory>

#include "core/presets.h"
#include "exp/workload.h"
#include "experiments.h"
#include "fsmodel/nfs_model.h"

namespace wlgen::bench {

namespace {

double cache_point(std::size_t blocks, std::size_t users, std::size_t sessions,
                   std::uint64_t seed) {
  exp::WorkloadConfig config;
  config.num_users = users;
  config.sessions_per_user = sessions;
  config.seed = seed + users;
  config.model_factory = [blocks](sim::Simulation& simulation) {
    fsmodel::NfsParams params;
    params.client_cache_blocks = blocks;
    return std::make_unique<fsmodel::NfsModel>(simulation, params);
  };
  config.population.groups.push_back({core::extremely_heavy_user(), 1.0});
  config.population.validate_and_normalize();
  return exp::run_workload(config).response_per_byte_us;
}

}  // namespace

exp::Experiment make_ablation_cache() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "ablation_cache";
  experiment.title = "NFS client cache size vs the Figure 5.6 contention curve";
  experiment.paper_claim = "mechanism check for Figure 5.6's shape: server-bound contention";
  experiment.expectations = {
      exp::expect_monotonic_down("6 users", 0.05, Verdict::fail,
                                 "a larger client cache must lower the contended level"),
      exp::expect_monotonic_down("1 user", 0.05, Verdict::fail,
                                 "a larger client cache must lower the uncontended level"),
      exp::expect_scalar_in_range("growth_with_starved_cache", 1.5, 20.0, Verdict::fail,
                                  "with a starved cache every access queues at the server"),
      exp::expect_scalar_in_range("growth_with_big_cache", 1.2, 10.0, Verdict::fail,
                                  "cold misses and write flushes still serialise at the disk"),
      exp::expect_scalar_in_range("starved_over_big_at_6u", 1.5, 20.0, Verdict::fail,
                                  "cache starvation must raise the whole curve"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const std::vector<std::size_t> cache_blocks = {8, 64, 384, 4096};
    const std::size_t sessions = ctx.sessions(30);
    std::vector<double> xs, one_user, six_users;
    for (const std::size_t blocks : cache_blocks) {
      xs.push_back(static_cast<double>(blocks));
      one_user.push_back(cache_point(blocks, 1, sessions, ctx.seed + 31));
      six_users.push_back(cache_point(blocks, 6, sessions, ctx.seed + 31));
    }

    exp::ExperimentResult result;
    result.x_label = "client cache size (8 KiB blocks)";
    result.y_label = "response time per byte (us)";
    result.add_series("1 user", xs, one_user);
    result.add_series("6 users", xs, six_users);
    result.set_scalar("growth_with_starved_cache",
                      one_user.front() > 0.0 ? six_users.front() / one_user.front() : 0.0);
    result.set_scalar("growth_with_big_cache",
                      one_user.back() > 0.0 ? six_users.back() / one_user.back() : 0.0);
    result.set_scalar("starved_over_big_at_6u",
                      six_users.back() > 0.0 ? six_users.front() / six_users.back() : 0.0);
    result.notes.push_back(
        "A starved client cache raises the whole curve (every access crosses "
        "the network and queues at the server); a huge cache lowers the level "
        "but contention growth remains — cold misses and write flushes still "
        "serialise at the shared server disk.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
