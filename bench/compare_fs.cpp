// Section 5.3 — "Comparing Different File Systems".
//
// Runs the paper's comparison procedure: the identical user population and
// initial file system against each candidate file-system model (SUN-NFS,
// local disk, Andrew-style whole-file caching), at two load points, and
// grades the decision table the paper says a laboratory should build before
// choosing a file system.

#include "exp/workload.h"
#include "experiments.h"

namespace wlgen::bench {

exp::Experiment make_compare_fs() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "compare_fs";
  experiment.artifact = "Section 5.3";
  experiment.title = "file system comparison procedure";
  experiment.paper_claim =
      "same workload, candidate file systems; the ranking flips with load";
  experiment.expectations = {
      exp::expect_scalar_in_range("nfs_over_local_1u", 1.05, 10.0, Verdict::fail,
                                  "at one user the local disk wins (no network on the path)"),
      exp::expect_scalar_in_range("local_over_nfs_4u", 1.05, 10.0, Verdict::fail,
                                  "at four users the ranking flips: the server's big cache "
                                  "absorbs the misses thrashing the 4 MB local cache"),
      exp::expect_scalar_in_range("wholefile_degradation", 0.5, 1.5, Verdict::fail,
                                  "whole-file caching pays at open/close and degrades most "
                                  "gently between the load points"),
  };

  experiment.run = [](const exp::RunContext& ctx) {
    const std::vector<std::string> candidates = {"nfs", "local", "wholefile"};
    exp::ExperimentResult result;
    result.x_label = "number of simultaneous users";
    result.y_label = "response time per byte (us)";
    std::map<std::string, std::map<std::size_t, double>> levels;
    for (const std::size_t users : {1UL, 4UL}) {
      for (const auto& name : candidates) {
        exp::WorkloadConfig config;
        config.num_users = users;
        config.sessions_per_user = ctx.sessions(40);
        config.model_factory = runner::model_factory_by_name(name);
        config.seed = ctx.seed + 53;
        levels[name][users] = exp::run_workload(config).response_per_byte_us;
      }
    }
    for (const auto& name : candidates) {
      result.add_series(name, {1.0, 4.0}, {levels[name][1], levels[name][4]});
      result.set_scalar(name + "_us_per_byte_1u", levels[name][1]);
      result.set_scalar(name + "_us_per_byte_4u", levels[name][4]);
    }
    result.set_scalar("nfs_over_local_1u",
                      levels["local"][1] > 0.0 ? levels["nfs"][1] / levels["local"][1] : 0.0);
    result.set_scalar("local_over_nfs_4u",
                      levels["nfs"][4] > 0.0 ? levels["local"][4] / levels["nfs"][4] : 0.0);
    result.set_scalar("wholefile_degradation",
                      levels["wholefile"][1] > 0.0
                          ? levels["wholefile"][4] / levels["wholefile"][1]
                          : 0.0);
    result.notes.push_back(
        "\"One file system may be better under some particular environment, "
        "and others may be superior under different environments\": the "
        "procedure exposes the crossover instead of averaging it away.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
