// Related-work baselines (paper sections 2.1 and 5.3): the Andrew-style
// script benchmark and the Buchholz synthetic file-update job, run against
// the same three file-system models as the user-oriented generator.
//
// This is the paper's "benchmarks are too artificial" argument made
// concrete: a script produces one fixed op sequence, so it cannot answer
// "what happens when the number of users changes?" — the question the
// user-oriented generator exists for.

#include <string>
#include <vector>

#include "core/baseline.h"
#include "exp/workload.h"
#include "experiments.h"
#include "fs/filesystem.h"
#include "runner/model_factory.h"
#include "sim/simulation.h"

namespace wlgen::bench {

namespace {

struct BaselinePoint {
  double andrew_total_ms = 0.0;
  double buchholz_ms = 0.0;
};

BaselinePoint baseline_point(const std::string& model_name) {
  const runner::ModelFactory make = runner::model_factory_by_name(model_name);
  BaselinePoint point;
  {
    sim::Simulation simulation;
    fs::SimulatedFileSystem fsys;
    auto model = make(simulation);
    core::ScriptRunner runner(simulation, fsys, *model);
    const core::ScriptResult result =
        runner.run(core::make_andrew_script(core::AndrewConfig{}), core::andrew_phase_names());
    point.andrew_total_ms = result.total_us / 1000.0;
  }
  {
    sim::Simulation simulation;
    fs::SimulatedFileSystem fsys;
    auto model = make(simulation);
    core::ScriptRunner runner(simulation, fsys, *model);
    core::BuchholzConfig config;
    const core::ScriptResult result =
        runner.run(core::make_buchholz_script(config), core::buchholz_phase_names(config));
    point.buchholz_ms = result.phase_us.back() / 1000.0;
  }
  return point;
}

}  // namespace

exp::Experiment make_baseline_bench() {
  using exp::Verdict;
  exp::Experiment experiment;
  experiment.id = "baseline_bench";
  experiment.artifact = "Sections 2.1, 5.3";
  experiment.title = "Andrew-style script and Buchholz synthetic job baselines";
  experiment.paper_claim = "related work the paper positions against: one number per system";
  experiment.expectations = {
      exp::expect_scalar_in_range("andrew_nfs_ms", 1000.0, 100000.0, Verdict::fail,
                                  "the scripted job takes simulated seconds, not noise"),
      exp::expect_scalar_in_range("andrew_nfs_over_wholefile", 1.05, 10.0, Verdict::fail,
                                  "whole-file caching keeps the script's data ops local"),
      exp::expect_scalar_in_range("buchholz_nfs_over_wholefile", 1.05, 10.0, Verdict::fail,
                                  "the update job also favours local data ops"),
  };

  experiment.run = [](const exp::RunContext&) {
    const std::vector<std::string> candidates = {"nfs", "local", "wholefile"};
    exp::ExperimentResult result;
    result.x_label = "file-system model (0 = nfs, 1 = local, 2 = wholefile)";
    result.y_label = "elapsed (ms)";
    std::vector<double> index, andrew, buchholz;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const BaselinePoint point = baseline_point(candidates[i]);
      index.push_back(static_cast<double>(i));
      andrew.push_back(point.andrew_total_ms);
      buchholz.push_back(point.buchholz_ms);
      result.set_scalar("andrew_" + candidates[i] + "_ms", point.andrew_total_ms);
      result.set_scalar("buchholz_" + candidates[i] + "_ms", point.buchholz_ms);
    }
    result.add_series("andrew total", index, andrew);
    result.add_series("buchholz update pass", index, buchholz);
    result.set_scalar("andrew_nfs_over_wholefile",
                      andrew[2] > 0.0 ? andrew[0] / andrew[2] : 0.0);
    result.set_scalar("buchholz_nfs_over_wholefile",
                      buchholz[2] > 0.0 ? buchholz[0] / buchholz[2] : 0.0);
    result.notes.push_back(
        "Contrast with table5_3: the script benchmarks produce one number per "
        "system, while the user-oriented generator sweeps populations and load "
        "levels from the same measured characterisation.");
    return result;
  };
  return experiment;
}

}  // namespace wlgen::bench
