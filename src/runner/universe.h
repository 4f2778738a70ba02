#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/fsc.h"
#include "core/usim.h"
#include "core/workload.h"
#include "fs/filesystem.h"
#include "fsmodel/model.h"
#include "runner/model_factory.h"
#include "sim/simulation.h"
#include "traffic/faults.h"

namespace wlgen::runner {

/// One simulated machine, wired together the one way every run path builds
/// it (DESIGN.md "Sharded runner", "Universe builder"): a file system
/// clocked by `sim`, the performance model from `model_factory`, the fault
/// plan's events on the timeline, the FSC-built initial file system, and
/// the user simulator driving `population` against them, in that order.
/// The faults are posted before usim().run() schedules the first logins, so
/// a fault and a login at the same instant fire fault-first (equal
/// timestamps fire in posting order).
///
/// The FSC lays out exactly the users the USIM drives: its num_users,
/// first_user and seed are taken from `usim`, and the USIM's churn windows
/// from `faults`, so the two halves can never disagree.  A tuned or
/// parameterised model is just another factory.
///
/// `sim` must outlive the universe; call usim().run() to simulate.
class Universe {
 public:
  Universe(sim::Simulation& sim, const ModelFactory& model_factory,
           const std::vector<core::FileCategoryProfile>& profiles, core::FscConfig fsc,
           const core::Population& population, core::UsimConfig usim,
           const traffic::FaultPlan& faults);

  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  core::UserSimulator& usim() { return *usim_; }
  fsmodel::FileSystemModel& model() { return *model_; }

 private:
  fs::SimulatedFileSystem fsys_;
  std::unique_ptr<fsmodel::FileSystemModel> model_;
  core::CreatedFileSystem manifest_;
  std::optional<core::UserSimulator> usim_;
};

}  // namespace wlgen::runner
