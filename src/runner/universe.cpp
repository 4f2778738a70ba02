#include "runner/universe.h"

#include <utility>

namespace wlgen::runner {

Universe::Universe(sim::Simulation& sim, const ModelFactory& model_factory,
                   const std::vector<core::FileCategoryProfile>& profiles,
                   core::FscConfig fsc, const core::Population& population,
                   core::UsimConfig usim, const traffic::FaultPlan& faults) {
  fsys_.set_clock([&sim] { return sim.now(); });
  model_ = model_factory(sim);
  if (faults.any()) traffic::install_faults(sim, *model_, faults);

  fsc.num_users = usim.num_users;
  fsc.first_user = usim.first_user;
  fsc.seed = usim.seed;
  manifest_ = core::FileSystemCreator(fsys_, profiles, fsc).create();

  usim.churn = faults.churns;
  usim_.emplace(sim, fsys_, *model_, manifest_, population, std::move(usim));
}

}  // namespace wlgen::runner
