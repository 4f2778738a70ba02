#pragma once

// Internal to src/sim: the element of Simulation's stage-chain pool, shared
// by simulation.cpp (which owns and reclaims the pool) and stages.cpp
// (which runs the chains).

#include "sim/simulation.h"
#include "sim/stages.h"

namespace wlgen::sim {

/// One in-flight chain, pooled by its Simulation and recycled when the
/// chain completes (or when Simulation::reset() discards it).  Stage
/// continuations capture only (state, stage index).
struct ChainState {
  Simulation* sim = nullptr;
  StageChain chain;
  ChainDone done;
  SimTime start = 0.0;
};

}  // namespace wlgen::sim
