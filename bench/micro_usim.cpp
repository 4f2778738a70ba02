// Microbenchmark (google-benchmark): end-to-end USIM throughput — simulated
// sessions and system calls per wall-clock second, the figure of merit for
// whether the generator itself is cheap enough to drive large studies.

#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "core/presets.h"
#include "core/usim.h"
#include "runner/universe.h"

namespace {

using namespace wlgen;

void BM_UsimSessions(benchmark::State& state) {
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  std::uint64_t ops = 0;
  std::uint64_t sessions = 0;
  for (auto _ : state) {
    sim::Simulation simulation;
    core::UsimConfig config;
    config.num_users = users;
    config.sessions_per_user = 5;
    config.collect_log = false;  // measure the simulator, not the log
    runner::Universe universe(simulation, runner::nfs_model_factory(),
                              core::di86_file_profiles(), {}, core::default_population(),
                              std::move(config), {});
    core::UserSimulator& usim = universe.usim();
    usim.run();
    ops += usim.total_ops();
    sessions += usim.sessions_completed();
  }
  state.counters["syscalls/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  state.counters["sessions/s"] =
      benchmark::Counter(static_cast<double>(sessions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UsimSessions)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

WLGEN_BENCHMARK_MAIN();
