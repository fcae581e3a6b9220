// Determinism of the fleet engine under parallel execution (run under TSan
// via the `concurrency` ctest label): `--jobs 1` and `--jobs N` must produce
// byte-identical curves, whether the simulator owns its pool or shares an
// external one, because every chip draws from counter-based substreams of
// (seed, chip index) and block results merge in block order.
#include <gtest/gtest.h>

#include <string>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "util/thread_pool.hpp"

namespace ramp::fleet {
namespace {

FleetScenario small_scenario() {
  FleetScenario sc = FleetScenario::preset("baseline");
  sc.chips = 3000;
  sc.cell.trace_instructions = 2000;
  return sc;
}

std::string run_with_jobs(const FleetScenario& sc, std::size_t jobs,
                          std::uint64_t block_size) {
  FleetSimulator::Options opts;
  opts.jobs = jobs;
  opts.block_size = block_size;
  return fleet_curve_csv(FleetSimulator(sc, opts).run());
}

TEST(FleetConcurrencyTest, JobCountNeverChangesTheBytes) {
  const FleetScenario sc = small_scenario();
  const std::string serial = run_with_jobs(sc, 1, 256);
  EXPECT_EQ(serial, run_with_jobs(sc, 4, 256));
  EXPECT_EQ(serial, run_with_jobs(sc, 8, 256));
}

TEST(FleetConcurrencyTest, BlockSizeNeverChangesTheBytes) {
  const FleetScenario sc = small_scenario();
  EXPECT_EQ(run_with_jobs(sc, 4, 64), run_with_jobs(sc, 4, 1024));
}

TEST(FleetConcurrencyTest, SharedExternalPoolMatchesOwnPool) {
  const FleetScenario sc = small_scenario();
  ThreadPool pool(4);
  FleetSimulator::Options opts;
  opts.pool = &pool;
  const std::string shared = fleet_curve_csv(FleetSimulator(sc, opts).run());
  EXPECT_EQ(shared, run_with_jobs(sc, 4, 4096));
  // The same simulator object re-run on the same pool is stable too.
  const FleetSimulator sim(sc, opts);
  EXPECT_EQ(fleet_curve_csv(sim.run()), fleet_curve_csv(sim.run()));
}

TEST(FleetConcurrencyTest, PolicyScenariosAreJobInvariant) {
  for (const char* name : {"attack", "monitor"}) {
    FleetScenario sc = FleetScenario::preset(name);
    sc.chips = 1500;
    sc.cell.trace_instructions = 2000;
    EXPECT_EQ(run_with_jobs(sc, 1, 256), run_with_jobs(sc, 4, 256))
        << "scenario " << name;
  }
  FleetScenario sc = small_scenario();
  sc.policy = DrmPolicy::kDvfs;
  sc.drm.fit_budget = 2000.0;
  EXPECT_EQ(run_with_jobs(sc, 1, 256), run_with_jobs(sc, 4, 256));
}

}  // namespace
}  // namespace ramp::fleet
