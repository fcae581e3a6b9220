// Determinism of the fleet engine under parallel execution (run under TSan
// via the `concurrency` ctest label): `--jobs 1` and `--jobs N` must produce
// byte-identical curves, whether the simulator owns its pool or shares an
// external one, because every chip draws from counter-based substreams of
// (seed, chip index) and block results merge in block order. prepare()
// runs its physics cells on the same pool and must be job-invariant too.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
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

// Every double of every prepared rung, in a fixed order, for bitwise
// comparison (EXPECT_EQ on doubles would let -0.0 match 0.0).
std::vector<double> cell_doubles(const FleetSimulator& sim) {
  std::vector<double> out;
  for (const auto& app : sim.cells()) {
    for (const CellPoint& cp : app) {
      for (const auto& row : cp.fits.by_structure) {
        out.insert(out.end(), row.begin(), row.end());
      }
      out.insert(out.end(), {cp.fits.tc_fit, cp.total_fit, cp.junction_k,
                             cp.die_temp_k, cp.relative_performance});
      out.insert(out.end(), cp.temp_sens.begin(), cp.temp_sens.end());
    }
  }
  return out;
}

// prepare() runs its 180 nm and scaled cells on the pool; the prepared
// ladder and the curve built on it must not depend on the job count.
TEST(FleetConcurrencyTest, PrepareIsJobInvariantBitForBit) {
  FleetScenario sc = small_scenario();
  sc.tech = scaling::TechPoint::k65nm_1V0;
  sc.policy = DrmPolicy::kDvfs;
  FleetSimulator::Options serial;
  serial.jobs = 1;
  FleetSimulator::Options parallel;
  parallel.jobs = 4;
  const FleetSimulator a(sc, serial);
  const FleetSimulator b(sc, parallel);
  a.prepare();
  b.prepare();
  const std::vector<double> da = cell_doubles(a);
  const std::vector<double> db = cell_doubles(b);
  ASSERT_EQ(da.size(), db.size());
  ASSERT_FALSE(da.empty());
  EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)), 0);
  EXPECT_EQ(fleet_curve_csv(a.run()), fleet_curve_csv(b.run()));
}

// One sim per (app, frequency): a 16-app scaled-node prepare computes 16
// sims at 180 nm plus 16 at the node, a 180 nm prepare only the 16, and no
// cell ever waits on another's in-flight sim.
TEST(FleetConcurrencyTest, ParallelPrepareBooksOneSimPerAppAndNode) {
  for (const auto tech :
       {scaling::TechPoint::k65nm_1V0, scaling::TechPoint::k180nm}) {
    obs::MetricsRegistry reg(true);
    pipeline::StageStore::Options sopts;
    sopts.registry = &reg;
    FleetSimulator::Options opts;
    opts.jobs = 4;
    opts.registry = &reg;
    opts.stage_store = std::make_shared<pipeline::StageStore>(sopts);
    FleetScenario sc = small_scenario();
    sc.tech = tech;
    FleetSimulator(sc, opts).prepare();
    const bool scaled = tech != scaling::TechPoint::k180nm;
    EXPECT_EQ(reg.counter("ramp_stage_sim_misses_total").value(),
              scaled ? 32u : 16u);
    EXPECT_EQ(reg.counter("ramp_stage_sim_hits_total").value(), 0u);
    EXPECT_EQ(reg.counter("ramp_stage_sim_coalesced_total").value(), 0u);
  }
}

}  // namespace
}  // namespace ramp::fleet
