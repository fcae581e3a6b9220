// Bit-exact golden for the fleet's per-chip kernel.
//
// Each variant below runs ~8k chips on 2k-instruction physics cells and
// reduces to one digest over its curve CSV and its NDJSON summary, so any
// change to what a chip draws, accrues, senses or decides shows up here:
// the threshold families (Weibull, exponential, lognormal), every DRM
// policy, the attack and monitor kinds (with cold spares), an unquantized
// sensor (every reading distinct), and the DVFS path the fleet benchmark
// times (65 nm, 1.0 V). Every variant runs inline and on a 4-worker pool
// with small blocks; both must match the committed digest.
//
// The kernel is meant to be exactly reproducible, so these digests change
// only with an intended change to the fleet model. To re-bless after one,
// replace the mismatching digest with the `actual` value the failure
// prints and say why in the change's notes.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
#include "util/hashing.hpp"

namespace ramp::fleet {
namespace {

struct GoldenVariant {
  const char* name;
  const char* digest;  ///< Fnv64 over fleet_curve_csv + fleet_ndjson
};

void PrintTo(const GoldenVariant& v, std::ostream* os) { *os << v.name; }

FleetScenario scenario_for(const std::string& name) {
  const bool preset = name == "attack" || name == "monitor";
  FleetScenario sc = FleetScenario::preset(preset ? name : "baseline");
  sc.chips = 8192;
  sc.cell.trace_instructions = 2000;
  if (name == "dvfs" || name == "migration") {
    sc.policy = name == "migration" ? DrmPolicy::kMigration : DrmPolicy::kDvfs;
    sc.drm.fit_budget = 2000.0;  // most apps run over budget: the policy acts
  }
  if (name == "dvfs_65nm" || name == "sensor_unquantized") {
    // Near the budget, where a reading's last half kelvin can flip a step.
    sc.policy = DrmPolicy::kDvfs;
    sc.tech = scaling::TechPoint::k65nm_1V0;
  }
  if (name == "sensor_unquantized") sc.sensor.quantum_k = 0.0;
  if (name == "exponential") {
    sc.lifetime.family = core::LifetimeFamily::kExponential;
  }
  if (name == "lognormal") {
    sc.lifetime.family = core::LifetimeFamily::kLognormal;
    sc.lifetime.shape = {1.0, 1.0, 0.8, 1.0};
  }
  return sc;
}

// One memory-only store for every variant: the physics cells are computed
// once per (app, node) and the runs differ only in their chips.
const std::shared_ptr<pipeline::StageStore>& shared_store() {
  static const auto store = std::make_shared<pipeline::StageStore>();
  return store;
}

std::string digest(const FleetResult& r) {
  Fnv64 h;
  h.mix(fleet_curve_csv(r));
  h.mix(fleet_ndjson(r));
  return h.hex();
}

class FleetGoldenTest : public ::testing::TestWithParam<GoldenVariant> {};

TEST_P(FleetGoldenTest, DigestMatchesAtOneAndFourJobs) {
  const GoldenVariant& v = GetParam();
  const FleetScenario sc = scenario_for(v.name);
  for (const std::size_t jobs : {1u, 4u}) {
    obs::MetricsRegistry reg;
    FleetSimulator::Options opts;
    opts.jobs = jobs;
    opts.block_size = 1024;
    opts.stage_store = shared_store();
    opts.registry = &reg;
    const FleetResult r = FleetSimulator(sc, opts).run();
    EXPECT_EQ(digest(r), v.digest) << v.name << " at jobs " << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, FleetGoldenTest,
    ::testing::Values(GoldenVariant{"baseline", "8be8b3cbe37f3595"},
                      GoldenVariant{"dvfs", "f37a0b28fbbc9657"},
                      GoldenVariant{"migration", "990cf90413fd2be0"},
                      GoldenVariant{"attack", "ce61d4399139b11f"},
                      GoldenVariant{"monitor", "25ed3f518eb6cf78"},
                      GoldenVariant{"exponential", "1a769f9ca49d2da0"},
                      GoldenVariant{"lognormal", "035d0d9391d49d40"},
                      GoldenVariant{"sensor_unquantized", "6bb58628876a48f3"},
                      GoldenVariant{"dvfs_65nm", "c232a4bce17dcda0"}),
    [](const ::testing::TestParamInfo<GoldenVariant>& p) {
      return std::string(p.param.name);
    });

}  // namespace
}  // namespace ramp::fleet
