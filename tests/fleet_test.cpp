// Tests for the fleet-scale scenario engine: scenario presets and strict
// RAMP_FLEET_* parsing, curve accounting, seed determinism, the
// closed-form cross-check against core::LifetimeMonteCarlo, stage-store
// amortization (a 10k-chip fleet costs <= 16 sim-stage computes), and the
// directional effects of DRM policies, attacks, and monitor reconfiguration.
#include "fleet/fleet_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "core/lifetime_mc.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace ramp::fleet {
namespace {

class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

// Small, fast scenario: short traces, few chips. Results stay deterministic
// regardless of size, so every structural property can be checked cheaply.
FleetScenario quick_scenario(std::uint64_t chips = 2000) {
  FleetScenario sc = FleetScenario::preset("baseline");
  sc.chips = chips;
  sc.cell.trace_instructions = 2000;
  return sc;
}

std::uint64_t count(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.counter(name).value();
}

TEST(FleetScenarioTest, PresetsAndValidation) {
  EXPECT_EQ(FleetScenario::preset("baseline").kind, ScenarioKind::kBaseline);
  EXPECT_EQ(FleetScenario::preset("attack").kind, ScenarioKind::kAttack);
  const FleetScenario monitor = FleetScenario::preset("monitor");
  EXPECT_EQ(monitor.kind, ScenarioKind::kMonitor);
  EXPECT_GT(monitor.spares.total(), 0);
  EXPECT_THROW(FleetScenario::preset("warp-core"), InvalidArgument);

  FleetScenario bad = FleetScenario::preset("baseline");
  bad.chips = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = FleetScenario::preset("baseline");
  bad.horizon_years = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = FleetScenario::preset("baseline");
  bad.infant.fraction = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  // A Weibull beta or lognormal sigma that is not positive and finite
  // defines no threshold distribution.
  for (const double shape : {0.0, -2.0, std::nan("")}) {
    bad = FleetScenario::preset("baseline");
    bad.lifetime.shape[2] = shape;
    EXPECT_THROW(bad.validate(), InvalidArgument) << shape;
  }
}

TEST(FleetScenarioTest, PolicyNamesRoundTrip) {
  for (const auto p :
       {DrmPolicy::kNone, DrmPolicy::kDvfs, DrmPolicy::kMigration}) {
    EXPECT_EQ(parse_policy(std::string(policy_name(p))), p);
  }
  EXPECT_THROW(parse_policy("turbo"), InvalidArgument);
}

TEST(FleetScenarioTest, FromEnvAppliesOverrides) {
  ScopedEnv scenario("RAMP_FLEET_SCENARIO", "attack");
  ScopedEnv chips("RAMP_FLEET_CHIPS", "123");
  ScopedEnv seed("RAMP_FLEET_SEED", "7");
  ScopedEnv years("RAMP_FLEET_YEARS", "12.5");
  ScopedEnv policy("RAMP_FLEET_POLICY", "dvfs");
  ScopedEnv ladder("RAMP_FLEET_LADDER", "5");
  ScopedEnv node("RAMP_FLEET_NODE", "65-1.0");
  const FleetScenario sc = FleetScenario::from_env();
  EXPECT_EQ(sc.kind, ScenarioKind::kAttack);
  EXPECT_EQ(sc.chips, 123u);
  EXPECT_EQ(sc.seed, 7u);
  EXPECT_DOUBLE_EQ(sc.horizon_years, 12.5);
  EXPECT_EQ(sc.policy, DrmPolicy::kDvfs);
  EXPECT_EQ(sc.ladder_points, 5);
  EXPECT_EQ(sc.tech, scaling::TechPoint::k65nm_1V0);
}

// A misspelled override must throw, never silently fall back to a default.
TEST(FleetScenarioTest, FromEnvRejectsGarbage) {
  {
    ScopedEnv e("RAMP_FLEET_CHIPS", "ten");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_CHIPS", "0");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_SEED", "-3");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_YEARS", "soon");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_YEARS", "0");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_PHASE_YEARS", "-0.5");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_BIN_YEARS", "1.0x");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_LADDER", "0");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_LADDER", "17");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_POLICY", "turbo");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_SCENARIO", "warp-core");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
  {
    ScopedEnv e("RAMP_FLEET_NODE", "7nm");
    EXPECT_THROW(FleetScenario::from_env(), InvalidArgument);
  }
}

TEST(FleetSimulatorTest, CurveAccountingIsConsistent) {
  const FleetSimulator sim(quick_scenario());
  const FleetResult r = sim.run();

  ASSERT_EQ(r.curve.size(), 30u);
  std::uint64_t failures = 0;
  std::uint64_t prev_survivors = r.summary.chips;
  for (const auto& pt : r.curve) {
    std::uint64_t by_cause = 0;
    for (const auto n : pt.by_cause) by_cause += n;
    EXPECT_EQ(by_cause, pt.failures);
    EXPECT_EQ(pt.survivors, prev_survivors - pt.failures);
    prev_survivors = pt.survivors;
    failures += pt.failures;
    EXPECT_NEAR(pt.survival,
                static_cast<double>(pt.survivors) /
                    static_cast<double>(r.summary.chips),
                1e-12);
  }
  EXPECT_EQ(failures, r.summary.failed);
  EXPECT_DOUBLE_EQ(r.summary.survival_at_horizon, r.curve.back().survival);

  std::uint64_t cause_total = 0;
  for (const auto n : r.summary.failures_by_cause) cause_total += n;
  EXPECT_EQ(cause_total, r.summary.failed);
  EXPECT_GT(r.summary.failed, 0u);
  // Baseline never throttles, migrates, or reconfigures.
  EXPECT_EQ(r.summary.throttle_switches, 0u);
  EXPECT_EQ(r.summary.migrations, 0u);
  EXPECT_EQ(r.summary.monitor_reconfigs, 0u);
  EXPECT_DOUBLE_EQ(r.summary.avg_relative_performance, 1.0);
}

TEST(FleetSimulatorTest, SameSeedSameBytesDifferentSeedDiffers) {
  const FleetScenario sc = quick_scenario(1000);
  const std::string a = fleet_curve_csv(FleetSimulator(sc).run());
  const std::string b = fleet_curve_csv(FleetSimulator(sc).run());
  EXPECT_EQ(a, b);

  FleetScenario other = sc;
  other.seed = 43;
  EXPECT_NE(a, fleet_curve_csv(FleetSimulator(other).run()));
}

// Degenerate scenario with every stochastic knob off and exponential
// thresholds: each chip is the paper's SOFR processor, so the fleet's
// empirical survival must match both the analytic series-system value and
// core::LifetimeMonteCarlo's survival() for the same qualified summary.
TEST(FleetSimulatorTest, ExponentialFleetMatchesClosedForm) {
  FleetScenario sc = quick_scenario(8000);
  sc.apps = {"gcc"};
  sc.variation.mechanism_sigma = 0.0;
  sc.variation.leakage_sigma = 0.0;
  sc.infant.fraction = 0.0;
  sc.lifetime.family = core::LifetimeFamily::kExponential;

  const FleetSimulator sim(sc);
  const FleetResult r = sim.run();

  // Qualification over the single-app pool makes the chip exactly 4000 FIT.
  const double total_fit = sim.cells()[0][0].total_fit;
  EXPECT_NEAR(total_fit, 4000.0, 1e-6);

  const double expected = std::exp(-total_fit * sc.horizon_years *
                                   kHoursPerYear / kFitHours);
  EXPECT_NEAR(r.summary.survival_at_horizon, expected, 0.02);

  const core::LifetimeMonteCarlo mc(sim.cells()[0][0].fits, sc.lifetime);
  EXPECT_NEAR(r.summary.survival_at_horizon, mc.survival(sc.horizon_years),
              0.02);
}

// The whole amortization argument: a 10k-chip fleet shares the per-(app,
// rung) physics through the stage store, so it costs at most one sim-stage
// compute per workload — and a second fleet against a warm store costs none.
TEST(FleetSimulatorTest, TenThousandChipsCostSixteenSimStages) {
  obs::MetricsRegistry reg;
  pipeline::StageStore::Options sopts;
  sopts.registry = &reg;
  const auto store = std::make_shared<pipeline::StageStore>(std::move(sopts));

  FleetScenario sc = quick_scenario(10000);
  FleetSimulator::Options opts;
  opts.stage_store = store;
  opts.registry = &reg;
  opts.jobs = 2;

  const FleetResult r = FleetSimulator(sc, opts).run();
  EXPECT_EQ(r.summary.chips, 10000u);
  const std::uint64_t misses = count(reg, "ramp_stage_sim_misses_total");
  EXPECT_LE(misses, 16u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(count(reg, "ramp_fleet_chips_total"), 10000u);

  // Warm store: the second fleet re-runs zero sim stages (the cached final
  // fit stage short-circuits the whole per-cell pipeline).
  FleetSimulator(sc, opts).run();
  EXPECT_EQ(count(reg, "ramp_stage_sim_misses_total"), misses);
  EXPECT_GT(count(reg, "ramp_stage_fit_hits_total"), 0u);
}

// A DVFS policy with a tight budget throttles (performance cost) and
// extends survival relative to no response, on the identical chip
// population (common random numbers).
TEST(FleetPolicyTest, DvfsThrottlingTradesPerformanceForSurvival) {
  FleetScenario none = quick_scenario(3000);
  none.drm.fit_budget = 2000.0;
  FleetScenario dvfs = none;
  dvfs.policy = DrmPolicy::kDvfs;

  const FleetResult r_none = FleetSimulator(none).run();
  const FleetResult r_dvfs = FleetSimulator(dvfs).run();
  EXPECT_GT(r_dvfs.summary.throttle_switches, 0u);
  EXPECT_LT(r_dvfs.summary.avg_relative_performance, 1.0);
  EXPECT_LT(r_dvfs.summary.failed, r_none.summary.failed);
}

TEST(FleetPolicyTest, MigrationCoolsOverBudgetChips) {
  FleetScenario mig = quick_scenario(3000);
  mig.policy = DrmPolicy::kMigration;
  mig.drm.fit_budget = 2000.0;  // most apps run over budget: migrate often
  const FleetResult r = FleetSimulator(mig).run();
  EXPECT_GT(r.summary.migrations, 0u);

  FleetScenario none = mig;
  none.policy = DrmPolicy::kNone;
  EXPECT_LT(r.summary.failed, FleetSimulator(none).run().summary.failed);
}

TEST(FleetPolicyTest, TargetedAttackAcceleratesWearout) {
  FleetScenario attack = FleetScenario::preset("attack");
  attack.chips = 3000;
  attack.cell.trace_instructions = 2000;
  attack.attack.targeted_fraction = 1.0;
  attack.attack.occupancy = 1.0;

  FleetScenario baseline = attack;
  baseline.kind = ScenarioKind::kBaseline;

  const FleetResult r_attack = FleetSimulator(attack).run();
  const FleetResult r_base = FleetSimulator(baseline).run();
  EXPECT_GT(r_attack.summary.failed, r_base.summary.failed);
}

TEST(FleetPolicyTest, MonitorReconfigurationExtendsLifetime) {
  FleetScenario monitor = FleetScenario::preset("monitor");
  monitor.chips = 3000;
  monitor.cell.trace_instructions = 2000;

  const FleetResult r = FleetSimulator(monitor).run();
  EXPECT_GT(r.summary.monitor_reconfigs, 0u);
  EXPECT_GT(r.summary.spare_activations, 0u);

  FleetScenario inert = monitor;
  inert.kind = ScenarioKind::kBaseline;
  inert.spares = core::SparePlan{};
  EXPECT_LT(r.summary.failed, FleetSimulator(inert).run().summary.failed);
}

TEST(FleetExportTest, CsvAndNdjsonCarryTheCurve) {
  const FleetSimulator sim(quick_scenario(500));
  const FleetResult r = sim.run();
  const std::string csv = fleet_curve_csv(r);
  EXPECT_EQ(csv.rfind("# ramp_fleet v1\n", 0), 0u);
  EXPECT_NE(csv.find("t_end_years,failures,survivors,survival"),
            std::string::npos);
  // Header comments + column row + one line per bin.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3 + 30);

  const std::string nd = fleet_ndjson(r);
  EXPECT_EQ(nd.rfind("{\"type\":\"summary\"", 0), 0u);
  EXPECT_EQ(std::count(nd.begin(), nd.end(), '\n'), 1 + 30);

  const std::string ab = fleet_ab_csv(r, r);
  EXPECT_EQ(ab.rfind("# ramp_fleet_ab v1\n", 0), 0u);
  EXPECT_NE(ab.find(",0,"), std::string::npos);  // zero deltas vs itself
}

TEST(FleetExportTest, AbRequiresMatchingBins) {
  const FleetResult a = FleetSimulator(quick_scenario(200)).run();
  FleetScenario sc = quick_scenario(200);
  sc.horizon_years = 10.0;
  const FleetResult b = FleetSimulator(sc).run();
  EXPECT_THROW(fleet_ab_csv(a, b), InvalidArgument);
}

}  // namespace
}  // namespace ramp::fleet
