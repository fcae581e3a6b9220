#include "fleet/scenario.hpp"

#include <cmath>

#include "util/env.hpp"
#include "util/error.hpp"

namespace ramp::fleet {

std::string_view policy_name(DrmPolicy p) {
  switch (p) {
    case DrmPolicy::kNone: return "none";
    case DrmPolicy::kDvfs: return "dvfs";
    case DrmPolicy::kMigration: return "migration";
  }
  throw InvalidArgument("unknown DrmPolicy");
}

DrmPolicy parse_policy(const std::string& name) {
  if (name == "none") return DrmPolicy::kNone;
  if (name == "dvfs") return DrmPolicy::kDvfs;
  if (name == "migration") return DrmPolicy::kMigration;
  throw InvalidArgument("unknown DRM policy '" + name +
                        "' (expected none, dvfs, or migration)");
}

std::string_view kind_name(ScenarioKind k) {
  switch (k) {
    case ScenarioKind::kBaseline: return "baseline";
    case ScenarioKind::kAttack: return "attack";
    case ScenarioKind::kMonitor: return "monitor";
  }
  throw InvalidArgument("unknown ScenarioKind");
}

void FleetScenario::validate() const {
  RAMP_REQUIRE(chips >= 1, "fleet needs at least one chip");
  RAMP_REQUIRE(std::isfinite(horizon_years) && horizon_years > 0.0,
               "horizon must be positive and finite");
  RAMP_REQUIRE(std::isfinite(phase_years) && phase_years > 0.0,
               "phase length must be positive and finite");
  RAMP_REQUIRE(std::isfinite(curve_bin_years) && curve_bin_years > 0.0,
               "curve bin must be positive and finite");
  RAMP_REQUIRE(ladder_points >= 1, "ladder needs at least one point");
  RAMP_REQUIRE(variation.mechanism_sigma >= 0.0 &&
                   variation.leakage_sigma >= 0.0,
               "variation sigmas must be non-negative");
  RAMP_REQUIRE(infant.fraction >= 0.0 && infant.fraction <= 1.0,
               "infant fraction must lie in [0, 1]");
  RAMP_REQUIRE(infant.beta > 0.0 && infant.eta_years > 0.0,
               "infant Weibull parameters must be positive");
  RAMP_REQUIRE(attack.targeted_fraction >= 0.0 &&
                   attack.targeted_fraction <= 1.0,
               "attack fraction must lie in [0, 1]");
  RAMP_REQUIRE(attack.occupancy >= 0.0 && attack.occupancy <= 1.0,
               "attack occupancy must lie in [0, 1]");
  RAMP_REQUIRE(monitor.threshold > 0.0, "monitor threshold must be positive");
  for (const double shape : lifetime.shape) {
    RAMP_REQUIRE(std::isfinite(shape) && shape > 0.0,
                 "lifetime shapes must be positive and finite");
  }
  (void)spares.total();  // validates non-negative counts
}

FleetScenario FleetScenario::preset(const std::string& name) {
  FleetScenario sc;
  sc.name = name;
  if (name == "baseline") {
    sc.kind = ScenarioKind::kBaseline;
    return sc;
  }
  if (name == "attack") {
    sc.kind = ScenarioKind::kAttack;
    return sc;
  }
  if (name == "monitor") {
    sc.kind = ScenarioKind::kMonitor;
    // Monitor-driven reconfiguration needs something to reconfigure onto:
    // one cold spare per structure and a ladder to throttle down.
    sc.spares = core::SparePlan::uniform(1);
    return sc;
  }
  throw InvalidArgument("unknown fleet scenario '" + name +
                        "' (expected baseline, attack, or monitor)");
}

namespace {

// RAMP_FLEET_* double override with a positivity requirement.
void apply_positive(const char* var, double* field) {
  if (const auto v = env_double(var)) {
    RAMP_REQUIRE(*v > 0.0, std::string(var) + " must be positive");
    *field = *v;
  }
}

}  // namespace

FleetScenario FleetScenario::from_env(const std::string& scenario_override,
                                      std::uint64_t trace_len) {
  std::string preset_name = scenario_override;
  if (preset_name.empty()) {
    preset_name = env_string("RAMP_FLEET_SCENARIO").value_or("baseline");
  }
  FleetScenario sc = preset(preset_name);

  sc.chips = env_u64("RAMP_FLEET_CHIPS", sc.chips);
  RAMP_REQUIRE(sc.chips >= 1, "RAMP_FLEET_CHIPS must be at least 1");
  sc.seed = env_u64("RAMP_FLEET_SEED", sc.seed);
  apply_positive("RAMP_FLEET_YEARS", &sc.horizon_years);
  apply_positive("RAMP_FLEET_PHASE_YEARS", &sc.phase_years);
  apply_positive("RAMP_FLEET_BIN_YEARS", &sc.curve_bin_years);
  const std::uint64_t ladder = env_u64(
      "RAMP_FLEET_LADDER", static_cast<std::uint64_t>(sc.ladder_points));
  RAMP_REQUIRE(ladder >= 1 && ladder <= 16,
               "RAMP_FLEET_LADDER must lie in [1, 16]");
  sc.ladder_points = static_cast<int>(ladder);
  if (const auto policy = env_string("RAMP_FLEET_POLICY")) {
    sc.policy = parse_policy(*policy);
  }
  if (const auto node = env_string("RAMP_FLEET_NODE")) {
    sc.tech = scaling::parse_tech(*node);
  }

  sc.cell = pipeline::EvaluationConfig::from_env(trace_len);
  sc.validate();
  return sc;
}

}  // namespace ramp::fleet
