// Declarative fleet scenarios: what population to simulate, and how.
//
// A FleetScenario is the complete, serializable description of one
// population study: how many chips, over how many years, at which technology
// point, under which dynamic-reliability-management policy, with what
// process variation, structural redundancy, sensing, and threat model. The
// simulator (fleet_simulator.hpp) turns one scenario into survival and
// failure-rate curves; the `ramp fleet` CLI builds scenarios from presets,
// RAMP_FLEET_* environment overrides, and flags.
//
// Three presets cover the ROADMAP's required studies:
//   baseline — the shipped fleet as qualified: uniform workload draws,
//              process variation on, no DRM response.
//   attack   — targeted wearout (Mashburn et al. 2025): an adversary pins
//              the most wear-intensive workload onto a slice of the fleet
//              for most of its duty cycle.
//   monitor  — aging-monitor-driven reconfiguration (Juracy et al. survey):
//              chips carry spares and an on-die consumed-life monitor;
//              crossing the monitor threshold triggers a one-time
//              reconfiguration (switch to cold spares, deep DVFS throttle).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lifetime_mc.hpp"
#include "core/redundancy.hpp"
#include "drm/drm_controller.hpp"
#include "drm/thermal_sensor.hpp"
#include "pipeline/evaluator.hpp"
#include "scaling/technology.hpp"

namespace ramp::fleet {

/// Per-chip dynamic reliability management policy.
enum class DrmPolicy {
  kNone,       ///< qualify-and-ship: no runtime response
  kDvfs,       ///< drm::DrmController steps a DVFS ladder on sensed wear
  kMigration,  ///< scheduler migrates the job off chips sensing over-budget
};
std::string_view policy_name(DrmPolicy p);
/// Inverse of policy_name; throws InvalidArgument for anything else.
DrmPolicy parse_policy(const std::string& name);

/// The scenario archetype (threat/response model); presets set one each.
enum class ScenarioKind { kBaseline, kAttack, kMonitor };
std::string_view kind_name(ScenarioKind k);

/// Per-chip process variation, sampled once per chip from its own
/// counter-based RNG stream (see fleet_simulator.hpp "Determinism").
struct VariationConfig {
  /// Lognormal sigma of the per-chip, per-mechanism model-constant jitter
  /// (wafer-to-wafer spread of the proportionality constants).
  double mechanism_sigma = 0.08;
  /// Lognormal sigma of the per-chip leakage-power multiplier (Vth and
  /// channel-length spread; leaky chips run measurably hotter).
  double leakage_sigma = 0.25;
};

/// Latent-defect ("infant mortality") population: a small fraction of chips
/// carries a manufacturing defect whose lifetime is Weibull with shape < 1
/// (decreasing hazard), producing the bathtub curve's early-life edge.
struct InfantConfig {
  double fraction = 0.002;   ///< weak-population share of the fleet
  double beta = 0.45;        ///< Weibull shape (< 1: burn-in regime)
  double eta_years = 0.8;    ///< characteristic life of the weak population
};

/// Targeted-wearout attack (ScenarioKind::kAttack).
struct AttackConfig {
  double targeted_fraction = 0.1;  ///< share of the fleet the attacker owns
  double occupancy = 0.9;          ///< fraction of phases running the attack app
  /// Workload the attacker pins; "" auto-selects the highest-FIT cell.
  std::string app;
};

/// Aging-monitor reconfiguration (ScenarioKind::kMonitor).
struct MonitorConfig {
  /// Consumed-life fraction (estimated damage / budgeted lifetime damage)
  /// that triggers the one-time reconfiguration.
  double threshold = 0.5;
};

struct FleetScenario {
  std::string name = "baseline";
  ScenarioKind kind = ScenarioKind::kBaseline;

  std::uint64_t chips = 10'000;
  double horizon_years = 30.0;
  /// Workload phase length: each chip redraws its job every phase.
  double phase_years = 0.5;
  /// Resolution of the survival / failure-rate curves.
  double curve_bin_years = 1.0;
  /// Master seed; every chip derives its streams from (seed, chip index).
  std::uint64_t seed = 42;

  scaling::TechPoint tech = scaling::TechPoint::k180nm;
  DrmPolicy policy = DrmPolicy::kNone;
  /// DVFS ladder depth for kDvfs / monitor reconfiguration (>= 1).
  int ladder_points = 3;

  /// Workload pool the schedule draws from (uniformly); empty = all 16.
  std::vector<std::string> apps;

  drm::DrmConfig drm{};             ///< budget/hysteresis for DVFS & migration
  drm::SensorConfig sensor{};       ///< per-chip thermal-sensor non-idealities
  /// Per-mechanism wear-out shapes (each positive and finite).
  core::LifetimeModelConfig lifetime{};
  core::SparePlan spares{};         ///< structural redundancy (default none)
  VariationConfig variation{};
  InfantConfig infant{};
  AttackConfig attack{};
  MonitorConfig monitor{};

  /// Physics-cell settings (trace length, seed, power, thermal, stage
  /// cache). The per-(app, node) cells are the only expensive computes and
  /// are shared by every chip through the stage store.
  pipeline::EvaluationConfig cell{};

  /// Throws InvalidArgument on any out-of-range field.
  void validate() const;

  /// Named preset ("baseline", "attack", "monitor"); throws on anything else.
  static FleetScenario preset(const std::string& name);

  /// Builds a scenario from the environment: starts from
  /// preset($RAMP_FLEET_SCENARIO, default "baseline" — `scenario_override`
  /// wins when non-empty), then applies the strict overrides
  ///   RAMP_FLEET_CHIPS        chip count (>= 1)
  ///   RAMP_FLEET_YEARS        horizon in years (finite, > 0)
  ///   RAMP_FLEET_SEED         master seed
  ///   RAMP_FLEET_POLICY       none | dvfs | migration
  ///   RAMP_FLEET_PHASE_YEARS  workload phase length (> 0)
  ///   RAMP_FLEET_BIN_YEARS    curve bin width (> 0)
  ///   RAMP_FLEET_LADDER       DVFS ladder depth (>= 1)
  ///   RAMP_FLEET_NODE         technology point (scaling::parse_tech names)
  /// Malformed values (non-numeric, signed, overflowing, zero where a
  /// positive value is required, or an unknown policy/scenario/node name)
  /// throw InvalidArgument — a misspelled override must never be silently
  /// replaced by a default. The physics cell is EvaluationConfig::from_env.
  static FleetScenario from_env(const std::string& scenario_override = "",
                                std::uint64_t trace_len = 200'000);
};

}  // namespace ramp::fleet
