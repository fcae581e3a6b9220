// Fleet-scale population simulator: millions of chips from ~16 physics runs.
//
// The paper qualifies ONE core per technology node; the questions a vendor
// actually faces are population questions — what fraction of shipped parts
// survives N years under real workloads, variation, and dynamic reliability
// management. FleetSimulator answers them by composing the existing layers:
//
//   pipeline::Evaluator (+ shared StageStore)  →  per-(app, node) physics
//   core::qualify                              →  absolute FIT calibration
//   drm::dvfs_ladder + core::RampModel         →  throttled operating points
//   drm::DrmController / ThermalSensor         →  per-chip DRM feedback loop
//   core::SparePlan                            →  structural redundancy
//   core::LifetimeModelConfig                  →  wear-out threshold shapes
//
// Cost model. The only expensive computes are the per-(app, rung) cells:
// 16 apps × 1 rung for the baseline scenario, evaluated once through the
// content-addressed stage store and shared by EVERY chip — a 10k- or
// 1M-chip fleet costs the same ~16 sim-stage misses (asserted in tests).
// A scaled-node scenario adds each app's 180 nm base run. prepare() runs
// them on the sweep's cell schedule (pipeline::evaluate_cells) on the
// simulator's pool.
// Throttled rungs are derived analytically from the rung-0 cell with
// core::RampModel physics (mechanism-wise FIT ratios at the throttled
// voltage/temperature), so DVFS scenarios add no sim runs either.
// Everything per-chip is O(phases × structures × mechanisms) arithmetic.
//
// Per-chip lifetime model. Each (structure, mechanism) instance accumulates
// damage C(t) = ∫ FIT(τ) dτ (units: expected failures) under its chip's
// piecewise-constant stress trajectory, and fails when C crosses a
// unit-mean threshold drawn from the scenario's lifetime family (Weibull
// shape β reproduces wear-out; exponential reproduces SOFR exactly — for
// constant stress this is precisely the core::LifetimeMonteCarlo /
// RedundantLifetimeMonteCarlo model, which the tests cross-validate).
// Cold spares restart damage at zero with fresh thresholds; the package TC
// instance is not sparable; an optional latent-defect population (Weibull
// β < 1) supplies the bathtub curve's early-life edge.
//
// Determinism. Every stochastic choice of chip k draws from substreams of
// stream_seed(scenario.seed, k) (util::SplitMix64 counter splitting):
// nothing depends on scheduling, sharding, or job count. Chips are
// processed in fixed-size blocks on the ThreadPool and block results are
// merged in block order, so `--jobs 1` and `--jobs N` produce byte-identical
// output, and an A/B policy comparison at one seed sees identical chips
// (common random numbers — the policy delta is pure signal).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fit_tracker.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ramp::pipeline {
class StageStore;
}

namespace ramp::fleet {

/// Why a chip died. Wear-out causes mirror core::Mechanism; kInfant is the
/// latent-defect population.
enum class FailureCause : int { kInfant = 0, kEm, kSm, kTddb, kTc };
inline constexpr int kNumFailureCauses = 5;
std::string_view cause_name(FailureCause c);

/// One derived operating point of one workload: the qualified FIT summary a
/// chip consumes while running `app` at ladder rung r, plus the quantities
/// the per-chip loop needs (exposed for tests and benches).
struct CellPoint {
  core::FitSummary fits;      ///< qualified absolute FITs at this rung
  double total_fit = 0.0;     ///< fits.total()
  double junction_k = 0.0;    ///< hottest-structure temperature (sensor input)
  double die_temp_k = 0.0;    ///< area-weighted average die temperature
  /// d ln FIT / dT per mechanism at this rung's conditions (1/K): converts a
  /// per-chip temperature offset into per-mechanism FIT multipliers.
  std::array<double, core::kNumMechanisms> temp_sens{};
  double relative_performance = 1.0;
};

/// One bin of the fleet failure curves. Bins are [t_end - bin, t_end).
struct FleetCurvePoint {
  double t_end_years = 0.0;
  std::uint64_t failures = 0;       ///< chips failing inside the bin
  std::uint64_t survivors = 0;      ///< alive at t_end
  double survival = 1.0;            ///< survivors / chips
  /// Empirical hazard: failures / (survivors at bin start × bin years).
  double hazard_per_year = 0.0;
  std::array<std::uint64_t, kNumFailureCauses> by_cause{};
};

struct FleetSummary {
  std::uint64_t chips = 0;
  std::uint64_t failed = 0;
  double survival_at_horizon = 1.0;
  double mean_failure_age_years = 0.0;  ///< over failed chips (0 when none)
  std::array<std::uint64_t, kNumFailureCauses> failures_by_cause{};
  /// Wear-out failures attributed to the exhausted structure (package TC
  /// and infant failures are not structure-attributable).
  std::array<std::uint64_t, sim::kNumStructures> failures_by_structure{};
  /// Fleet-average relative performance delivered while alive (1.0 = never
  /// throttled) — the cost side of a DRM policy.
  double avg_relative_performance = 1.0;
  std::uint64_t throttle_switches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t spare_activations = 0;
  std::uint64_t monitor_reconfigs = 0;
};

struct FleetResult {
  FleetScenario scenario;
  std::vector<FleetCurvePoint> curve;
  FleetSummary summary;
};

class FleetSimulator {
 public:
  struct Options {
    /// Size of the one pool the simulator owns when not passing `pool`;
    /// prepare() and every run() share it. 1 runs everything inline.
    std::size_t jobs = 1;
    ThreadPool* pool = nullptr;  ///< externally owned pool (overrides jobs)
    /// Shared per-stage memoization store for the physics cells; null = a
    /// private store persisting under scenario.cell.stage_cache_dir
    /// (memory-only when empty).
    std::shared_ptr<pipeline::StageStore> stage_store;
    /// Metrics destination; nullptr → obs::MetricsRegistry::global().
    obs::MetricsRegistry* registry = nullptr;
    /// Chips per pool task; fixed independent of `jobs` so per-block
    /// metrics are stable. Output never depends on it.
    std::uint64_t block_size = 4096;
  };

  explicit FleetSimulator(FleetScenario scenario);
  FleetSimulator(FleetScenario scenario, Options opts);

  /// Runs the scenario. Deterministic: byte-identical curves for one
  /// (scenario, seed) at any job count.
  FleetResult run() const;

  const FleetScenario& scenario() const { return scenario_; }

  /// The per-app ladder of derived operating points, app-major
  /// ([app][rung], apps in scenario order). Computed on first run();
  /// exposed for tests/benches via prepare().
  const std::vector<std::vector<CellPoint>>& cells() const { return cells_; }

  /// Evaluates the physics cells and derived rungs without simulating
  /// chips (idempotent; run() calls it).
  void prepare() const;

 private:
  struct BlockAccum;
  struct RunTables;
  void simulate_block(const RunTables& tables, std::uint64_t first,
                      std::uint64_t count, BlockAccum* acc) const;

  FleetScenario scenario_;
  Options opts_;
  /// The pool prepare() and every run() share: opts_.pool, else one owned
  /// pool when jobs > 1, else null (inline).
  std::unique_ptr<ThreadPool> own_pool_;
  ThreadPool* pool_ = nullptr;
  mutable std::vector<std::vector<CellPoint>> cells_;
  mutable std::vector<const workloads::Workload*> apps_;
  mutable std::size_t attack_app_ = 0;   ///< index into apps_
  mutable double chip_delta_t_per_leak_w_ = 0.0;
  mutable double nominal_leak_w_ = 0.0;
  mutable bool prepared_ = false;
};

// ---- deterministic exports -------------------------------------------------

/// Curve CSV ("# ramp_fleet v1" header + scenario echo comment; one row per
/// bin). 17-digit floats: byte-stable across jobs and reruns.
std::string fleet_curve_csv(const FleetResult& r);

/// Summary as one NDJSON object per line: a "summary" line, then one
/// "bin" line per curve point.
std::string fleet_ndjson(const FleetResult& r);

/// Policy A/B comparison of two runs of the SAME scenario/seed with
/// different policies: per-bin survival/hazard for both plus deltas.
std::string fleet_ab_csv(const FleetResult& a, const FleetResult& b);

}  // namespace ramp::fleet
