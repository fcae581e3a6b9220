// End-to-end evaluation of one workload on one technology node:
// trace → timing simulation → power → thermal → RAMP.
//
// Implements the paper's methodology (§4):
//  1. Synthesize the workload's trace and run the Turandot-like timing
//     simulator to get per-interval activity factors (§4.1).
//  2. Convert activities to per-structure dynamic power; leakage follows
//     temperature (§4.2).
//  3. Two-run HotSpot methodology (§4.3): a steady-state solve from average
//     power pins the heat-sink temperature (with the leakage fixed point),
//     then a 1 µs-step transient rerun produces structure temperatures.
//     When scaling, the sink-to-ambient resistance is adjusted so each
//     application keeps its 180 nm heat-sink temperature.
//  4. RAMP computes instantaneous per-structure FIT values each interval
//     and keeps the running average (§4.4). Results here are *raw* (unit
//     proportionality constants); qualification rescales them (see sweep).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fit_tracker.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "scaling/technology.hpp"
#include "sim/interval_stats.hpp"
#include "sim/sim_mode.hpp"
#include "thermal/rc_model.hpp"
#include "util/blob_store.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::trace {
class PackedTrace;
}

namespace ramp::pipeline {

struct EvaluationConfig {
  std::uint64_t trace_instructions = 300'000;
  std::uint64_t seed = 42;             ///< base RNG seed (per-app offsets added)
  double interval_seconds = 1e-6;      ///< RAMP/HotSpot granularity (§4.3/4.4)
  power::PowerModelConfig power{};
  thermal::ThermalConfig thermal{};
  /// Flight recorder: when true, AppTechResult::timeline carries the bounded
  /// per-interval physics sketch and the watchdog checks every interval. It
  /// is the one per-interval record: with timeline_points at least the
  /// interval count the stride stays 1 and every interval is kept.
  /// Recording never changes results, so all timeline/watchdog fields are
  /// excluded from config_hash. Defaults keep the PR 3 invariant: disabled
  /// means zero extra clock reads and byte-identical sweep output.
  bool timeline_enabled = false;
  /// Timeline point budget per cell (stride-doubling ring; >= 2).
  std::uint64_t timeline_points = 512;
  /// Default export directory for `--timeline` (RAMP_TIMELINE=DIR); empty
  /// means "<out-dir>/timeline" at the CLI layer.
  std::string timeline_dir;
  /// Default `--trace-out` destination (RAMP_TRACE_OUT); empty = disabled.
  std::string trace_out;
  /// Anomaly rules the watchdog applies when the timeline is enabled.
  obs::WatchdogRules watchdog{};
  /// Persist directory of the content-addressed StageStore (see
  /// stage_graph.hpp) that a SweepRunner, EvalService or FleetSimulator
  /// creates when not handed one; empty = memory-only. The store is the
  /// only result cache and never changes results, so this is excluded from
  /// config_hash.
  std::string stage_cache_dir;
  /// Timing-simulation mode (see sim/sim_mode.hpp): detailed cycle-accurate
  /// OooCore (default), SMARTS-style sampled, or auto (resolved per run by
  /// resolved_sim_mode()). Sampled mode changes sim-stage results, so the
  /// *resolved* mode and its sampling parameters join config_hash / the sim
  /// stage key whenever it is not detailed — the detailed hash and `sim.v1`
  /// key stay frozen, keeping warm caches valid and default output
  /// byte-identical.
  sim::SimMode sim_mode = sim::SimMode::kDetailed;
  /// Sampling parameters for sampled mode (ignored by detailed).
  sim::SampledParams sampled{};

  /// The single place the environment overrides are read:
  ///   RAMP_TRACE_LEN     instructions per synthetic trace (default `trace_len`)
  ///   RAMP_SEED          base RNG seed (default 42)
  ///   RAMP_METRICS       strict on/off switch for the obs subsystem (read
  ///                      here only to be validated; obs reads it itself)
  ///   RAMP_TIMELINE      off (default) / on / a directory to export into
  ///   RAMP_TIMELINE_POINTS  per-cell point budget (default 512, >= 2)
  ///   RAMP_TRACE_OUT     default Chrome-trace output file
  ///   RAMP_WATCHDOG_TEMP_K  over-temperature trip point (Kelvin)
  ///   RAMP_STAGE_CACHE   stage_cache_dir: unset or on (<RAMP_OUT_DIR>/
  ///                      stage_cache), off (memory-only), or a directory
  ///   RAMP_SIM_MODE      detailed (default) / sampled / auto
  ///   RAMP_SIM_PERIOD    sampled: instructions per sampling period
  ///   RAMP_SIM_WARMUP    sampled: detailed warm-up instructions per unit
  ///   RAMP_SIM_MEASURE   sampled: instructions per measurement window
  ///   RAMP_SIM_WINDOWS   sampled: measurement windows per unit
  /// All other fields keep their defaults. Malformed values (non-numeric,
  /// signed, overflowing, a zero trace length, an unknown RAMP_SIM_MODE, or
  /// a RAMP_METRICS value that is not a recognised on/off spelling) throw
  /// InvalidArgument instead of being silently replaced by the default.
  static EvaluationConfig from_env(std::uint64_t trace_len = 300'000);
};

/// The stage store's persist directory for a front-end whose artifacts go
/// under `out_dir`: `flag` (a --stage-cache value, "" when bare) wins, then
/// RAMP_STAGE_CACHE, then `persist_by_default`. A bare flag, an on-spelling
/// or the default give <out_dir>/stage_cache, an off-spelling gives ""
/// (memory-only), and any other value is the directory itself.
std::string stage_cache_dir(const std::string& out_dir,
                            const std::optional<std::string>& flag,
                            bool persist_by_default);

/// The trace length from which the sampled estimator meets its ±2% IPC
/// tolerance contract: below it the regression sees too few measurement
/// units past the detailed prefix (see SampledParams).
inline constexpr std::uint64_t kSampledContractInstructions = 1'000'000;

/// The concrete mode `auto` resolves to for this config: detailed below
/// kSampledContractInstructions (where sampling neither pays off nor meets
/// its ±2% tolerance contract), sampled from there up. Non-auto modes resolve
/// to themselves. Resolution happens *before* hashing/keying, so an auto
/// config with a long trace caches under the sampled key.
sim::SimMode resolved_sim_mode(const EvaluationConfig& cfg);

/// Everything measured for one (application, technology) pair.
struct AppTechResult {
  std::string app;
  scaling::TechPoint tech = scaling::TechPoint::k180nm;

  // Performance.
  double ipc = 0.0;

  // Power (time-averaged over the transient run, Watts).
  double avg_dynamic_power_w = 0.0;
  double avg_leakage_power_w = 0.0;
  double avg_total_power_w = 0.0;

  // Temperatures (Kelvin).
  double max_structure_temp_k = 0.0;  ///< hottest structure, any interval
  double sink_temp_k = 0.0;           ///< steady-state heat-sink temperature
  double avg_die_temp_k = 0.0;        ///< area-weighted, time-averaged

  // Worst-case inputs.
  double max_activity = 0.0;

  /// Raw FIT summary (proportionality constants = 1). Scale with the
  /// qualification constants for absolute FIT.
  core::FitSummary raw_fits;

  sim::RunStats run;

  /// Flight-recorder sketch (empty unless EvaluationConfig::timeline_enabled).
  /// The final point's fit_avg equals raw_fits.by_mechanism() exactly.
  obs::CellTimeline timeline;
  /// Watchdog incidents tripped during this evaluation (timeline mode only).
  std::vector<obs::Incident> incidents;
};

/// Scales a raw summary by qualification constants (FIT is linear in them).
core::FitSummary scale_summary(const core::FitSummary& raw,
                               const core::MechanismConstants& k);

class StageStore;

class Evaluator {
 public:
  /// With a null `store` every evaluation computes (the uncached path);
  /// pass a shared store to reuse stage outputs across evaluators
  /// (SweepRunner, serve::EvalService and FleetSimulator do).
  explicit Evaluator(EvaluationConfig cfg,
                     std::shared_ptr<StageStore> store = nullptr);

  /// Evaluates `w` at `tech`. When `sink_target_k > 0`, the sink-to-ambient
  /// resistance is calibrated so the steady-state sink temperature equals
  /// the target (the paper's constant-sink-temperature scaling rule);
  /// otherwise the base 0.8 K/W resistance is used as-is. `fit_outcome`,
  /// when non-null, receives how the fit stage was answered (kComputed
  /// whenever no store row could answer it).
  ///
  /// `stream`, when non-null, is `w`'s instruction stream shared across
  /// cells (see trace/packed_trace.hpp). A detailed sim that computes
  /// replays it when it holds a complete recording of this config's trace,
  /// and otherwise records the stream it generates into it when it is
  /// empty; results are bit-identical either way. A complete recording is
  /// only read, so concurrent evaluations may share it; any other must be
  /// private to one evaluation. Sampled sims ignore it.
  AppTechResult evaluate(const workloads::Workload& w, scaling::TechPoint tech,
                         double sink_target_k = 0.0,
                         BlobStore::Outcome* fit_outcome = nullptr,
                         trace::PackedTrace* stream = nullptr) const;

  /// Evaluates `w` at every node: 180 nm first (pinning the app's sink
  /// temperature), then each scaled node holding that sink temperature.
  std::vector<AppTechResult> evaluate_app(const workloads::Workload& w) const;

  /// Evaluates an arbitrary instruction stream (file replay, phased trace,
  /// external tooling) instead of a named workload's synthetic trace.
  /// `label` names the result; `power_bias` calibrates per-app dynamic
  /// energy (1.0 when unknown).
  AppTechResult evaluate_stream(trace::TraceReader& stream,
                                const std::string& label, double power_bias,
                                scaling::TechPoint tech,
                                double sink_target_k = 0.0) const;

  const EvaluationConfig& config() const { return cfg_; }

 private:
  AppTechResult evaluate_staged(const workloads::Workload& w,
                                scaling::TechPoint tech, double sink_target_k,
                                BlobStore::Outcome* fit_outcome,
                                trace::PackedTrace* stream) const;

  EvaluationConfig cfg_;
  std::shared_ptr<StageStore> store_;
};

}  // namespace ramp::pipeline
