// Timing-simulation mode selection for the sim stage.
//
// The pipeline can estimate IPC and per-structure activity two ways:
//
//   detailed — the cycle-accurate OooCore (the reference; default).
//   sampled  — SMARTS-style systematic sampling (SampledCore): short
//              detailed measurement units separated by a functional
//              fast-forward that keeps caches and the branch predictor
//              warm.  Reports statistical confidence bounds.
//   auto     — resolves per run: detailed for short traces (where sampling
//              cannot amortize its fixed cost), sampled otherwise.
//
// Sampling trades exactness for speed under a documented tolerance
// contract (±2% IPC, ±0.02 absolute activity vs OooCore on the synthetic
// suite from ~1M trace instructions; see docs/PERFORMANCE.md and
// `ramp simcheck`).  Because its results differ from detailed ones, the
// resolved mode and its sampling parameters are embedded in sim-stage cache
// keys and in the sweep config hash — a cached sampled payload can never
// answer a detailed request.
#pragma once

#include <cstdint>
#include <string_view>

namespace ramp::sim {

enum class SimMode : std::uint8_t {
  kDetailed = 0,
  kSampled = 1,
  kAuto = 3,
};

/// Canonical lower-case name ("detailed" | "sampled" | "auto").
std::string_view sim_mode_name(SimMode mode);

/// Parses a canonical mode name.  Throws InvalidArgument on anything else —
/// a misspelled --sim-mode / RAMP_SIM_MODE must fail loudly, not silently
/// fall back to detailed.
SimMode parse_sim_mode(std::string_view text);

/// Systematic-sampling parameters for SimMode::kSampled.  The cold-start
/// ramp (first ~10k instructions) runs fully detailed; after that, per
/// period of `period` instructions one measurement unit runs detailed:
/// `warmup` instructions re-establish pipeline/queue backpressure (caches
/// and the branch predictor stay warm across the fast-forward and need no
/// re-warming), then `windows` consecutive spans of `measure` instructions
/// are each timed between retirement snapshots (amortizing the warmup over
/// several regression windows), and ~ROB-size slack drains before the unit
/// is abandoned.  Everything else fast-forwards functionally.  The
/// defaults hold the ±2% IPC tolerance from ~1M trace instructions upward
/// at ~10% detailed coverage; `warmup` shorter than ~2000 instructions
/// measurably biases IPC high on backpressure-limited workloads (the MSHR
/// queue takes that long to reach equilibrium).
struct SampledParams {
  std::uint64_t period = 100'000;
  std::uint64_t warmup = 2'500;
  std::uint64_t measure = 3'500;
  std::uint64_t windows = 2;

  /// Throws InvalidArgument unless windows >= 1 and
  /// 0 < warmup + windows*measure <= period.
  void validate() const;
};

/// Estimator metadata the sampled path reports alongside a SimResult.  Purely
/// observational: surfaced through obs::MetricsRegistry, never serialized
/// into stage payloads (the RunStats codec layout is frozen).
struct FastSimStats {
  SimMode mode = SimMode::kDetailed;
  /// Fraction of trace instructions simulated in detail (1.0 for detailed).
  double coverage = 1.0;
  /// Number of detailed measurement units (sampled mode; 0 otherwise).
  std::uint64_t units = 0;
  /// Relative 95% confidence half-width on IPC across units (sampled mode).
  double ipc_half_width = 0.0;
  /// Largest absolute 95% confidence half-width across per-structure
  /// activities (sampled mode).
  double activity_half_width = 0.0;
};

}  // namespace ramp::sim
