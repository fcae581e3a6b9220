// The explicit stage DAG behind the evaluator: trace → sim → power →
// thermal → fit, each a first-class stage with
//  - a serializable input description,
//  - a content-addressed stage key derived from the upstream stage key plus
//    only the config fields that stage actually reads, and
//  - a typed, versioned serialized output.
//
// Stage keys are full canonical strings (readable `stage.v1|up=(...)|...`
// chains), so equal keys imply bit-identical inputs with no digest-collision
// loophole — the StageStore persists the whole key in every file header and
// treats mismatches as misses. Field blocks inside a key are digested with
// util::Fnv64 using the same frozen mixing discipline as config_hash (the
// sweep CSV's header stamp): the mixing order below is part of the on-disk
// format, and changing what a stage reads must bump that stage's version
// tag.
//
// Key derivation (see docs/API_GUIDE.md "Stage graph & caching"):
//   trace   app name, generator profile, trace_instructions, seed
//   sim     trace key + frequency_hz + interval_seconds; the sampled mode
//           gets its own version tag (sim.sampled.v1 embeds the sampling
//           parameters) while detailed keeps the frozen sim.v1 tag
//   power   sim key + power_bias + unconstrained_w_180nm + clock_gating_floor
//           + relative_capacitance + vdd + frequency_hz
//   thermal power key + the nine ThermalConfig fields + leakage_beta
//           + leakage_ref_temp + base_core_area_mm2
//           + leakage_w_per_mm2_at_383k + relative_area + sink_target_k
//   fit     thermal key + vdd + tox_nm + jmax_ma_per_um2 + linear_scale
//           + relative_area
// Everything downstream of a change is invalidated automatically because
// each key embeds its upstream key; fields a stage only reads transitively
// (e.g. interval_seconds in the thermal transient) are covered by the chain.
//
// The split is bit-exact: running the four compute stages back to back
// performs the same floating-point operations on the same values in the
// same per-variable order as the old interleaved loop, so staged results —
// cached or not, at any job count — are byte-identical to the monolithic
// evaluator (the golden sweep CSVs pin this down).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/evaluator.hpp"
#include "power/power_model.hpp"
#include "scaling/technology.hpp"
#include "sim/interval_stats.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/blob_store.hpp"
#include "util/error.hpp"

namespace ramp::pipeline {

// ---- stage identity --------------------------------------------------------

enum class StageId : int { kTrace = 0, kSim, kPower, kThermal, kFit };
inline constexpr int kNumStageIds = 5;

/// Stable lowercase identifier ("trace", "sim", "power", "thermal", "fit");
/// used in metric names and key prefixes.
std::string_view stage_id_name(StageId s);

/// A stage's content-addressed identity: the full canonical key string.
struct StageKey {
  std::string canonical;
};

/// Deterministic per-app seed offset (base ^ FNV-1a(app)) — the effective
/// seed of the app's synthetic trace stream.
std::uint64_t app_trace_seed(std::uint64_t base, const std::string& app);

// ---- stage inputs ----------------------------------------------------------

/// Everything the trace stage reads: the synthetic-trace specification.
struct TraceStageIn {
  std::string app;
  trace::GeneratorProfile profile;
  std::uint64_t instructions = 0;
  std::uint64_t seed = 0;  ///< base seed; effective = app_trace_seed(seed, app)
};

StageKey trace_stage_key(const TraceStageIn& in);
/// Sim stage key. `mode` must be resolved (never kAuto). Detailed keeps the
/// frozen `sim.v1` tag; sampled gets its own tag with the parameters that
/// shape the estimate embedded (`sim.sampled.v1|…|p=…|w=…|m=…|k=…`), so a
/// cached sampled payload can never answer a detailed request or a
/// differently-parameterized sampled one.
StageKey sim_stage_key(const StageKey& trace_key, double frequency_hz,
                       double interval_seconds,
                       sim::SimMode mode = sim::SimMode::kDetailed,
                       const sim::SampledParams& sampled = {});
StageKey power_stage_key(const StageKey& sim_key,
                         const power::PowerModelConfig& power,
                         double power_bias,
                         const scaling::TechnologyNode& tech);
StageKey thermal_stage_key(const StageKey& power_key,
                           const EvaluationConfig& cfg,
                           const scaling::TechnologyNode& tech,
                           double sink_target_k);
StageKey fit_stage_key(const StageKey& thermal_key,
                       const scaling::TechnologyNode& tech);

/// The five stage keys of one (workload, node, sink target) cell under
/// `cfg`: the chain the store-backed Evaluator resolves. The fit key is the
/// cell's result key — every input that can change a result reaches it.
struct CellKeys {
  StageKey trace, sim, power, thermal, fit;
};
CellKeys cell_keys(const EvaluationConfig& cfg, const workloads::Workload& w,
                   scaling::TechPoint tech, double sink_target_k = 0.0);

// ---- stage outputs ---------------------------------------------------------

/// Trace stage output: the canonical specification itself. Synthesis is
/// pull-driven inside the simulator (the stream is generated per
/// instruction), so the stage's "output" is its reproducible spec; it is a
/// first-class stage so reuse is visible in the hit/miss counters.
struct TraceStageOut {
  std::string spec;
};

/// Sim stage output: per-interval activity factors plus run totals.
struct SimStageOut {
  sim::SimResult result;
};

/// Power stage output: biased per-structure dynamic power, per interval and
/// run-average (the "first run" input of the two-run thermal methodology).
struct PowerStageOut {
  power::StructurePower avg_dynamic{};           ///< from totals.avg_activity
  std::vector<power::StructurePower> dynamic;    ///< per interval
  std::vector<double> dynamic_total;             ///< per interval, Σ structures
};

/// Thermal stage output: the calibrated steady-state sink temperature plus
/// the post-step per-structure temperatures and total block power (dynamic +
/// leakage) of every transient interval.
struct ThermalStageOut {
  double sink_temp_k = 0.0;
  std::vector<std::array<double, sim::kNumStructures>> struct_temps;
  std::vector<double> block_total;  ///< per interval
};

// The fit stage's output is AppTechResult itself (the codec serializes the
// cacheable core: scalars, raw_fits, run stats — never interval traces or
// timelines, which is why flight-recorder runs bypass the fit-stage cache).

// ---- stage bodies ----------------------------------------------------------
//
// Each body reads exactly the fields its key covers (plus upstream outputs)
// and is deterministic. `cell` is the "app@node" profiler label.

SimStageOut run_sim_stage(const EvaluationConfig& cfg,
                          const scaling::TechnologyNode& tech,
                          trace::TraceReader& stream, const std::string& cell);

PowerStageOut run_power_stage(const EvaluationConfig& cfg,
                              const scaling::TechnologyNode& tech,
                              double power_bias,
                              const sim::SimResult& sim_result,
                              const std::string& cell);

ThermalStageOut run_thermal_stage(const EvaluationConfig& cfg,
                                  const scaling::TechnologyNode& tech,
                                  double sink_target_k,
                                  const PowerStageOut& power,
                                  const std::string& cell);

/// Assembles the final result (FIT accumulation, power averages, optional
/// interval trace and flight-recorder timeline). Sets every AppTechResult
/// field except app/tech, which the caller owns.
AppTechResult run_fit_stage(const EvaluationConfig& cfg,
                            const scaling::TechnologyNode& tech,
                            const sim::SimResult& sim_result,
                            const PowerStageOut& power,
                            const ThermalStageOut& thermal,
                            const std::string& cell);

// ---- payload codecs --------------------------------------------------------
//
// Versioned binary payloads: an 8-byte magic+version tag followed by raw
// little-endian (host-order) u64 counts and memcpy'd IEEE-754 doubles, so
// round trips are bit-exact. decode_payload returns false on any size,
// magic, or internal-count inconsistency — the store treats that as a
// corrupt entry, i.e. a miss. Files are host-format; they are caches, not
// interchange.

std::string encode_payload(const TraceStageOut& v);
std::string encode_payload(const SimStageOut& v);
std::string encode_payload(const PowerStageOut& v);
std::string encode_payload(const ThermalStageOut& v);
/// Requires timeline and incidents to be empty (not representable).
std::string encode_payload(const AppTechResult& v);

bool decode_payload(const std::string& payload, TraceStageOut& out);
bool decode_payload(const std::string& payload, SimStageOut& out);
bool decode_payload(const std::string& payload, PowerStageOut& out);
bool decode_payload(const std::string& payload, ThermalStageOut& out);
bool decode_payload(const std::string& payload, AppTechResult& out);

// ---- the store -------------------------------------------------------------

/// Shared, thread-safe stage-output store: a util::BlobStore (bounded LRU +
/// optional persistent directory + single-flight) plus per-stage accounting
/// in an obs::MetricsRegistry:
///   ramp_stage_<stage>_hits_total     answered without computing (memory,
///                                     disk, or coalesced onto a peer)
///   ramp_stage_<stage>_misses_total   compute callback ran
///   ramp_stage_<stage>_coalesced_total  the subset of hits that waited on
///                                     a peer's in-flight compute
///   ramp_stage_<stage>_writes_total   payload persisted to disk
///   ramp_stage_<stage>_seconds        compute duration on a miss
///   ramp_stage_store_entries/_bytes   memory-tier occupancy gauges
/// Counters land in the global registry by default (RAMP_METRICS gates
/// them); pass a private registry for exact bookkeeping in tests.
class StageStore {
 public:
  struct Options {
    std::size_t memory_entries = 512;
    std::string dir;  ///< "" = in-memory only
    obs::MetricsRegistry* registry = nullptr;  ///< nullptr → global()
  };

  StageStore();  ///< defaults: in-memory only, global metrics registry
  explicit StageStore(Options opts);

  StageStore(const StageStore&) = delete;
  StageStore& operator=(const StageStore&) = delete;

  /// Returns the stage output for `key`, running `compute` on a miss.
  /// Single-flight per key; see BlobStore. T must have encode_payload /
  /// decode_payload overloads above. `outcome`, when non-null, receives how
  /// the lookup was answered.
  template <typename T>
  T get_or_compute(StageId stage, const StageKey& key,
                   const std::function<T()>& compute,
                   BlobStore::Outcome* outcome = nullptr) {
    obs::Profiler& prof = obs::Profiler::global();
    const bool timed = prof.enabled();
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    T out{};
    bool have = false;
    const BlobStore::Result res = blobs_.get_or_compute(
        key.canonical,
        [&]() -> std::string {
          T computed = compute();
          std::string payload = encode_payload(computed);
          out = std::move(computed);
          have = true;
          return payload;
        },
        [&](const std::string& payload) {
          T fresh{};
          if (!decode_payload(payload, fresh)) return false;
          out = std::move(fresh);
          have = true;
          return true;
        });
    if (!have) {
      // Memory hit or coalesced: the payload was produced by encode_payload
      // in this process, so failure to decode is a bug, not corruption.
      RAMP_REQUIRE(decode_payload(*res.blob, out),
                   "stage store returned an undecodable " +
                       std::string(stage_id_name(stage)) + " payload");
    }
    if (timed) {
      // The store's own overhead (lookup, disk I/O, codec) as a kCache span;
      // the stage's compute time is attributed by the stage body itself.
      const double total = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      prof.record(obs::Stage::kCache,
                  std::max(0.0, total - res.compute_seconds));
    }
    book(stage, res);
    if (outcome != nullptr) *outcome = res.outcome;
    return out;
  }

  /// The stage output for `key` when the memory tier holds it, else nullopt.
  /// Never computes, reads the disk, or waits (see BlobStore::peek); a
  /// found entry books a hit.
  template <typename T>
  std::optional<T> peek(StageId stage, const StageKey& key) {
    const BlobStore::Blob blob = blobs_.peek(key.canonical);
    if (blob == nullptr) return std::nullopt;
    T out{};
    RAMP_REQUIRE(decode_payload(*blob, out),
                 "stage store holds an undecodable " +
                     std::string(stage_id_name(stage)) + " payload");
    meters_[static_cast<std::size_t>(stage)].hits.inc();
    return out;
  }

  const BlobStore& blobs() const { return blobs_; }
  const Options& options() const { return opts_; }

 private:
  void book(StageId stage, const BlobStore::Result& res);

  Options opts_;
  obs::MetricsRegistry* registry_ = nullptr;
  BlobStore blobs_;

  struct StageMeters {
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter coalesced;
    obs::Counter writes;
    obs::Histogram seconds;
  };
  std::array<StageMeters, kNumStageIds> meters_{};
  obs::Gauge entries_gauge_;
  obs::Gauge bytes_gauge_;
};

}  // namespace ramp::pipeline
