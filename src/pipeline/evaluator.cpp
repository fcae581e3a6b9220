#include "pipeline/evaluator.hpp"

#include <chrono>
#include <filesystem>
#include <optional>

#include "obs/span.hpp"
#include "pipeline/stage_graph.hpp"
#include "trace/packed_trace.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace ramp::pipeline {

EvaluationConfig EvaluationConfig::from_env(std::uint64_t trace_len) {
  EvaluationConfig cfg;
  // env_u64 throws InvalidArgument on non-numeric, signed, or overflowing
  // values — a misspelled override must fail loudly, not silently default.
  cfg.trace_instructions = env_u64("RAMP_TRACE_LEN", trace_len);
  RAMP_REQUIRE(cfg.trace_instructions > 0,
               "environment variable RAMP_TRACE_LEN must be positive");
  cfg.seed = env_u64("RAMP_SEED", 42);
  // Obs reads RAMP_METRICS itself; parsing it here makes a misspelled value
  // fail every front-end up front.
  env_on_off("RAMP_METRICS", true);
  const auto timeline = env_on_off_or_value("RAMP_TIMELINE");
  cfg.timeline_enabled = timeline.has_value();
  cfg.timeline_dir = timeline.value_or("");
  cfg.timeline_points = env_u64("RAMP_TIMELINE_POINTS", cfg.timeline_points);
  RAMP_REQUIRE(cfg.timeline_points >= 2,
               "environment variable RAMP_TIMELINE_POINTS must be at least 2");
  cfg.trace_out = env_string("RAMP_TRACE_OUT").value_or("");
  if (const auto temp = env_double("RAMP_WATCHDOG_TEMP_K")) {
    cfg.watchdog.max_temp_k = *temp;
  }
  cfg.stage_cache_dir =
      pipeline::stage_cache_dir(output_dir(), std::nullopt, true);
  if (const auto mode = env_string("RAMP_SIM_MODE")) {
    cfg.sim_mode = sim::parse_sim_mode(*mode);
  }
  cfg.sampled.period = env_u64("RAMP_SIM_PERIOD", cfg.sampled.period);
  cfg.sampled.warmup = env_u64("RAMP_SIM_WARMUP", cfg.sampled.warmup);
  cfg.sampled.measure = env_u64("RAMP_SIM_MEASURE", cfg.sampled.measure);
  cfg.sampled.windows = env_u64("RAMP_SIM_WINDOWS", cfg.sampled.windows);
  cfg.sampled.validate();
  return cfg;
}

std::string stage_cache_dir(const std::string& out_dir,
                            const std::optional<std::string>& flag,
                            bool persist_by_default) {
  const std::string fallback =
      (std::filesystem::path(out_dir) / "stage_cache").string();
  if (flag) return flag->empty() ? fallback : *flag;
  if (!env_string("RAMP_STAGE_CACHE")) {
    return persist_by_default ? fallback : "";
  }
  const auto env = env_on_off_or_value("RAMP_STAGE_CACHE");
  if (!env) return "";
  return env->empty() ? fallback : *env;
}

sim::SimMode resolved_sim_mode(const EvaluationConfig& cfg) {
  if (cfg.sim_mode != sim::SimMode::kAuto) return cfg.sim_mode;
  // Sampling only pays off once it meets its tolerance contract.
  return cfg.trace_instructions >= kSampledContractInstructions
             ? sim::SimMode::kSampled
             : sim::SimMode::kDetailed;
}

namespace {

// The sim stage's instruction stream for `w` under `cfg` (see
// Evaluator::evaluate for how `packed` is used).
class CellStream {
 public:
  CellStream(const EvaluationConfig& cfg, const workloads::Workload& w,
             trace::PackedTrace* packed) {
    const bool shared =
        packed != nullptr &&
        resolved_sim_mode(cfg) == sim::SimMode::kDetailed;
    if (shared && packed->complete() &&
        packed->size() == cfg.trace_instructions) {
      reader_ = &replay_.emplace(*packed);
      return;
    }
    reader_ = &synthetic_.emplace(w.profile, cfg.trace_instructions,
                                  app_trace_seed(cfg.seed, w.name));
    if (shared && packed->empty()) {
      reader_ = &recorder_.emplace(*synthetic_, *packed);
    }
  }

  trace::TraceReader& reader() { return *reader_; }

 private:
  std::optional<trace::SyntheticTrace> synthetic_;
  std::optional<trace::PackedTrace::Recorder> recorder_;
  std::optional<trace::PackedTrace::Replay> replay_;
  trace::TraceReader* reader_ = nullptr;
};

}  // namespace

core::FitSummary scale_summary(const core::FitSummary& raw,
                               const core::MechanismConstants& k) {
  core::FitSummary out = raw;
  for (auto& row : out.by_structure) {
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      row[static_cast<std::size_t>(m)] *= k.get(static_cast<core::Mechanism>(m));
    }
  }
  out.tc_fit *= k.tc;
  return out;
}

Evaluator::Evaluator(EvaluationConfig cfg, std::shared_ptr<StageStore> store)
    : cfg_(std::move(cfg)), store_(std::move(store)) {
  RAMP_REQUIRE(cfg_.trace_instructions > 0, "trace length must be positive");
  RAMP_REQUIRE(cfg_.interval_seconds > 0.0, "interval must be positive");
}

AppTechResult Evaluator::evaluate(const workloads::Workload& w,
                                  scaling::TechPoint tech_point,
                                  double sink_target_k,
                                  BlobStore::Outcome* fit_outcome,
                                  trace::PackedTrace* stream) const {
  if (store_ != nullptr) {
    return evaluate_staged(w, tech_point, sink_target_k, fit_outcome, stream);
  }
  if (fit_outcome != nullptr) *fit_outcome = BlobStore::Outcome::kComputed;

  // kTraceGen covers stream *construction* only: synthesis itself is
  // pull-driven per-instruction inside the simulator, so its cost is
  // accounted to kSim (timing each next() would dwarf the work).
  obs::Span trace_span(
      obs::Stage::kTraceGen,
      w.name + "@" + std::string(scaling::tech_token(tech_point)));
  CellStream trace_stream(cfg_, w, stream);
  trace_span.stop();
  return evaluate_stream(trace_stream.reader(), w.name, w.power_bias,
                         tech_point, sink_target_k);
}

// Store-backed path: each stage resolves through the shared StageStore under
// its content-addressed key. Upstream stages are pulled lazily, so a
// downstream hit (e.g. the whole fit row) never recomputes — or even looks
// up — anything above it, and a second V/f point at the same (app, node)
// reuses trace and sim outright.
AppTechResult Evaluator::evaluate_staged(
    const workloads::Workload& w, scaling::TechPoint tech_point,
    double sink_target_k, BlobStore::Outcome* fit_outcome,
    trace::PackedTrace* stream) const {
  const scaling::TechnologyNode& tech = scaling::node(tech_point);
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();
  const std::string cell =
      w.name + "@" + std::string(scaling::tech_token(tech_point));
  const auto run_start = profile ? Clock::now() : Clock::time_point{};

  const CellKeys keys = cell_keys(cfg_, w, tech_point, sink_target_k);
  const StageKey& tkey = keys.trace;

  // Lazy memoized upstream getters: each stage materializes at most once,
  // and only when a downstream miss actually demands it.
  std::optional<SimStageOut> sim_out;
  const auto get_sim = [&]() -> const SimStageOut& {
    if (!sim_out) {
      sim_out = store_->get_or_compute<SimStageOut>(
          StageId::kSim, keys.sim, [&]() -> SimStageOut {
            // Trace stage: resolve the spec through the store first, so
            // trace reuse is visible in the stage counters. The spec *is*
            // the canonical key — synthesis is pull-driven inside the
            // simulator (see Evaluator::evaluate).
            const TraceStageOut spec = store_->get_or_compute<TraceStageOut>(
                StageId::kTrace, tkey,
                [&] { return TraceStageOut{tkey.canonical}; });
            RAMP_ASSERT(spec.spec == tkey.canonical);
            obs::Span trace_span(obs::Stage::kTraceGen, cell);
            CellStream trace_stream(cfg_, w, stream);
            trace_span.stop();
            return run_sim_stage(cfg_, tech, trace_stream.reader(), cell);
          });
    }
    return *sim_out;
  };
  std::optional<PowerStageOut> power_out;
  const auto get_power = [&]() -> const PowerStageOut& {
    if (!power_out) {
      power_out = store_->get_or_compute<PowerStageOut>(
          StageId::kPower, keys.power, [&] {
            return run_power_stage(cfg_, tech, w.power_bias, get_sim().result,
                                   cell);
          });
    }
    return *power_out;
  };
  std::optional<ThermalStageOut> thermal_out;
  const auto get_thermal = [&]() -> const ThermalStageOut& {
    if (!thermal_out) {
      thermal_out = store_->get_or_compute<ThermalStageOut>(
          StageId::kThermal, keys.thermal, [&] {
            return run_thermal_stage(cfg_, tech, sink_target_k, get_power(),
                                     cell);
          });
    }
    return *thermal_out;
  };

  // Fit rows are cached only when they carry no timeline (the payload cannot
  // represent one); recorder runs still reuse every upstream stage.
  const bool cache_fit = !cfg_.timeline_enabled;
  AppTechResult r;
  if (cache_fit) {
    r = store_->get_or_compute<AppTechResult>(
        StageId::kFit, keys.fit,
        [&] {
          AppTechResult fresh =
              run_fit_stage(cfg_, tech, get_sim().result, get_power(),
                            get_thermal(), cell);
          fresh.app = w.name;
          fresh.tech = tech_point;
          return fresh;
        },
        fit_outcome);
  } else {
    r = run_fit_stage(cfg_, tech, get_sim().result, get_power(), get_thermal(),
                      cell);
    if (fit_outcome != nullptr) *fit_outcome = BlobStore::Outcome::kComputed;
  }
  r.app = w.name;
  r.tech = tech_point;
  if (profile) {
    prof.record_cell_timed(obs::Stage::kTotal, cell, run_start, Clock::now());
  }
  return r;
}

AppTechResult Evaluator::evaluate_stream(trace::TraceReader& stream,
                                         const std::string& label,
                                         double power_bias,
                                         scaling::TechPoint tech_point,
                                         double sink_target_k) const {
  RAMP_REQUIRE(power_bias > 0.0, "power bias must be positive");
  const scaling::TechnologyNode& tech = scaling::node(tech_point);

  // External streams are not content-addressable, so this path never
  // consults the stage store: it is the plain sequential stage chain.
  // Per-stage wall-time attribution happens inside the stage bodies; when
  // the profiler is disabled no clock is ever read on this path.
  using Clock = std::chrono::steady_clock;
  obs::Profiler& prof = obs::Profiler::global();
  const bool profile = prof.enabled();
  const std::string cell =
      label + "@" + std::string(scaling::tech_token(tech_point));
  const auto run_start = profile ? Clock::now() : Clock::time_point{};

  const SimStageOut sim = run_sim_stage(cfg_, tech, stream, cell);
  const PowerStageOut power =
      run_power_stage(cfg_, tech, power_bias, sim.result, cell);
  const ThermalStageOut thermal =
      run_thermal_stage(cfg_, tech, sink_target_k, power, cell);
  AppTechResult r =
      run_fit_stage(cfg_, tech, sim.result, power, thermal, cell);
  r.app = label;
  r.tech = tech_point;
  if (profile) {
    prof.record_cell_timed(obs::Stage::kTotal, cell, run_start, Clock::now());
  }
  return r;
}

std::vector<AppTechResult> Evaluator::evaluate_app(
    const workloads::Workload& w) const {
  std::vector<AppTechResult> results;
  results.reserve(scaling::kAllTechPoints.size());
  const AppTechResult base = evaluate(w, scaling::TechPoint::k180nm);
  const double sink_target = base.sink_temp_k;
  results.push_back(base);
  for (const auto tech : scaling::kAllTechPoints) {
    if (tech == scaling::TechPoint::k180nm) continue;
    results.push_back(evaluate(w, tech, sink_target));
  }
  return results;
}

}  // namespace ramp::pipeline
