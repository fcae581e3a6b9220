// Performance microbenchmarks (google-benchmark) for the library's hot
// kernels: trace synthesis, timing simulation, the thermal solvers, and the
// failure-model evaluation loop. These guard the "full sweep in seconds"
// property the reproduction benches depend on.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/fit_tracker.hpp"
#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "sim/ooo_core.hpp"
#include "sim/sampled_core.hpp"
#include "sim/sim_mode.hpp"
#include "thermal/rc_model.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/env.hpp"
#include "workloads/spec2k.hpp"

namespace {

using namespace ramp;

void BM_TraceGeneration(benchmark::State& state) {
  const auto& w = workloads::workload("gcc");
  std::uint64_t n = 0;
  for (auto _ : state) {
    trace::SyntheticTrace t(w.profile, 10000, 42);
    trace::Instruction ins;
    while (t.next(ins)) benchmark::DoNotOptimize(ins.pc);
    n += 10000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TraceGeneration);

void BM_TimingSimulation(benchmark::State& state) {
  const auto& w = workloads::workload(
      state.range(0) == 0 ? "crafty" : "ammp");  // high vs low IPC
  std::uint64_t n = 0;
  for (auto _ : state) {
    trace::SyntheticTrace t(w.profile, 20000, 42);
    sim::OooCore core(sim::base_core_config());
    const auto r = core.run(t, 1100);
    benchmark::DoNotOptimize(r.totals.cycles);
    n += 20000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel(w.name);
}
BENCHMARK(BM_TimingSimulation)->Arg(0)->Arg(1);

// ---- fast timing simulation ------------------------------------------------
// The three sim engines over the identical 2M-instruction gzip stream at the
// 180 nm node — long enough that the sampled estimator's fixed costs (detailed
// prefix, per-unit warmup) are amortized, matching its tolerance contract.
// BM_SimSampled / BM_SimDetailed are the speedup pair CI holds to the
// advertised >= 5x via check_bench_regression.py --ratio (docs/PERFORMANCE.md).

constexpr std::uint64_t kSimBenchInstructions = 2'000'000;

const workloads::Workload& sim_bench_workload() {
  return workloads::workload("gzip");
}

void BM_SimDetailed(benchmark::State& state) {
  const auto cfg = sim::core_config_for(scaling::base_node());
  const auto& w = sim_bench_workload();
  std::uint64_t n = 0;
  for (auto _ : state) {
    trace::SyntheticTrace t(w.profile, kSimBenchInstructions, 42);
    sim::OooCore core(cfg);
    benchmark::DoNotOptimize(core.run(t, 1100).totals.cycles);
    n += kSimBenchInstructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimDetailed);

void BM_SimSampled(benchmark::State& state) {
  const auto cfg = sim::core_config_for(scaling::base_node());
  const auto& w = sim_bench_workload();
  std::uint64_t n = 0;
  for (auto _ : state) {
    trace::SyntheticTrace t(w.profile, kSimBenchInstructions, 42);
    sim::SampledCore core(cfg, sim::SampledParams{});
    benchmark::DoNotOptimize(core.run(t, 1100).totals.cycles);
    n += kSimBenchInstructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimSampled);

void BM_ThermalSteadyState(benchmark::State& state) {
  const thermal::RcNetwork net(thermal::power4_floorplan(), {});
  const std::vector<double> p(net.num_blocks(), 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.steady_state(p));
  }
}
BENCHMARK(BM_ThermalSteadyState);

void BM_ThermalTransientStep(benchmark::State& state) {
  const thermal::RcNetwork net(thermal::power4_floorplan(), {});
  const std::vector<double> p(net.num_blocks(), 4.0);
  thermal::Transient tr(net, net.steady_state(p), 1e-6);
  std::uint64_t n = 0;
  for (auto _ : state) {
    tr.step(p);
    benchmark::DoNotOptimize(tr.temperatures().front());
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ThermalTransientStep);

void BM_FitEvaluation(benchmark::State& state) {
  const core::RampModel model(scaling::base_node());
  core::FitTracker tracker(model);
  std::array<double, sim::kNumStructures> temps{};
  temps.fill(355.0);
  std::array<double, sim::kNumStructures> act{};
  act.fill(0.5);
  // Per-interval bookkeeping on the process-wide registry, exactly as the
  // instrumented pipeline does it: a pre-resolved handle that is null under
  // RAMP_METRICS=off, and a flight-recorder buffer that exists only when
  // RAMP_TIMELINE is set (the evaluator's timeline-off path is this same
  // null-pointer test). CI runs this kernel with everything off vs metrics on
  // + timeline off and fails if the instrumented path costs more than 5%
  // (scripts/check_obs_overhead.py).
  obs::Counter intervals =
      obs::MetricsRegistry::global().counter("ramp_bench_fit_intervals_total");
  std::unique_ptr<obs::TimelineBuffer> timeline;
  if (env_on_off_or_value("RAMP_TIMELINE")) {
    timeline = std::make_unique<obs::TimelineBuffer>(512);
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    tracker.add_interval(temps, act, 1.3, 1e-6);
    intervals.inc();
    if (timeline) {
      obs::TimelinePoint p;
      p.interval = n;
      p.time_s = 1e-6 * static_cast<double>(n + 1);
      p.ipc = 1.3;
      p.temp_k.assign(temps.begin(), temps.end());
      const auto mech = tracker.summary().by_mechanism();
      p.fit_avg.assign(mech.begin(), mech.end());
      timeline->push(std::move(p));
    }
    ++n;
  }
  benchmark::DoNotOptimize(tracker.summary().total());
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel(timeline ? "timeline" : "no-timeline");
}
BENCHMARK(BM_FitEvaluation);

void BM_PipelineEvaluate(benchmark::State& state) {
  // End-to-end macro-benchmark: one full evaluate() — synthetic trace,
  // timing simulation, steady-state + transient thermal, and the FIT loop.
  // This is the unit of work a sweep runs 80 times; the per-interval
  // workspace and FIT-kernel memoization land here. Two nodes: 180 nm
  // (base) and 65 nm at 1.0 V (leakiest, most temperature feedback).
  const auto point = state.range(0) == 0 ? scaling::TechPoint::k180nm
                                         : scaling::TechPoint::k65nm_1V0;
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 25'000;
  const pipeline::Evaluator ev(cfg);
  const auto& w = workloads::workload("gzip");
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto r = ev.evaluate(w, point);
    benchmark::DoNotOptimize(r.raw_fits.total());
    n += cfg.trace_instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel(std::string(scaling::tech_token(point)));
}
BENCHMARK(BM_PipelineEvaluate)->Arg(0)->Arg(1);

void run_pipeline_long(benchmark::State& state, sim::SimMode mode) {
  // End-to-end evaluate() at a trace length where the fast sim path pays off
  // (auto resolves to sampled from 1M instructions up). Distinct op names so
  // the CI ratio gate can hold sampled-mode evaluate() to its multiple of the
  // detailed one; the non-sim stages (power, thermal, FIT) are identical work
  // on both sides, so the end-to-end multiple sits slightly below the raw
  // BM_SimSampled/BM_SimDetailed one.
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 2'000'000;
  cfg.sim_mode = mode;
  const pipeline::Evaluator ev(cfg);
  const auto& w = sim_bench_workload();
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto r = ev.evaluate(w, scaling::TechPoint::k180nm);
    benchmark::DoNotOptimize(r.raw_fits.total());
    n += cfg.trace_instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel(std::string(sim::sim_mode_name(mode)));
}

void BM_PipelineEvaluateDetailed(benchmark::State& state) {
  run_pipeline_long(state, sim::SimMode::kDetailed);
}
BENCHMARK(BM_PipelineEvaluateDetailed);

void BM_PipelineEvaluateSampled(benchmark::State& state) {
  run_pipeline_long(state, sim::SimMode::kSampled);
}
BENCHMARK(BM_PipelineEvaluateSampled);

void run_stage_reuse(benchmark::State& state, bool warm) {
  // Stage-graph memoization: the cost of a second V/f point at the same
  // (app, node). Cold: a fresh StageStore every iteration computes all five
  // stages. Warm: the store already holds the trace and sim outputs
  // (populated by the 0.9 V sibling — both 65 nm points clock 2 GHz), so
  // each evaluation re-runs only power→thermal→fit. The committed baseline
  // pins both ops; together they hold the reuse speedup (warm must stay
  // several times faster than cold — docs/PERFORMANCE.md).
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 50'000;
  const auto& w = workloads::workload("gcc");
  obs::MetricsRegistry reg(/*enabled=*/false);  // accounting off the hot path
  const auto make_store = [&reg] {
    pipeline::StageStore::Options opts;
    opts.registry = &reg;
    return std::make_shared<pipeline::StageStore>(std::move(opts));
  };
  std::shared_ptr<pipeline::StageStore> shared;
  if (warm) {
    // Unpinned: the sink target is irrelevant here — only the shared trace
    // and sim outputs matter, and those keys don't cover it.
    shared = make_store();
    pipeline::Evaluator(cfg, shared)
        .evaluate(w, scaling::TechPoint::k65nm_0V9, 0.0);
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    // Jitter the sink target (near gcc's natural pinned sink) so thermal
    // and fit recompute every iteration; a fixed target would degenerate
    // into pure fit-row hits after the first pass instead of V/f-style
    // reuse.
    const double sink_k = 340.0 + 0.001 * static_cast<double>(n);
    const auto store = warm ? shared : make_store();
    const pipeline::Evaluator ev(cfg, store);
    const auto r = ev.evaluate(w, scaling::TechPoint::k65nm_1V0, sink_k);
    benchmark::DoNotOptimize(r.raw_fits.total());
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
  state.SetLabel(warm ? "warm" : "cold");
}

void BM_StageReuseCold(benchmark::State& state) {
  run_stage_reuse(state, /*warm=*/false);
}
BENCHMARK(BM_StageReuseCold);

void BM_StageReuseWarm(benchmark::State& state) {
  run_stage_reuse(state, /*warm=*/true);
}
BENCHMARK(BM_StageReuseWarm);

// ---- observability hot path ------------------------------------------------
// Absolute cost of the obs primitives themselves (the pipeline claims ~1 ns
// per pre-resolved counter update and a couple of clock reads per Span).

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry reg;  // local, always enabled
  obs::Counter c = reg.counter("ramp_bench_total");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsCounterIncDisabled(benchmark::State& state) {
  obs::MetricsRegistry reg(/*enabled=*/false);  // hands out null handles
  obs::Counter c = reg.counter("ramp_bench_total");
  for (auto _ : state) c.inc();
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterIncDisabled);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram(
      "ramp_bench_seconds",
      {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0});
  double x = 0.0;
  for (auto _ : state) {
    h.observe(x);
    x += 0.001;
    if (x > 1.2) x = 0.0;  // walk every bucket incl. +Inf
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_SpanRecord(benchmark::State& state) {
  obs::Profiler prof(/*enabled=*/true);
  for (auto _ : state) {
    obs::Span span(obs::Stage::kFit, prof);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanRecord);

void BM_ProfilerRecord(benchmark::State& state) {
  obs::Profiler prof(/*enabled=*/true);
  for (auto _ : state) prof.record(obs::Stage::kFit, 1e-6);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerRecord);

void BM_TimelinePush(benchmark::State& state) {
  // Absolute cost of admitting one interval into the flight recorder —
  // includes the stride-doubling compactions amortized over a long run.
  obs::TimelineBuffer buf(512);
  std::vector<double> temps(sim::kNumStructures, 355.0);
  std::vector<double> fits(core::kNumMechanisms, 100.0);
  std::uint64_t n = 0;
  for (auto _ : state) {
    obs::TimelinePoint p;
    p.interval = n;
    p.time_s = 1e-6 * static_cast<double>(n + 1);
    p.ipc = 1.3;
    p.temp_k = temps;
    p.fit_inst = fits;
    p.fit_avg = fits;
    buf.push(std::move(p));
    ++n;
  }
  benchmark::DoNotOptimize(buf.stride());
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimelinePush);

void BM_BranchPredictor(benchmark::State& state) {
  sim::BranchPredictor bp;
  std::uint64_t pc = 0x1000;
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.record_outcome(pc, (pc & 4) != 0, pc + 64));
    pc = pc * 1664525 + 1013904223;
    pc &= 0xffff;
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BranchPredictor);

void BM_CacheAccess(benchmark::State& state) {
  sim::Cache cache({.name = "L1", .size_bytes = 32 * 1024, .line_bytes = 64,
                    .ways = 2});
  std::uint64_t addr = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr));
    addr = addr * 6364136223846793005ULL + 1442695040888963407ULL;
    addr &= 64 * 1024 - 1;
    ++n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CacheAccess);

// Fleet-engine costs. prepare() runs the 16 physics evaluations once
// outside the timed loop, so these benches measure the pure per-chip Monte
// Carlo path (substream seeding, threshold draws, the analytic event loop)
// that dominates a million-chip run.
fleet::FleetScenario fleet_bench_scenario(std::uint64_t chips) {
  fleet::FleetScenario sc = fleet::FleetScenario::preset("baseline");
  sc.chips = chips;
  sc.cell.trace_instructions = 2000;
  return sc;
}

void BM_FleetChip(benchmark::State& state) {
  const fleet::FleetScenario sc = fleet_bench_scenario(64);
  const fleet::FleetSimulator sim(sc);
  sim.prepare();
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run().summary.failed);
    n += sc.chips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FleetChip);

void BM_Fleet1k(benchmark::State& state) {
  const fleet::FleetScenario sc = fleet_bench_scenario(1000);
  const fleet::FleetSimulator sim(sc);
  sim.prepare();
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run().summary.failed);
    n += sc.chips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fleet1k);

// The path the fleet benchmark times: a DVFS policy at 65 nm, 1.0 V, so
// every phase reads the sensor, estimates FIT and steps the controller.
void BM_FleetDvfs1k(benchmark::State& state) {
  fleet::FleetScenario sc = fleet_bench_scenario(1000);
  sc.tech = scaling::TechPoint::k65nm_1V0;
  sc.policy = fleet::DrmPolicy::kDvfs;
  const fleet::FleetSimulator sim(sc);
  sim.prepare();
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run().summary.failed);
    n += sc.chips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FleetDvfs1k);

}  // namespace

BENCHMARK_MAIN();
