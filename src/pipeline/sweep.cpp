#include "pipeline/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/qualification.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/stage_graph.hpp"
#include "trace/packed_trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/hashing.hpp"
#include "util/thread_pool.hpp"

namespace ramp::pipeline {

namespace {

int tech_index(scaling::TechPoint p) {
  for (std::size_t i = 0; i < scaling::kAllTechPoints.size(); ++i) {
    if (scaling::kAllTechPoints[i] == p) return static_cast<int>(i);
  }
  throw InvalidArgument("unknown technology point");
}

}  // namespace

std::string default_sweep_cache_path() {
  return (std::filesystem::path(output_dir()) / "ramp_sweep_cache.csv")
      .string();
}

const AppTechResult& SweepResult::at(const std::string& app,
                                     scaling::TechPoint tech) const {
  for (const auto& r : results) {
    if (r.app == app && r.tech == tech) return r;
  }
  throw InvalidArgument("no sweep cell for " + app);
}

core::FitSummary SweepResult::qualified_fits(const AppTechResult& r) const {
  return scale_summary(r.raw_fits, constants);
}

core::FitSummary SweepResult::worst_case(scaling::TechPoint tech) const {
  double max_temp = 0.0;
  double max_act = 0.0;
  bool any = false;
  for (const auto& r : results) {
    if (r.tech != tech) continue;
    max_temp = std::max(max_temp, r.max_structure_temp_k);
    max_act = std::max(max_act, r.max_activity);
    any = true;
  }
  RAMP_REQUIRE(any, "no results at the requested node");
  const core::RampModel model(scaling::node(tech), constants);
  return core::steady_state_summary(model, max_temp, max_act,
                                    scaling::node(tech).vdd);
}

std::vector<const AppTechResult*> SweepResult::cells(
    workloads::Suite suite, scaling::TechPoint tech) const {
  std::vector<const AppTechResult*> out;
  for (const auto& w : workloads::suite_workloads(suite)) {
    out.push_back(&at(w.name, tech));
  }
  return out;
}

double SweepResult::average_total_fit(workloads::Suite suite,
                                      scaling::TechPoint tech) const {
  const auto suite_cells = cells(suite, tech);
  double sum = 0.0;
  for (const auto* r : suite_cells) sum += qualified_fits(*r).total();
  return sum / static_cast<double>(suite_cells.size());
}

double SweepResult::average_mechanism_fit(workloads::Suite suite,
                                          scaling::TechPoint tech,
                                          core::Mechanism m) const {
  const auto suite_cells = cells(suite, tech);
  double sum = 0.0;
  for (const auto* r : suite_cells) {
    sum += qualified_fits(*r).by_mechanism()[static_cast<std::size_t>(m)];
  }
  return sum / static_cast<double>(suite_cells.size());
}

double SweepResult::average_total_fit_all(scaling::TechPoint tech) const {
  double sum = 0.0;
  int n = 0;
  for (const auto& r : results) {
    if (r.tech != tech) continue;
    sum += qualified_fits(r).total();
    ++n;
  }
  RAMP_REQUIRE(n > 0, "no results at the requested node");
  return sum / n;
}

std::uint64_t config_hash(const EvaluationConfig& cfg) {
  // The mixing order is frozen: changing it invalidates every on-disk cache.
  // trace_instructions/seed go through double for compatibility with the
  // original hash (both are far below 2^53 in practice).
  Fnv64 h;
  h.mix(static_cast<double>(cfg.trace_instructions));
  h.mix(static_cast<double>(cfg.seed));
  h.mix(cfg.interval_seconds);
  for (double w : cfg.power.unconstrained_w_180nm) h.mix(w);
  h.mix(cfg.power.clock_gating_floor);
  h.mix(cfg.power.leakage_beta);
  h.mix(cfg.power.leakage_ref_temp);
  h.mix(cfg.power.base_core_area_mm2);
  h.mix(cfg.thermal.ambient_k);
  h.mix(cfg.thermal.r_convec_k_per_w);
  h.mix(cfg.thermal.r_vertical_specific);
  h.mix(cfg.thermal.r_spreader_sink);
  h.mix(cfg.thermal.k_silicon);
  h.mix(cfg.thermal.die_thickness);
  h.mix(cfg.thermal.c_silicon);
  h.mix(cfg.thermal.spreader_capacitance);
  h.mix(cfg.thermal.sink_capacitance);
  // Sampled mode changes sim-stage results, so the *resolved* mode joins
  // the hash — but only then: a detailed config (including auto resolving
  // to detailed) hashes exactly as before, keeping existing sweep caches
  // valid.
  const sim::SimMode mode = resolved_sim_mode(cfg);
  if (mode == sim::SimMode::kSampled) {
    h.mix(std::uint64_t{0x73696d5f6d6f6465});  // "sim_mode" domain separator
    h.mix(static_cast<std::uint64_t>(mode));
    h.mix(cfg.sampled.period);
    h.mix(cfg.sampled.warmup);
    h.mix(cfg.sampled.measure);
    h.mix(cfg.sampled.windows);
  }
  return h.value();
}

void write_result_row(std::ostream& out, const AppTechResult& r) {
  out << r.app << ',' << tech_index(r.tech) << ',' << r.ipc << ','
      << r.avg_dynamic_power_w << ',' << r.avg_leakage_power_w << ','
      << r.avg_total_power_w << ',' << r.max_structure_temp_k << ','
      << r.sink_temp_k << ',' << r.avg_die_temp_k << ',' << r.max_activity
      << ',' << r.raw_fits.tc_fit;
  for (const auto& row : r.raw_fits.by_structure) {
    for (double v : row) out << ',' << v;
  }
  out << ',' << r.run.cycles << ',' << r.run.instructions << ','
      << r.run.branches << ',' << r.run.branch_mispredicts << ','
      << r.run.l1d_accesses << ',' << r.run.l1d_misses << ','
      << r.run.l2_accesses << ',' << r.run.l2_misses << ','
      << r.run.l1i_misses;
  for (double a : r.run.avg_activity) out << ',' << a;
}

std::string sweep_to_csv(const SweepResult& sweep) {
  std::ostringstream out;
  out.precision(17);
  out << "# ramp_sweep_cache v1 hash=" << config_hash(sweep.config) << "\n";
  out << "# constants em=" << sweep.constants.em << " sm=" << sweep.constants.sm
      << " tddb=" << sweep.constants.tddb << " tc=" << sweep.constants.tc << "\n";
  for (const auto& r : sweep.results) {
    write_result_row(out, r);
    out << '\n';
  }
  return out.str();
}

namespace {

/// The canonical per-app node order of the serial sweep: 180 nm first (it
/// pins the sink temperature), then the scaled nodes in paper order.
std::vector<scaling::TechPoint> canonical_node_order() {
  std::vector<scaling::TechPoint> order = {scaling::TechPoint::k180nm};
  for (const auto tp : scaling::kAllTechPoints) {
    if (tp != scaling::TechPoint::k180nm) order.push_back(tp);
  }
  return order;
}

}  // namespace

SweepRunner::SweepRunner(EvaluationConfig cfg, Options opts)
    : cfg_(std::move(cfg)), opts_(std::move(opts)) {
  RAMP_REQUIRE(opts_.pool != nullptr || opts_.jobs > 0,
               "SweepRunner needs at least one job");
  if (opts_.stage_store == nullptr) {
    opts_.stage_store = std::make_shared<StageStore>(
        StageStore::Options{.dir = cfg_.stage_cache_dir});
  }
}

SweepResult SweepRunner::run() const {
  SweepResult sweep;
  if (opts_.pool != nullptr) {
    sweep = execute(*opts_.pool);
  } else {
    ThreadPool pool(opts_.jobs);
    sweep = execute(pool);
  }
  if (!opts_.cache_path.empty()) {
    // Best effort, like every artifact nothing reads back. The lock keeps
    // runners in this process off one temp file; the atomic rename keeps
    // processes sharing the path from reading a torn one.
    static std::mutex csv_mutex;
    const std::lock_guard<std::mutex> lock(csv_mutex);
    try {
      obs::write_text_file_atomic(opts_.cache_path, sweep_to_csv(sweep));
    } catch (const std::exception&) {
    }
  }
  return sweep;
}

std::vector<AppTechResult> evaluate_cells(
    const Evaluator& evaluator,
    const std::vector<const workloads::Workload*>& apps,
    const std::vector<scaling::TechPoint>& nodes, ThreadPool* pool,
    const CellHooks& hooks) {
  using Clock = std::chrono::steady_clock;
  RAMP_REQUIRE(!nodes.empty() && nodes.front() == scaling::TechPoint::k180nm,
               "cell schedules start at the 180 nm base node");
  const std::size_t nnodes = nodes.size();
  const EvaluationConfig& cfg = evaluator.config();

  // Cell results land in their canonical app-major slot as they finish, so
  // the merged vector is independent of execution order.
  std::vector<AppTechResult> cells(apps.size() * nnodes);

  // Runs one (app, node) cell. `sink_target_k` is 0 for the 180 nm base run
  // and the app's pinned sink temperature otherwise.
  const auto run_cell = [&](std::size_t app_i, std::size_t node_i,
                            double sink_target_k, trace::PackedTrace* stream) {
    SweepCell cell;
    cell.app = apps[app_i]->name;
    cell.tech = nodes[node_i];
    cell.task_id = static_cast<std::uint64_t>(app_i * nnodes + node_i);
    cell.worker_id = ThreadPool::current_worker_id();
    if (hooks.on_cell_start) hooks.on_cell_start(cell);
    const auto start = Clock::now();
    AppTechResult& slot = cells[cell.task_id];
    slot = evaluator.evaluate(*apps[app_i], cell.tech, sink_target_k, nullptr,
                              stream);
    if (hooks.on_cell_finish) {
      const std::chrono::duration<double> wall = Clock::now() - start;
      hooks.on_cell_finish(cell, slot, wall.count());
    }
  };

  // The app's scaled nodes grouped by sim-stage key, in node order. A group
  // runs as one task: its first cell computes the shared sim, the rest hit
  // the store instead of parking a worker on the in-flight compute.
  const auto sim_groups = [&](std::size_t app_i) {
    std::vector<std::string> keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t node_i = 1; node_i < nnodes; ++node_i) {
      std::string key =
          cell_keys(cfg, *apps[app_i], nodes[node_i]).sim.canonical;
      const auto it = std::find(keys.begin(), keys.end(), key);
      if (it == keys.end()) {
        keys.push_back(std::move(key));
        groups.push_back({node_i});
      } else {
        groups[static_cast<std::size_t>(it - keys.begin())].push_back(node_i);
      }
    }
    return groups;
  };

  // One recorded stream per app (trace/packed_trace.hpp): its 180 nm run
  // records the stream it pulls, its scaled groups replay it, and the last
  // group to finish frees it. Sampled sims draw a different sequence and
  // never replay; past kMaxReplayInstructions every sim generates its own.
  const bool replay = resolved_sim_mode(cfg) == sim::SimMode::kDetailed &&
                      cfg.trace_instructions <= kMaxReplayInstructions &&
                      nnodes > 1;
  std::atomic<std::size_t> live_streams{0};
  const auto release_stream = [&](trace::PackedTrace* stream) {
    delete stream;
    const std::size_t live = --live_streams;
    if (hooks.on_stream_count) hooks.on_stream_count(live);
  };
  const auto new_stream = [&](std::size_t app_i) {
    const std::size_t live = ++live_streams;
    if (hooks.on_stream_count) hooks.on_stream_count(live);
    return std::shared_ptr<trace::PackedTrace>(
        new trace::PackedTrace(apps[app_i]->profile, cfg.trace_instructions),
        release_stream);
  };

  // Work items: one base task per app (its 180 nm cell), and once it has
  // pinned the app's sink temperature, one task per scaled-node group. Each
  // item gets one pool task, but which item a pool task runs is decided
  // when it starts: a waiting group before the next base task. So a base
  // task starts only when no group waits, every live recording belongs to
  // a running task, and at most one per worker is alive.
  struct Group {
    std::size_t app_i = 0;
    double sink_target_k = 0.0;
    std::vector<std::size_t> nodes;
    std::shared_ptr<trace::PackedTrace> stream;
  };
  std::mutex schedule_mutex;  // guards the two fields below
  std::deque<Group> waiting_groups;
  std::size_t next_base = 0;

  std::mutex futures_mutex;
  std::vector<std::future<void>> futures;
  std::function<void()> run_next_item;
  // Submits one pool task (or runs it inline) that runs the next item.
  const auto spawn = [&] {
    if (pool == nullptr) {
      run_next_item();
      return;
    }
    const auto submitted =
        hooks.on_dequeue ? Clock::now() : Clock::time_point{};
    auto future = pool->submit([&hooks, &run_next_item, submitted] {
      if (hooks.on_dequeue) hooks.on_dequeue(submitted);
      run_next_item();
    });
    const std::lock_guard<std::mutex> lock(futures_mutex);
    futures.push_back(std::move(future));
  };

  const auto run_base = [&](std::size_t app_i) {
    std::shared_ptr<trace::PackedTrace> stream =
        replay ? new_stream(app_i) : nullptr;
    run_cell(app_i, 0, 0.0, stream.get());
    // Only a complete recording is shared: an incomplete one (the 180 nm
    // sim was a store hit) would be written to by every group.
    if (stream != nullptr && !stream->complete()) stream.reset();
    const double sink_target = cells[app_i * nnodes].sink_temp_k;
    auto groups = sim_groups(app_i);
    {
      const std::lock_guard<std::mutex> lock(schedule_mutex);
      for (auto& nodes_of_group : groups) {
        waiting_groups.push_back(
            Group{app_i, sink_target, std::move(nodes_of_group), stream});
      }
    }
    stream.reset();
    for (std::size_t i = 0; i < groups.size(); ++i) spawn();
  };
  run_next_item = [&] {
    std::optional<Group> group;
    std::size_t base = 0;
    {
      const std::lock_guard<std::mutex> lock(schedule_mutex);
      if (!waiting_groups.empty()) {
        group = std::move(waiting_groups.front());
        waiting_groups.pop_front();
      } else {
        base = next_base++;
      }
    }
    if (!group) {
      RAMP_ASSERT(base < apps.size());
      run_base(base);
      return;
    }
    // Dropped when this task ends, even by an exception: the last group to
    // finish frees the recording.
    const auto stream = std::move(group->stream);
    for (const std::size_t node_i : group->nodes) {
      run_cell(group->app_i, node_i, group->sink_target_k, stream.get());
    }
  };
  for (std::size_t app_i = 0; app_i < apps.size(); ++app_i) spawn();

  // Wait for everything before touching the results (or unwinding — tasks
  // capture locals by reference); remember the first failure. The list
  // grows while it drains: a base task files its groups' pool tasks before
  // it finishes, so once every filed task is done, all are.
  std::exception_ptr failure;
  for (std::size_t i = 0;; ++i) {
    std::future<void> f;
    {
      const std::lock_guard<std::mutex> lock(futures_mutex);
      if (i == futures.size()) break;
      f = std::move(futures[i]);
    }
    try {
      f.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  if (failure) std::rethrow_exception(failure);
  return cells;
}

SweepResult SweepRunner::execute(ThreadPool& pool) const {
  using Clock = std::chrono::steady_clock;
  const auto& suite = workloads::spec2k_suite();
  std::vector<const workloads::Workload*> apps;
  apps.reserve(suite.size());
  for (const auto& w : suite) apps.push_back(&w);
  const auto nodes = canonical_node_order();
  const std::size_t nnodes = nodes.size();
  const Evaluator evaluator(cfg_, opts_.stage_store);
  const auto sweep_start = Clock::now();

  // Scheduling metrics. All handles are null no-ops when RAMP_METRICS=off,
  // and nothing below feeds back into results.
  auto& reg = obs::MetricsRegistry::global();
  obs::Profiler& prof = obs::Profiler::global();
  const obs::Counter cells_counter = reg.counter("ramp_sweep_cells_total");
  const obs::Histogram cell_hist = reg.histogram(
      "ramp_sweep_cell_seconds",
      {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0});
  const obs::Gauge queue_gauge = reg.gauge("ramp_pool_queue_depth");
  const obs::Gauge active_gauge = reg.gauge("ramp_pool_active");

  if (opts_.observer) {
    opts_.observer->on_sweep_begin(apps.size() * nnodes, pool.worker_count());
  }

  std::mutex observer_mutex;  // serializes ProgressObserver calls
  CellHooks hooks;
  if (prof.enabled()) {
    // Queue wait (submit → dequeue) is recorded as kSchedule, which the
    // profile keeps out of kTotal: it is pool pressure, not pipeline work.
    hooks.on_dequeue = [&prof](Clock::time_point submitted) {
      const auto now = Clock::now();
      prof.record(obs::Stage::kSchedule,
                  std::chrono::duration<double>(now - submitted).count());
      // In trace mode the wait shows up as a "queue-wait" slice on the
      // worker that eventually dequeued the task — the causal gap Perfetto
      // renders between submission and execution.
      prof.record_event(obs::Stage::kSchedule, "queue-wait", submitted, now);
    };
  }
  hooks.on_cell_start = [&](const SweepCell& cell) {
    queue_gauge.set(static_cast<double>(pool.queued()));
    active_gauge.set(static_cast<double>(pool.active()));
    if (opts_.observer) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      opts_.observer->on_cell_start(cell);
    }
  };
  hooks.on_cell_finish = [&](const SweepCell& cell, const AppTechResult& result,
                             double wall_seconds) {
    cells_counter.inc();
    cell_hist.observe(wall_seconds);
    if (opts_.observer) {
      const std::lock_guard<std::mutex> lock(observer_mutex);
      opts_.observer->on_cell_finish(cell, result, wall_seconds);
    }
  };

  SweepResult sweep;
  sweep.config = cfg_;
  sweep.results = evaluate_cells(evaluator, apps, nodes, &pool, hooks);

  // Qualification uses the 180 nm cells in suite order — the same summation
  // order as the serial sweep, keeping the constants bit-identical.
  std::vector<core::FitSummary> raw_180;
  raw_180.reserve(apps.size());
  for (std::size_t app_i = 0; app_i < apps.size(); ++app_i) {
    raw_180.push_back(sweep.results[app_i * nnodes].raw_fits);
  }
  sweep.constants = core::qualify(raw_180);

  if (opts_.observer) {
    const std::chrono::duration<double> wall = Clock::now() - sweep_start;
    opts_.observer->on_sweep_end(wall.count());
  }
  return sweep;
}

}  // namespace ramp::pipeline
