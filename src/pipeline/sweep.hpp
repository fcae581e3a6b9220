// Full-suite sweep: every workload × every technology node, qualified.
//
// Runs the Evaluator over the 16-benchmark suite at all five nodes,
// performs 180 nm reliability qualification (§4.4), and derives the
// aggregates the paper's figures report: qualified per-app FIT values,
// suite averages with per-mechanism breakdown, and the worst-case ("max")
// operating-condition curves of §5.2/§5.3.
//
// Every cell schedules against a pipeline::StageStore, the one result cache:
// with a persistent store directory a rerun answers each cell from its
// fit-stage row instead of recomputing. The finished sweep is written as
// CSV (sweep_to_csv) — an output and the golden format, never read back.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/evaluator.hpp"
#include "pipeline/progress.hpp"

namespace ramp {
class ThreadPool;
}

namespace ramp::pipeline {

class StageStore;

/// Default sweep CSV location: "ramp_sweep_cache.csv" under the artifact
/// output directory ($RAMP_OUT_DIR, "out" when unset) — resolved at call
/// time like every other artifact, never relative to the CWD.
std::string default_sweep_cache_path();

struct SweepResult {
  EvaluationConfig config;
  std::vector<AppTechResult> results;       ///< app-major, tech-minor order
  core::MechanismConstants constants;       ///< 180 nm qualification output

  /// Lookup one (app, tech) cell; throws InvalidArgument when absent.
  const AppTechResult& at(const std::string& app, scaling::TechPoint tech) const;

  /// Qualified (absolute) FIT summary for one cell.
  core::FitSummary qualified_fits(const AppTechResult& r) const;

  /// Worst-case FIT summary at `tech`: the highest structure temperature
  /// and activity factor observed across all apps at that node, assumed for
  /// the entire run (paper §5.2).
  core::FitSummary worst_case(scaling::TechPoint tech) const;

  /// Apps of `suite` at `tech`, Table 3 order.
  std::vector<const AppTechResult*> cells(workloads::Suite suite,
                                          scaling::TechPoint tech) const;

  /// Suite-average qualified total FIT at `tech`.
  double average_total_fit(workloads::Suite suite, scaling::TechPoint tech) const;

  /// Suite-average qualified FIT of one mechanism at `tech`.
  double average_mechanism_fit(workloads::Suite suite, scaling::TechPoint tech,
                               core::Mechanism m) const;

  /// Average over *all* apps of the qualified total FIT at `tech`.
  double average_total_fit_all(scaling::TechPoint tech) const;
};

/// Optional per-task and per-cell callbacks of evaluate_cells; empty ones
/// are skipped. They run on the thread that runs the task (a pool worker,
/// or the caller when inline), possibly concurrently: callers serialize.
struct CellHooks {
  /// A pool task starts after waiting in the queue since `submitted`.
  std::function<void(std::chrono::steady_clock::time_point submitted)>
      on_dequeue;
  std::function<void(const SweepCell& cell)> on_cell_start;
  std::function<void(const SweepCell& cell, const AppTechResult& result,
                     double wall_seconds)>
      on_cell_finish;
  /// The number of recorded per-app streams alive changed to `live`.
  std::function<void(std::size_t live)> on_stream_count;
};

/// Longest trace evaluate_cells records for replay. A recording takes
/// about 5.5 bytes per instruction (trace/packed_trace.hpp) and up to one
/// per worker is alive at once; longer detailed traces are generated once
/// per sim, as sampled ones always are.
inline constexpr std::uint64_t kMaxReplayInstructions = 2'000'000;

/// The per-app cell schedule shared by SweepRunner and FleetSimulator:
/// evaluates every (app, node) cell of `apps` × `nodes`. `nodes[0]` must be
/// 180 nm; its cell runs first and pins the app's heat-sink temperature,
/// then the app's scaled cells fan out as dependent tasks. Scaled nodes
/// whose sim-stage keys are equal (e.g. the two 65 nm voltages, which share
/// a frequency) run in one task, one after the other, so the later ones
/// are store hits and no worker waits on a peer's in-flight sim.
///
/// In detailed mode up to kMaxReplayInstructions, each app's instruction
/// stream is generated once: the 180 nm sim records it (trace::PackedTrace)
/// and the scaled sims replay it, bit-identically; the last scaled task to
/// finish frees it. A pool task picks its work when it starts, a waiting
/// scaled group before the next app's base cell, so a recording is alive
/// only while a task of its app runs or waits: at most one per worker.
///
/// Results come back app-major, node-minor (slot app_i × nodes.size() +
/// node_i, which is also each cell's SweepCell::task_id) whatever the
/// execution order. With a null `pool` everything runs inline on the
/// caller. Every task drains before the first exception is rethrown.
std::vector<AppTechResult> evaluate_cells(
    const Evaluator& evaluator,
    const std::vector<const workloads::Workload*>& apps,
    const std::vector<scaling::TechPoint>& nodes, ThreadPool* pool,
    const CellHooks& hooks = {});

/// Executes the full study — every workload × every technology node plus
/// 180 nm qualification — on a dependency-aware parallel engine.
///
/// Cells run through evaluate_cells: per application, the 180 nm cell runs
/// first (it pins that app's heat-sink temperature); the scaled-node cells
/// then fan out as dependent tasks, and nodes that share a sim-stage key
/// (65 nm at 0.9 V and 1.0 V) are chained in one task so the second is a
/// store hit. Independent applications proceed concurrently, so with `jobs`
/// workers up to `jobs` cells are in flight. Results are merged in
/// canonical app-major, tech-minor order and qualification runs once every
/// 180 nm cell is done, which makes the result — including `sweep_to_csv`
/// serialization — **bitwise identical** to a serial sweep at any job
/// count.
///
/// The CSV is written atomically: concurrent processes sharing one
/// `cache_path` never observe a torn file.
class SweepRunner {
 public:
  struct Options {
    std::size_t jobs = 1;                 ///< pool size when owning
    /// Where run() writes the sweep CSV; "" writes none. Defaults under
    /// RAMP_OUT_DIR (see default_sweep_cache_path).
    std::string cache_path = default_sweep_cache_path();
    ProgressObserver* observer = nullptr; ///< nullptr → silent
    /// Reuse an externally owned pool (e.g. across several sweeps in one
    /// process) instead of creating one per run; overrides `jobs`.
    ThreadPool* pool = nullptr;
    /// Shared per-stage memoization store every cell schedules against
    /// (see stage_graph.hpp). Null: the runner creates one persisting under
    /// cfg.stage_cache_dir (memory-only when empty), so same-frequency
    /// cells share sim outputs within the sweep.
    std::shared_ptr<StageStore> stage_store;
  };

  explicit SweepRunner(EvaluationConfig cfg)
      : SweepRunner(std::move(cfg), Options{}) {}
  SweepRunner(EvaluationConfig cfg, Options opts);

  /// Runs the sweep and writes its CSV. Exceptions thrown by any cell are
  /// re-thrown here, after all in-flight cells have drained.
  SweepResult run() const;

  const EvaluationConfig& config() const { return cfg_; }
  const Options& options() const { return opts_; }

 private:
  SweepResult execute(ThreadPool& pool) const;

  EvaluationConfig cfg_;
  Options opts_;
};

/// The sweep CSV: a `# ramp_sweep_cache v1 hash=<config_hash>` header, the
/// qualification constants, then one write_result_row line per cell.
std::string sweep_to_csv(const SweepResult& sweep);

/// One AppTechResult as a single CSV row (no trailing newline) — the row
/// format of sweep_to_csv. Callers set the stream to round-trip precision
/// (17 digits).
void write_result_row(std::ostream& out, const AppTechResult& r);

/// The sweep CSV header's stamp: a frozen digest of the result-affecting
/// config fields. Not a cache key — the workload profiles and power biases
/// it never sees are covered by the stage keys.
std::uint64_t config_hash(const EvaluationConfig& cfg);

}  // namespace ramp::pipeline
