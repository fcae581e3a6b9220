// Determinism and observer tests for the parallel SweepRunner: any job
// count must serialize byte-identically to a serial (jobs = 1) run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/qualification.hpp"
#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ramp::pipeline {
namespace {

EvaluationConfig quick_config() {
  EvaluationConfig cfg;
  cfg.trace_instructions = 20'000;
  return cfg;
}

std::string runner_csv(std::size_t jobs, ProgressObserver* observer = nullptr);

// The serial baseline every test compares against, computed once.
const std::string& serial_csv() {
  static const std::string csv = runner_csv(1);
  return csv;
}

std::string runner_csv(std::size_t jobs, ProgressObserver* observer) {
  SweepRunner::Options opts;
  opts.jobs = jobs;
  opts.cache_path = "";
  opts.observer = observer;
  return sweep_to_csv(SweepRunner(quick_config(), opts).run());
}

TEST(SweepParallelTest, SerialRerunIsByteForByteDeterministic) {
  EXPECT_EQ(runner_csv(1), serial_csv());
}

TEST(SweepParallelTest, FourJobsMatchSerialByteForByte) {
  EXPECT_EQ(runner_csv(4), serial_csv());
}

TEST(SweepParallelTest, ExternalPoolReuseMatchesToo) {
  ThreadPool pool(3);
  SweepRunner::Options opts;
  opts.cache_path = "";
  opts.pool = &pool;
  const SweepRunner runner(quick_config(), opts);
  EXPECT_EQ(sweep_to_csv(runner.run()), serial_csv());
  EXPECT_EQ(sweep_to_csv(runner.run()), serial_csv());  // pool still usable
}

// The sweep generates each app's stream once and replays it at the scaled
// nodes; the same grid evaluated app by app, every sim generating its own
// stream, must serialize to the same bytes.
TEST(SweepParallelTest, ReplayedSweepMatchesStreamingEvaluation) {
  const Evaluator evaluator(quick_config());
  SweepResult streamed;
  streamed.config = quick_config();
  std::vector<core::FitSummary> raw_180;
  for (const auto& w : workloads::spec2k_suite()) {
    for (auto& r : evaluator.evaluate_app(w)) {
      if (r.tech == scaling::TechPoint::k180nm) raw_180.push_back(r.raw_fits);
      streamed.results.push_back(std::move(r));
    }
  }
  streamed.constants = core::qualify(raw_180);
  const std::string want = sweep_to_csv(streamed);
  EXPECT_EQ(serial_csv(), want);
  EXPECT_EQ(runner_csv(4), want);
}

/// Runs the 80-cell schedule on `jobs` workers under `cfg` and returns the
/// live-stream counts evaluate_cells reported, in report order.
std::vector<std::size_t> stream_counts(const EvaluationConfig& cfg,
                                       std::size_t jobs) {
  std::vector<const workloads::Workload*> apps;
  for (const auto& w : workloads::spec2k_suite()) apps.push_back(&w);
  std::vector<scaling::TechPoint> nodes = {scaling::TechPoint::k180nm};
  for (const auto tp : scaling::kAllTechPoints) {
    if (tp != scaling::TechPoint::k180nm) nodes.push_back(tp);
  }
  std::mutex mutex;
  std::vector<std::size_t> counts;
  CellHooks hooks;
  hooks.on_stream_count = [&](std::size_t live) {
    const std::lock_guard<std::mutex> lock(mutex);
    counts.push_back(live);
  };
  ThreadPool pool(jobs);
  const Evaluator evaluator(cfg, std::make_shared<StageStore>());
  const auto cells = evaluate_cells(evaluator, apps, nodes, &pool, hooks);
  EXPECT_EQ(cells.size(), 80u);
  return counts;
}

TEST(SweepParallelTest, AtMostOneRecordedStreamPerWorkerIsLive) {
  for (const std::size_t jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    const auto counts = stream_counts(quick_config(), jobs);
    // Each app's stream is opened once and freed once; every value the live
    // count takes is reported exactly once.
    ASSERT_EQ(counts.size(), 32u);
    EXPECT_EQ(*std::min_element(counts.begin(), counts.end()), 0u);
    EXPECT_GE(*std::max_element(counts.begin(), counts.end()), 1u);
    EXPECT_LE(*std::max_element(counts.begin(), counts.end()), jobs);
  }
}

TEST(SweepParallelTest, SampledSweepsNeverRecordStreams) {
  EvaluationConfig cfg = quick_config();
  cfg.sim_mode = sim::SimMode::kSampled;
  EXPECT_TRUE(stream_counts(cfg, 2).empty());
}

TEST(SweepParallelTest, RejectsZeroJobs) {
  SweepRunner::Options opts;
  opts.jobs = 0;
  EXPECT_THROW(SweepRunner(quick_config(), opts), InvalidArgument);
}

// Records every event; SweepRunner serializes observer calls, so no locking.
class RecordingObserver final : public ProgressObserver {
 public:
  void on_sweep_begin(std::size_t total_cells, std::size_t jobs) override {
    total_cells_ = total_cells;
    jobs_ = jobs;
  }
  void on_cell_start(const SweepCell& cell) override { started_.push_back(cell); }
  void on_cell_finish(const SweepCell& cell, const AppTechResult& result,
                      double wall_seconds) override {
    finished_.push_back(cell);
    EXPECT_EQ(result.app, cell.app);
    EXPECT_EQ(result.tech, cell.tech);
    EXPECT_GE(wall_seconds, 0.0);
  }
  void on_sweep_end(double wall_seconds) override {
    end_wall_s_ = wall_seconds;
  }

  std::size_t total_cells_ = 0;
  std::size_t jobs_ = 0;
  std::vector<SweepCell> started_;
  std::vector<SweepCell> finished_;
  double end_wall_s_ = -1.0;
};

TEST(SweepParallelTest, ObserverSeesEveryCellExactlyOnce) {
  RecordingObserver obs;
  runner_csv(4, &obs);
  EXPECT_EQ(obs.total_cells_, 80u);
  EXPECT_EQ(obs.jobs_, 4u);
  EXPECT_EQ(obs.started_.size(), 80u);
  EXPECT_EQ(obs.finished_.size(), 80u);
  EXPECT_GE(obs.end_wall_s_, 0.0);

  // Deterministic task IDs: the finish events form a permutation of 0..79,
  // and each ID maps to the canonical (app-major, tech-minor) cell.
  std::set<std::uint64_t> ids;
  for (const auto& cell : obs.finished_) {
    EXPECT_TRUE(ids.insert(cell.task_id).second);
    EXPECT_LT(cell.task_id, 80u);
    EXPECT_GE(cell.worker_id, 0);
    EXPECT_LT(cell.worker_id, 4);
    const auto& app = workloads::spec2k_suite()[cell.task_id / 5];
    EXPECT_EQ(cell.app, app.name);
    if (cell.task_id % 5 == 0) {
      EXPECT_EQ(cell.tech, scaling::TechPoint::k180nm);
    }
  }
  EXPECT_EQ(ids.size(), 80u);

  // Dependency order: within an app, the 180 nm cell starts before any
  // scaled cell finishes... stronger: base start precedes scaled starts.
  std::vector<std::size_t> start_pos(80, 0);
  for (std::size_t i = 0; i < obs.started_.size(); ++i) {
    start_pos[obs.started_[i].task_id] = i;
  }
  for (std::size_t app = 0; app < 16; ++app) {
    for (std::size_t node = 1; node < 5; ++node) {
      EXPECT_LT(start_pos[app * 5], start_pos[app * 5 + node]);
    }
  }
}

TEST(SweepParallelTest, CacheRoundtripThroughRunner) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "ramp_sweep_parallel_test_cache.csv").string();
  const fs::path store_dir =
      fs::temp_directory_path() / "ramp_sweep_parallel_test_store";
  fs::remove(path);
  fs::remove_all(store_dir);

  EvaluationConfig cfg;
  cfg.trace_instructions = 5'000;
  cfg.stage_cache_dir = store_dir.string();
  SweepRunner::Options opts;
  opts.jobs = 4;
  opts.cache_path = path;
  const auto first = SweepRunner(cfg, opts).run();
  ASSERT_TRUE(fs::exists(path));
  // No torn temp files left behind by the atomic write.
  for (const auto& e : fs::directory_iterator(fs::temp_directory_path())) {
    EXPECT_EQ(e.path().string().find("ramp_sweep_parallel_test_cache.csv.tmp"),
              std::string::npos);
  }

  // A second runner (a fresh store on the same directory) answers every
  // cell from its persisted fit row: nothing is recomputed.
  obs::MetricsRegistry reg(true);
  StageStore::Options sopts;
  sopts.dir = store_dir.string();
  sopts.registry = &reg;
  opts.stage_store = std::make_shared<StageStore>(std::move(sopts));
  const auto second = SweepRunner(cfg, opts).run();
  EXPECT_EQ(reg.counter("ramp_stage_fit_hits_total").value(), 80u);
  EXPECT_EQ(reg.counter("ramp_stage_fit_misses_total").value(), 0u);
  EXPECT_EQ(reg.counter("ramp_stage_sim_misses_total").value(), 0u);
  EXPECT_EQ(sweep_to_csv(second), sweep_to_csv(first));

  // A memory-only store ignores the directory entirely.
  obs::MetricsRegistry cold_reg(true);
  StageStore::Options cold;
  cold.registry = &cold_reg;
  opts.stage_store = std::make_shared<StageStore>(std::move(cold));
  EXPECT_EQ(sweep_to_csv(SweepRunner(cfg, opts).run()), sweep_to_csv(first));
  EXPECT_EQ(cold_reg.counter("ramp_stage_fit_misses_total").value(), 80u);
  fs::remove(path);
  fs::remove_all(store_dir);
}

}  // namespace
}  // namespace ramp::pipeline
