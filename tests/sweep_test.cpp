// Tests for the sweep runner: qualification, worst-case, the CSV format and
// the stage store it schedules against.
#include "pipeline/sweep.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/stage_graph.hpp"
#include "util/error.hpp"

namespace ramp::pipeline {
namespace {

// One shared quick sweep for all tests in this file (computed once).
const SweepResult& quick_sweep() {
  static const SweepResult sweep = [] {
    EvaluationConfig cfg;
    cfg.trace_instructions = 20'000;
    SweepRunner::Options opts;
    opts.cache_path.clear();
    return SweepRunner(std::move(cfg), std::move(opts)).run();
  }();
  return sweep;
}

TEST(SweepTest, CoversEveryAppTechCell) {
  const auto& sweep = quick_sweep();
  EXPECT_EQ(sweep.results.size(), 16u * 5u);
  for (const auto& w : workloads::spec2k_suite()) {
    for (const auto tp : scaling::kAllTechPoints) {
      EXPECT_NO_THROW(sweep.at(w.name, tp));
    }
  }
  EXPECT_THROW(sweep.at("nonexistent", scaling::TechPoint::k180nm),
               InvalidArgument);
}

TEST(SweepTest, QualificationYields4000FitAt180nm) {
  const auto& sweep = quick_sweep();
  double total = 0.0;
  for (const auto& r : sweep.results) {
    if (r.tech == scaling::TechPoint::k180nm) {
      total += sweep.qualified_fits(r).total();
    }
  }
  EXPECT_NEAR(total / 16.0, 4000.0, 1.0);
}

TEST(SweepTest, EachMechanismAverages1000At180nm) {
  const auto& sweep = quick_sweep();
  for (int m = 0; m < core::kNumMechanisms; ++m) {
    double fp = sweep.average_mechanism_fit(workloads::Suite::kSpecFp,
                                            scaling::TechPoint::k180nm,
                                            static_cast<core::Mechanism>(m));
    double in = sweep.average_mechanism_fit(workloads::Suite::kSpecInt,
                                            scaling::TechPoint::k180nm,
                                            static_cast<core::Mechanism>(m));
    EXPECT_NEAR((fp + in) / 2.0, 1000.0, 1.0)
        << core::mechanism_name(static_cast<core::Mechanism>(m));
  }
}

TEST(SweepTest, WorstCaseDominatesEveryApp) {
  // §5.2: the worst-case FIT is distinctly higher than any individual app.
  const auto& sweep = quick_sweep();
  for (const auto tp : scaling::kAllTechPoints) {
    const double wc = sweep.worst_case(tp).total();
    for (const auto& r : sweep.results) {
      if (r.tech != tp) continue;
      EXPECT_GE(wc, sweep.qualified_fits(r).total())
          << r.app << " at " << scaling::tech_name(tp);
    }
  }
}

TEST(SweepTest, FailureRateRisesMonotonicallyThroughSharedVoltageNodes) {
  // 180 -> 130 -> 90 -> 65 (1.0V): average FIT must increase (§5.2).
  const auto& sweep = quick_sweep();
  const scaling::TechPoint order[] = {
      scaling::TechPoint::k180nm, scaling::TechPoint::k130nm,
      scaling::TechPoint::k90nm, scaling::TechPoint::k65nm_1V0};
  double prev = 0.0;
  for (const auto tp : order) {
    const double avg = sweep.average_total_fit_all(tp);
    EXPECT_GT(avg, prev) << scaling::tech_name(tp);
    prev = avg;
  }
}

TEST(SweepTest, The1V0PointIsWorseThanThe0V9Point) {
  const auto& sweep = quick_sweep();
  EXPECT_GT(sweep.average_total_fit_all(scaling::TechPoint::k65nm_1V0),
            sweep.average_total_fit_all(scaling::TechPoint::k65nm_0V9));
}

TEST(SweepTest, CellsReturnsSuiteInTable3Order) {
  const auto& sweep = quick_sweep();
  const auto fp_cells =
      sweep.cells(workloads::Suite::kSpecFp, scaling::TechPoint::k180nm);
  ASSERT_EQ(fp_cells.size(), 8u);
  EXPECT_EQ(fp_cells.front()->app, "ammp");
  EXPECT_EQ(fp_cells.back()->app, "apsi");
}

TEST(SweepTest, CsvRoundtripPreservesEverything) {
  // The CSV is the golden format: its 17-digit rows must read back to the
  // exact doubles and counters of every cell.
  const auto& sweep = quick_sweep();
  std::istringstream csv(sweep_to_csv(sweep));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "# ramp_sweep_cache v1 hash=" +
                      std::to_string(config_hash(sweep.config)));
  ASSERT_TRUE(std::getline(csv, line));
  double em = 0.0, sm = 0.0, tddb = 0.0, tc = 0.0;
  ASSERT_EQ(std::sscanf(line.c_str(),
                        "# constants em=%lf sm=%lf tddb=%lf tc=%lf", &em, &sm,
                        &tddb, &tc),
            4);
  EXPECT_EQ(em, sweep.constants.em);
  EXPECT_EQ(tddb, sweep.constants.tddb);
  for (const auto& r : sweep.results) {
    ASSERT_TRUE(std::getline(csv, line));
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
    ASSERT_GE(cells.size(), 11u);
    EXPECT_EQ(cells[0], r.app);
    EXPECT_EQ(scaling::kAllTechPoints.at(std::stoul(cells[1])), r.tech);
    EXPECT_EQ(std::stod(cells[2]), r.ipc);
    EXPECT_EQ(std::stod(cells[5]), r.avg_total_power_w);
    EXPECT_EQ(std::stod(cells[6]), r.max_structure_temp_k);
    EXPECT_EQ(std::stod(cells[10]), r.raw_fits.tc_fit);
    std::size_t i = 11;
    for (const auto& fits : r.raw_fits.by_structure) {
      for (double v : fits) EXPECT_EQ(std::stod(cells.at(i++)), v);
    }
    EXPECT_EQ(std::stoull(cells.at(i)), r.run.cycles);
  }
  EXPECT_FALSE(std::getline(csv, line));
}

TEST(SweepTest, CacheRejectsMismatchedConfig) {
  // A store warmed under one config never answers another: the fit-stage
  // keys differ, so every cell recomputes.
  obs::MetricsRegistry reg(true);
  StageStore::Options sopts;
  sopts.registry = &reg;
  const auto store = std::make_shared<StageStore>(std::move(sopts));
  EvaluationConfig cfg;
  cfg.trace_instructions = 3'000;
  SweepRunner::Options opts;
  opts.cache_path.clear();
  opts.stage_store = store;
  SweepRunner(cfg, opts).run();
  EXPECT_EQ(reg.counter("ramp_stage_fit_misses_total").value(), 80u);

  cfg.trace_instructions += 1;
  const auto other = SweepRunner(cfg, opts).run();
  EXPECT_EQ(reg.counter("ramp_stage_fit_misses_total").value(), 160u);
  EXPECT_EQ(reg.counter("ramp_stage_fit_hits_total").value(), 0u);
  SweepRunner::Options fresh;
  fresh.cache_path.clear();
  EXPECT_EQ(sweep_to_csv(other), sweep_to_csv(SweepRunner(cfg, fresh).run()));
}

TEST(SweepTest, CacheRejectsGarbage) {
  // Corrupt persisted rows are recomputed, never trusted: the rerun matches
  // the original sweep byte for byte.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ramp_sweep_test_garbage_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  EvaluationConfig cfg;
  cfg.trace_instructions = 3'000;
  cfg.stage_cache_dir = dir.string();
  SweepRunner::Options opts;
  opts.cache_path.clear();
  const std::string first = sweep_to_csv(SweepRunner(cfg, opts).run());
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ofstream(e.path(), std::ios::trunc) << "not a cache file\n";
    ++files;
  }
  EXPECT_EQ(files, 320u);  // 16 traces + 64 sims + 80 × power/thermal/fit
  EXPECT_EQ(sweep_to_csv(SweepRunner(cfg, opts).run()), first);
  fs::remove_all(dir);
}

TEST(SweepTest, DefaultCachePathResolvesUnderOutDir) {
  // Regression: the default used to be the CWD-relative literal
  // "ramp_sweep_cache.csv", escaping the RAMP_OUT_DIR artifact convention
  // every other output follows.
  const char* saved = std::getenv("RAMP_OUT_DIR");
  const std::string restore = saved != nullptr ? saved : "";

  ::setenv("RAMP_OUT_DIR", "/tmp/ramp_sweep_path_test", 1);
  EXPECT_EQ(default_sweep_cache_path(),
            "/tmp/ramp_sweep_path_test/ramp_sweep_cache.csv");
  EXPECT_EQ(SweepRunner::Options{}.cache_path,
            "/tmp/ramp_sweep_path_test/ramp_sweep_cache.csv");

  ::unsetenv("RAMP_OUT_DIR");
  EXPECT_EQ(SweepRunner::Options{}.cache_path, "out/ramp_sweep_cache.csv");

  if (saved != nullptr) ::setenv("RAMP_OUT_DIR", restore.c_str(), 1);
}

TEST(SweepTest, ConfigHashSensitivity) {
  EvaluationConfig a, b;
  EXPECT_EQ(config_hash(a), config_hash(b));
  b.thermal.r_vertical_specific *= 1.01;
  EXPECT_NE(config_hash(a), config_hash(b));
  b = a;
  b.seed += 1;
  EXPECT_NE(config_hash(a), config_hash(b));
}

}  // namespace
}  // namespace ramp::pipeline
