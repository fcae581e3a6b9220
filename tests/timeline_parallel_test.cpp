// Flight-recorder concurrency tests (run under TSan via `ctest -L
// concurrency`): recording timelines must not perturb sweep results at any
// job count, the exported per-cell CSVs must be byte-identical between
// jobs=1 and jobs=4 (the stride-doubling sketch is a pure function of the
// interval sequence), and a watchdog trip in every cell must never abort
// the sweep.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "obs/timeline.hpp"
#include "pipeline/sweep.hpp"

namespace ramp::pipeline {
namespace {

EvaluationConfig quick_config(bool timeline) {
  EvaluationConfig cfg;
  cfg.trace_instructions = 8'000;
  cfg.timeline_enabled = timeline;
  cfg.timeline_points = 32;
  return cfg;
}

SweepResult run(const EvaluationConfig& cfg, std::size_t jobs) {
  SweepRunner::Options opts;
  opts.jobs = jobs;
  opts.cache_path = "";
  return SweepRunner(cfg, opts).run();
}

std::map<std::string, std::string> csv_by_cell(const SweepResult& sweep) {
  std::map<std::string, std::string> out;
  for (const auto& r : sweep.results) {
    EXPECT_FALSE(r.timeline.empty());
    out[r.timeline.cell] = obs::timeline_to_csv(r.timeline);
  }
  return out;
}

TEST(TimelineParallelTest, RecordingDoesNotChangeSweepResults) {
  const std::string plain = sweep_to_csv(run(quick_config(false), 4));
  const std::string recorded = sweep_to_csv(run(quick_config(true), 4));
  EXPECT_EQ(plain, recorded);
}

TEST(TimelineParallelTest, TimelinesAreByteIdenticalAcrossJobCounts) {
  const auto serial = csv_by_cell(run(quick_config(true), 1));
  const auto parallel = csv_by_cell(run(quick_config(true), 4));
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (const auto& [cell, csv] : serial) {
    ASSERT_TRUE(parallel.count(cell)) << cell;
    EXPECT_EQ(parallel.at(cell), csv) << cell;
  }
}

TEST(TimelineParallelTest, WatchdogTripInEveryCellNeverAbortsTheSweep) {
  EvaluationConfig cfg = quick_config(true);
  cfg.watchdog.max_temp_k = 250.0;  // below any simulated temperature
  const SweepResult sweep = run(cfg, 4);

  // Every cell still completed...
  const std::string plain = sweep_to_csv(run(quick_config(true), 4));
  EXPECT_EQ(sweep_to_csv(sweep), plain);

  // ...and each carries exactly one over_temperature incident with the
  // required flight-recorder payload.
  ASSERT_FALSE(sweep.results.empty());
  for (const auto& r : sweep.results) {
    std::size_t over_temp = 0;
    for (const auto& inc : r.incidents) {
      if (inc.rule != "over_temperature") continue;
      ++over_temp;
      EXPECT_EQ(inc.cell, r.timeline.cell);
      EXPECT_GE(inc.points.size(), 1u);
    }
    EXPECT_EQ(over_temp, 1u) << r.timeline.cell;
  }
}

}  // namespace
}  // namespace ramp::pipeline
