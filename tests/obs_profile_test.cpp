// Profiler and Span tests, plus the end-to-end acceptance check: running the
// evaluator under the global profiler yields a per-stage profile whose
// pipeline stages sum to within 10% of the recorded evaluator wall time.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "scaling/technology.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::obs {
namespace {

TEST(StageNameTest, CoversEveryStage) {
  EXPECT_EQ(stage_name(Stage::kTraceGen), "trace_gen");
  EXPECT_EQ(stage_name(Stage::kSim), "sim");
  EXPECT_EQ(stage_name(Stage::kPower), "power");
  EXPECT_EQ(stage_name(Stage::kThermal), "thermal");
  EXPECT_EQ(stage_name(Stage::kFit), "fit");
  EXPECT_EQ(stage_name(Stage::kCache), "cache");
  EXPECT_EQ(stage_name(Stage::kSchedule), "schedule");
  EXPECT_EQ(stage_name(Stage::kTotal), "total");
}

TEST(ProfilerTest, RecordAggregatesIntoTotals) {
  Profiler prof(/*enabled=*/true);
  prof.record(Stage::kSim, 1.0);
  prof.record(Stage::kSim, 0.5, 3);
  prof.record(Stage::kFit, 0.25);
  const StageProfile profile = prof.snapshot();
  // Totals round-trip through integer nanoseconds, hence NEAR.
  EXPECT_NEAR(profile.seconds(Stage::kSim), 1.5, 1e-9);
  EXPECT_EQ(profile.totals[static_cast<std::size_t>(Stage::kSim)].spans, 4u);
  EXPECT_NEAR(profile.seconds(Stage::kFit), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(profile.seconds(Stage::kThermal), 0.0);
}

TEST(ProfilerTest, RecordCellAttributesPerCell) {
  Profiler prof(/*enabled=*/true);
  prof.record_cell(Stage::kSim, "gcc@90", 1.0);
  prof.record_cell(Stage::kSim, "gcc@90", 0.5);
  prof.record_cell(Stage::kSim, "art@180", 0.25);
  const StageProfile profile = prof.snapshot();
  EXPECT_NEAR(profile.seconds(Stage::kSim), 1.75, 1e-9);
  ASSERT_EQ(profile.cells.count("gcc@90"), 1u);
  ASSERT_EQ(profile.cells.count("art@180"), 1u);
  // Cell accumulators keep the raw doubles, so these compare exactly.
  EXPECT_DOUBLE_EQ(
      profile.cells.at("gcc@90")[static_cast<std::size_t>(Stage::kSim)].seconds,
      1.5);
  EXPECT_EQ(
      profile.cells.at("gcc@90")[static_cast<std::size_t>(Stage::kSim)].spans,
      2u);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler prof(/*enabled=*/false);
  EXPECT_FALSE(prof.enabled());
  prof.record(Stage::kSim, 1.0);
  prof.record_cell(Stage::kSim, "gcc@90", 1.0);
  {
    Span span(Stage::kFit, prof);
    EXPECT_DOUBLE_EQ(span.stop(), 0.0);
  }
  const StageProfile profile = prof.snapshot();
  EXPECT_DOUBLE_EQ(profile.seconds(Stage::kSim), 0.0);
  EXPECT_TRUE(profile.cells.empty());
}

TEST(ProfilerTest, ResetZeroesEverything) {
  Profiler prof(/*enabled=*/true);
  prof.record_cell(Stage::kSim, "gcc@90", 1.0);
  prof.reset();
  const StageProfile profile = prof.snapshot();
  EXPECT_DOUBLE_EQ(profile.seconds(Stage::kSim), 0.0);
  EXPECT_TRUE(profile.cells.empty());
}

TEST(ProfilerTest, MergesLogsFromExitedThreads) {
  Profiler prof(/*enabled=*/true);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&prof] {
      for (int i = 0; i < 100; ++i) prof.record(Stage::kSim, 0.01);
    });
  }
  for (auto& t : threads) t.join();
  const StageProfile profile = prof.snapshot();
  EXPECT_EQ(profile.totals[static_cast<std::size_t>(Stage::kSim)].spans, 400u);
  EXPECT_NEAR(profile.seconds(Stage::kSim), 4.0, 1e-9);
}

TEST(SpanTest, MeasuresElapsedWallTime) {
  Profiler prof(/*enabled=*/true);
  Span span(Stage::kSim, prof);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double first = span.stop();
  EXPECT_GE(first, 0.015);
  // stop() is idempotent: a second call records nothing and returns 0.
  EXPECT_DOUBLE_EQ(span.stop(), 0.0);
  const StageProfile profile = prof.snapshot();
  EXPECT_EQ(profile.totals[static_cast<std::size_t>(Stage::kSim)].spans, 1u);
  EXPECT_NEAR(profile.seconds(Stage::kSim), first, 1e-8);
}

TEST(SpanTest, CellSpanLandsInCellBreakdown) {
  Profiler prof(/*enabled=*/true);
  {
    Span span(Stage::kCache, "gcc@65-1.0", prof);
  }
  const StageProfile profile = prof.snapshot();
  ASSERT_EQ(profile.cells.count("gcc@65-1.0"), 1u);
  EXPECT_EQ(
      profile.cells.at("gcc@65-1.0")[static_cast<std::size_t>(Stage::kCache)].spans,
      1u);
}

// Acceptance: per-stage wall times from an instrumented evaluator run sum to
// within 10% of the evaluator's own recorded total. The run is the default
// 300k-instruction trace, long enough (tens of ms) that one scheduler
// preemption landing outside every stage span cannot eat the 10% window,
// as it could for a run of a few ms under parallel test load.
TEST(ProfileEndToEndTest, StageSumMatchesEvaluatorWallTime) {
  Profiler& prof = Profiler::global();
  if (!prof.enabled()) GTEST_SKIP() << "RAMP_METRICS=off in this environment";
  prof.reset();

  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 300'000;
  const pipeline::Evaluator evaluator(cfg);
  const auto& gcc = workloads::workload("gcc");
  evaluator.evaluate(gcc, scaling::TechPoint::k90nm);

  const StageProfile profile = prof.snapshot();
  const double total = profile.seconds(Stage::kTotal);
  ASSERT_GT(total, 0.0);
  const double stage_sum =
      profile.seconds(Stage::kTraceGen) + profile.seconds(Stage::kSim) +
      profile.seconds(Stage::kPower) + profile.seconds(Stage::kThermal) +
      profile.seconds(Stage::kFit) + profile.seconds(Stage::kCache);
  EXPECT_NEAR(stage_sum, total, 0.10 * total);

  // The run is attributed to its app@node cell.
  ASSERT_EQ(profile.cells.count("gcc@90"), 1u);
  const auto& cell = profile.cells.at("gcc@90");
  EXPECT_GT(cell[static_cast<std::size_t>(Stage::kSim)].seconds, 0.0);
  EXPECT_GT(cell[static_cast<std::size_t>(Stage::kTotal)].seconds, 0.0);
  prof.reset();
}

}  // namespace
}  // namespace ramp::obs
