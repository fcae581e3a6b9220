// Tests for the stream-based evaluation API and transient recording (the
// flight-recorder timeline at full resolution).
#include <gtest/gtest.h>

#include "pipeline/evaluator.hpp"
#include "trace/phased_trace.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/error.hpp"

namespace ramp::pipeline {
namespace {

EvaluationConfig quick_config() {
  EvaluationConfig cfg;
  cfg.trace_instructions = 25'000;
  return cfg;
}

TEST(EvaluateStreamTest, MatchesWorkloadEvaluationForSameTrace) {
  // evaluate() is a thin wrapper over evaluate_stream(); feeding the same
  // synthetic stream manually must give identical results.
  const Evaluator ev(quick_config());
  const auto& w = workloads::workload("mesa");
  const auto via_workload = ev.evaluate(w, scaling::TechPoint::k130nm);

  // Recreate the exact trace the wrapper builds (same seed derivation is
  // internal, so instead compare against a fixed-seed stream both ways).
  trace::SyntheticTrace s1(w.profile, quick_config().trace_instructions, 99);
  const auto a = ev.evaluate_stream(s1, "mesa-manual", w.power_bias,
                                    scaling::TechPoint::k130nm);
  trace::SyntheticTrace s2(w.profile, quick_config().trace_instructions, 99);
  const auto b = ev.evaluate_stream(s2, "mesa-manual", w.power_bias,
                                    scaling::TechPoint::k130nm);
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
  EXPECT_DOUBLE_EQ(a.raw_fits.total(), b.raw_fits.total());
  // And the wrapper's result is statistically consistent (same profile,
  // different seed): within a few percent.
  EXPECT_NEAR(a.ipc, via_workload.ipc, via_workload.ipc * 0.1);
}

TEST(EvaluateStreamTest, LabelCarriesThrough) {
  const Evaluator ev(quick_config());
  trace::SyntheticTrace s(workloads::workload("gzip").profile, 25'000, 3);
  const auto r =
      ev.evaluate_stream(s, "my-label", 1.0, scaling::TechPoint::k180nm);
  EXPECT_EQ(r.app, "my-label");
}

TEST(EvaluateStreamTest, IntervalTraceEmptyByDefault) {
  const Evaluator ev(quick_config());
  const auto r =
      ev.evaluate(workloads::workload("vpr"), scaling::TechPoint::k180nm);
  EXPECT_TRUE(r.timeline.empty());
}

// The flight-recorder timeline is the per-interval record: with a point
// budget at least the interval count it keeps every interval.
EvaluationConfig every_interval_config() {
  EvaluationConfig cfg = quick_config();
  cfg.timeline_enabled = true;
  cfg.timeline_points = std::uint64_t{1} << 20;  // a bound, not an allocation
  return cfg;
}

TEST(EvaluateStreamTest, IntervalTraceRecordsWhenEnabled) {
  const Evaluator ev(every_interval_config());
  const auto r =
      ev.evaluate(workloads::workload("vpr"), scaling::TechPoint::k180nm);
  const obs::CellTimeline& t = r.timeline;
  ASSERT_FALSE(t.empty());
  EXPECT_EQ(t.stride, 1u);
  ASSERT_EQ(t.points.size(), t.intervals);
  double prev_t = 0.0;
  for (std::size_t i = 0; i < t.points.size(); ++i) {
    const auto& p = t.points[i];
    EXPECT_EQ(p.interval, i);
    EXPECT_GT(p.time_s, prev_t);  // strictly increasing timestamps
    prev_t = p.time_s;
    EXPECT_GT(p.hottest_temp_k(), 318.0);
    EXPECT_GT(p.total_power_w(), 1.0);
    EXPECT_GE(p.ipc, 0.0);
  }
}

TEST(EvaluateStreamTest, QualifiedSampleAverageTracksRunSummary) {
  // The time-average of the recorded instantaneous qualified FITs must
  // reproduce the run's qualified summary (same averaging, by
  // construction; this guards the per-interval bookkeeping).
  const Evaluator ev(every_interval_config());
  const auto r =
      ev.evaluate(workloads::workload("gap"), scaling::TechPoint::k90nm);
  ASSERT_EQ(r.timeline.stride, 1u);
  ASSERT_EQ(r.timeline.points.size(), r.timeline.intervals);
  core::MechanismConstants k;
  k.em = 2.0;
  k.sm = 3.0;
  k.tddb = 5.0;
  k.tc = 7.0;
  // Time-weighted average of the points (equal interval durations except
  // the tail, so weight by the time deltas).
  double weighted = 0.0, total_time = 0.0, prev_t = 0.0;
  for (const auto& p : r.timeline.points) {
    ASSERT_EQ(p.fit_inst.size(),
              static_cast<std::size_t>(core::kNumMechanisms));
    double qualified = 0.0;
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      qualified += p.fit_inst[static_cast<std::size_t>(m)] *
                   k.get(static_cast<core::Mechanism>(m));
    }
    const double dt = p.time_s - prev_t;
    weighted += qualified * dt;
    total_time += dt;
    prev_t = p.time_s;
  }
  const double expect = scale_summary(r.raw_fits, k).total();
  EXPECT_NEAR(weighted / total_time, expect, expect * 1e-6);
}

TEST(EvaluateStreamTest, PhasedStreamWorksEndToEnd) {
  const Evaluator ev(quick_config());
  trace::GeneratorProfile a = workloads::workload("crafty").profile;
  trace::GeneratorProfile b = workloads::workload("ammp").profile;
  trace::PhasedTrace phased({a, b}, 25'000, 5'000, 4);
  const auto r =
      ev.evaluate_stream(phased, "phased", 1.0, scaling::TechPoint::k65nm_1V0);
  EXPECT_GT(r.ipc, 0.3);
  EXPECT_GT(r.raw_fits.total(), 0.0);
}

TEST(EvaluateStreamTest, RejectsNonPositiveBias) {
  const Evaluator ev(quick_config());
  trace::SyntheticTrace s(workloads::workload("gzip").profile, 1000, 5);
  EXPECT_THROW(
      ev.evaluate_stream(s, "x", 0.0, scaling::TechPoint::k180nm),
      InvalidArgument);
}

}  // namespace
}  // namespace ramp::pipeline
