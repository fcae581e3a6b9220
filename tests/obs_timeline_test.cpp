// Flight-recorder tests: deterministic stride-doubling downsampling in
// TimelineBuffer, the anomaly watchdog's rules and never-throws contract,
// golden CSV / parseable NDJSON exports, and the evaluator integration —
// including the acceptance bar that a recorded timeline's final point
// reproduces the sweep-reported per-mechanism FIT and that recording never
// changes a result.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/mechanisms.hpp"
#include "obs/span.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/sweep.hpp"
#include "scaling/technology.hpp"
#include "serve/json.hpp"
#include "sim/structures.hpp"
#include "util/error.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::obs {
namespace {

/// Sets an environment variable for one test and restores it on exit.
class ScopedEnv {
 public:
  ScopedEnv(std::string name, const char* value) : name_(std::move(name)) {
    if (const char* old = std::getenv(name_.c_str())) old_ = old;
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_.c_str(), old_->c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> old_;
};

TimelinePoint pt(std::uint64_t interval, double temp = 350.0,
                 double fit = 100.0) {
  TimelinePoint p;
  p.interval = interval;
  p.time_s = 1e-6 * static_cast<double>(interval + 1);
  p.ipc = 1.25;
  p.dyn_power_w = 10.0;
  p.leak_power_w = 2.0;
  p.temp_k = {temp, temp - 1.0};
  p.fit_inst = {fit, fit / 2.0};
  p.fit_avg = {fit, fit / 2.0};
  return p;
}

TEST(TimelineBufferTest, KeepsEveryPointBelowCapacity) {
  TimelineBuffer buf(8);
  for (std::uint64_t i = 0; i < 5; ++i) buf.push(pt(i));
  EXPECT_EQ(buf.stride(), 1u);
  EXPECT_EQ(buf.pushed(), 5u);
  const auto pts = buf.points();
  ASSERT_EQ(pts.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(pts[i].interval, i);
}

TEST(TimelineBufferTest, StrideDoublingBoundsMemory) {
  TimelineBuffer buf(8);
  for (std::uint64_t i = 0; i < 1000; ++i) buf.push(pt(i));
  EXPECT_LE(buf.sampled().size(), 8u);
  // Stride is a power of two and every sampled interval is a multiple of it.
  const std::uint64_t stride = buf.stride();
  EXPECT_EQ(stride & (stride - 1), 0u);
  EXPECT_GT(stride, 1u);
  for (const auto& p : buf.sampled()) EXPECT_EQ(p.interval % stride, 0u);
  // Chronological and starting at interval 0.
  ASSERT_FALSE(buf.sampled().empty());
  EXPECT_EQ(buf.sampled().front().interval, 0u);
  for (std::size_t i = 1; i < buf.sampled().size(); ++i) {
    EXPECT_LT(buf.sampled()[i - 1].interval, buf.sampled()[i].interval);
  }
}

TEST(TimelineBufferTest, PointsAlwaysEndAtFinalInterval) {
  TimelineBuffer buf(4);
  for (std::uint64_t i = 0; i < 999; ++i) buf.push(pt(i));
  const auto pts = buf.points();
  ASSERT_FALSE(pts.empty());
  // 998 is not a multiple of the final stride, so points() patches it in.
  EXPECT_EQ(pts.back().interval, 998u);
  EXPECT_LE(pts.size(), 5u);  // capacity + the final-point patch
}

TEST(TimelineBufferTest, DeterministicForAGivenSequence) {
  TimelineBuffer a(16);
  TimelineBuffer b(16);
  for (std::uint64_t i = 0; i < 500; ++i) {
    a.push(pt(i, 350.0 + 0.01 * static_cast<double>(i)));
    b.push(pt(i, 350.0 + 0.01 * static_cast<double>(i)));
  }
  const auto pa = a.points();
  const auto pb = b.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].interval, pb[i].interval);
    EXPECT_EQ(pa[i].temp_k, pb[i].temp_k);
  }
}

TEST(TimelineBufferTest, RecentReturnsRawUndownsampledTail) {
  TimelineBuffer buf(4);
  for (std::uint64_t i = 0; i < 100; ++i) buf.push(pt(i));
  const auto tail = buf.recent(5);
  ASSERT_EQ(tail.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(tail[i].interval, 95u + i);
  // Bounded by the ring capacity even for huge k.
  EXPECT_EQ(buf.recent(1000).size(), TimelineBuffer::kRecentCapacity);
}

TEST(TimelineBufferTest, RejectsCapacityBelowTwo) {
  EXPECT_THROW(TimelineBuffer(1), InvalidArgument);
}

TEST(TimelineBufferTest, HugeBudgetIsABoundNotAnAllocation) {
  // A client-supplied budget may be as large as 2^53; storage must grow
  // with the points actually pushed rather than be reserved up front.
  TimelineBuffer buf(std::size_t{1} << 53);
  for (std::uint64_t i = 0; i < 100; ++i) buf.push(pt(i));
  EXPECT_EQ(buf.capacity(), std::size_t{1} << 53);
  EXPECT_EQ(buf.stride(), 1u);
  ASSERT_EQ(buf.points().size(), 100u);
  EXPECT_EQ(buf.points().back().interval, 99u);
}

TEST(WatchdogTest, OverTemperatureTripsExactlyOnce) {
  WatchdogRules rules;
  rules.max_temp_k = 360.0;
  Watchdog dog("gcc@90", rules);
  TimelineBuffer history(8);

  dog.check(pt(0, 350.0), history);
  history.push(pt(0, 350.0));
  EXPECT_TRUE(dog.incidents().empty());

  dog.check(pt(1, 365.0), history);
  history.push(pt(1, 365.0));
  dog.check(pt(2, 370.0), history);  // suppressed: rule already tripped

  ASSERT_EQ(dog.incidents().size(), 1u);
  EXPECT_EQ(dog.suppressed(), 1u);
  const Incident& inc = dog.incidents().front();
  EXPECT_EQ(inc.cell, "gcc@90");
  EXPECT_EQ(inc.rule, "over_temperature");
  EXPECT_EQ(inc.interval, 1u);
  EXPECT_DOUBLE_EQ(inc.value, 365.0);
  EXPECT_DOUBLE_EQ(inc.threshold, 360.0);
  // The dump carries the pre-trip history plus the trigger.
  ASSERT_GE(inc.points.size(), 2u);
  EXPECT_EQ(inc.points.back().interval, 1u);
}

TEST(WatchdogTest, NonFiniteValuesTrip) {
  Watchdog dog("cell", WatchdogRules{});
  TimelineBuffer history(8);
  TimelinePoint p = pt(0);
  p.temp_k[1] = std::nan("");
  dog.check(p, history);
  ASSERT_EQ(dog.incidents().size(), 1u);
  EXPECT_EQ(dog.incidents().front().rule, "non_finite");
}

TEST(WatchdogTest, FitSpikeArmsAfterMinimumHistory) {
  WatchdogRules rules;
  rules.max_temp_k = 0.0;  // isolate the spike rule
  rules.fit_spike_factor = 8.0;
  rules.spike_min_samples = 16;
  Watchdog dog("cell", rules);
  TimelineBuffer history(64);

  // A huge early value must NOT trip: the median is not armed yet.
  dog.check(pt(0, 350.0, 1e9), history);
  history.push(pt(0, 350.0, 1e9));
  EXPECT_TRUE(dog.incidents().empty());

  for (std::uint64_t i = 1; i < 20; ++i) {
    dog.check(pt(i), history);
    history.push(pt(i));
  }
  EXPECT_TRUE(dog.incidents().empty());

  // 100 + 50 per point -> total 150; 8x median needs > 1200.
  dog.check(pt(20, 350.0, 10'000.0), history);
  ASSERT_EQ(dog.incidents().size(), 1u);
  EXPECT_EQ(dog.incidents().front().rule, "fit_spike");
  EXPECT_GT(dog.incidents().front().value,
            dog.incidents().front().threshold);
}

CellTimeline tiny_timeline() {
  CellTimeline t;
  t.cell = "gcc@65-1.0";
  t.temp_names = {"IFU", "LSU"};
  t.fit_names = {"EM"};
  t.intervals = 2;
  t.stride = 1;
  t.capacity = 8;
  TimelinePoint p0 = pt(0);
  p0.temp_k = {350.0, 349.5};
  p0.fit_inst = {100.0};
  p0.fit_avg = {100.0};
  TimelinePoint p1 = pt(1);
  p1.temp_k = {350.25, 349.75};
  p1.fit_inst = {110.0};
  p1.fit_avg = {105.0};
  t.points = {p0, p1};
  return t;
}

TEST(TimelineCsvTest, GoldenOutput) {
  const std::string expected =
      "# ramp_timeline v1 cell=gcc@65-1.0 intervals=2 stride=1 capacity=8\n"
      "interval,time_s,ipc,dyn_w,leak_w,temp_k_IFU,temp_k_LSU,fit_inst_EM,"
      "fit_avg_EM\n"
      "0,9.9999999999999995e-07,1.25,10,2,350,349.5,100,100\n"
      "1,1.9999999999999999e-06,1.25,10,2,350.25,349.75,110,105\n";
  EXPECT_EQ(timeline_to_csv(tiny_timeline()), expected);
}

TEST(TimelineNdjsonTest, EveryLineParsesWithTheServeCodec) {
  const std::string body = timeline_to_ndjson(tiny_timeline());
  std::istringstream in(body);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // metadata
  const serve::Json meta = serve::Json::parse(line);
  EXPECT_EQ(meta.find("cell")->as_string("cell"), "gcc@65-1.0");
  EXPECT_EQ(meta.find("intervals")->as_number("intervals"), 2.0);
  ASSERT_NE(meta.find("temp_names"), nullptr);

  std::size_t points = 0;
  while (std::getline(in, line)) {
    const serve::Json p = serve::Json::parse(line);
    EXPECT_EQ(p.find("interval")->as_number("interval"),
              static_cast<double>(points));
    ASSERT_NE(p.find("temp_k"), nullptr);
    ++points;
  }
  EXPECT_EQ(points, 2u);
}

TEST(IncidentJsonTest, ParsesAndMapsNanToNull) {
  Incident inc;
  inc.cell = "art@130";
  inc.rule = "non_finite";
  inc.interval = 7;
  inc.time_s = 7e-6;
  inc.value = std::nan("");
  inc.threshold = 0.0;
  inc.detail = "non-finite temperature";
  TimelinePoint p = pt(7);
  p.temp_k[0] = std::nan("");
  inc.points = {p};

  const serve::Json j = serve::Json::parse(incident_to_json(inc));
  EXPECT_EQ(j.find("rule")->as_string("rule"), "non_finite");
  EXPECT_TRUE(j.find("value")->is_null());
  ASSERT_NE(j.find("points"), nullptr);
}

TEST(TimelineFileStemTest, MapsSeparatorsToUnderscore) {
  EXPECT_EQ(timeline_file_stem("gcc@65-1.0"), "gcc_65-1.0");
  EXPECT_EQ(timeline_file_stem("a/b\\c:d"), "a_b_c_d");
}

// ---- evaluator integration -------------------------------------------------

pipeline::EvaluationConfig quick_config() {
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 5'000;
  return cfg;
}

TEST(EvaluatorTimelineTest, FinalPointReproducesReportedFit) {
  pipeline::EvaluationConfig cfg = quick_config();
  cfg.timeline_enabled = true;
  const pipeline::Evaluator ev(cfg);
  const auto r =
      ev.evaluate(workloads::workload("gcc"), scaling::TechPoint::k180nm);

  ASSERT_FALSE(r.timeline.empty());
  EXPECT_EQ(r.timeline.cell, "gcc@180");
  ASSERT_EQ(r.timeline.temp_names.size(),
            static_cast<std::size_t>(sim::kNumStructures));
  ASSERT_EQ(r.timeline.fit_names.size(),
            static_cast<std::size_t>(core::kNumMechanisms));
  EXPECT_EQ(r.timeline.fit_names.front(), "EM");

  // The acceptance bar: the recorded final interval carries exactly the
  // per-mechanism FIT the sweep reports for the cell.
  const auto& last = r.timeline.points.back();
  const auto mech = r.raw_fits.by_mechanism();
  ASSERT_EQ(last.fit_avg.size(), mech.size());
  for (std::size_t m = 0; m < mech.size(); ++m) {
    EXPECT_DOUBLE_EQ(last.fit_avg[m], mech[m]);
  }
  EXPECT_EQ(last.interval + 1, r.timeline.intervals);
}

TEST(EvaluatorTimelineTest, RecordingNeverChangesTheResult) {
  const auto& w = workloads::workload("ammp");
  pipeline::EvaluationConfig on = quick_config();
  on.timeline_enabled = true;
  const auto with = pipeline::Evaluator(on).evaluate(
      w, scaling::TechPoint::k90nm, 345.0);
  const auto without = pipeline::Evaluator(quick_config())
                           .evaluate(w, scaling::TechPoint::k90nm, 345.0);
  std::ostringstream a;
  std::ostringstream b;
  a.precision(17);
  b.precision(17);
  pipeline::write_result_row(a, with);
  pipeline::write_result_row(b, without);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_TRUE(without.timeline.empty());
}

TEST(EvaluatorTimelineTest, PointBudgetBoundsTheExport) {
  pipeline::EvaluationConfig cfg = quick_config();
  cfg.timeline_enabled = true;
  cfg.timeline_points = 4;
  const pipeline::Evaluator ev(cfg);
  const auto r =
      ev.evaluate(workloads::workload("mesa"), scaling::TechPoint::k180nm);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_LE(r.timeline.points.size(), 5u);  // budget + final-point patch
  EXPECT_EQ(r.timeline.capacity, 4u);
}

TEST(EvaluatorWatchdogTest, ForcedOverTemperatureTripsOneIncident) {
  pipeline::EvaluationConfig cfg = quick_config();
  cfg.timeline_enabled = true;
  cfg.watchdog.max_temp_k = 250.0;  // far below any simulated temperature
  const pipeline::Evaluator ev(cfg);
  const auto r =
      ev.evaluate(workloads::workload("gzip"), scaling::TechPoint::k180nm);

  std::size_t over_temp = 0;
  for (const auto& inc : r.incidents) {
    if (inc.rule == "over_temperature") ++over_temp;
  }
  EXPECT_EQ(over_temp, 1u);
  const auto& inc = r.incidents.front();
  EXPECT_EQ(inc.cell, "gzip@180");
  EXPECT_GE(inc.points.size(), 1u);
  // The evaluation itself is unharmed: a finished result with sane physics.
  EXPECT_GT(r.raw_fits.total(), 0.0);
  EXPECT_GT(r.max_structure_temp_k, 250.0);
}

TEST(FromEnvTest, TimelineKnobsParse) {
  ScopedEnv timeline("RAMP_TIMELINE", "out/tl");
  ScopedEnv points("RAMP_TIMELINE_POINTS", "64");
  ScopedEnv trace("RAMP_TRACE_OUT", "out/trace.json");
  ScopedEnv temp("RAMP_WATCHDOG_TEMP_K", "390.5");
  const auto cfg = pipeline::EvaluationConfig::from_env(1000);
  EXPECT_TRUE(cfg.timeline_enabled);
  EXPECT_EQ(cfg.timeline_dir, "out/tl");
  EXPECT_EQ(cfg.timeline_points, 64u);
  EXPECT_EQ(cfg.trace_out, "out/trace.json");
  EXPECT_DOUBLE_EQ(cfg.watchdog.max_temp_k, 390.5);
}

TEST(FromEnvTest, TimelineOffSpellingsDisable) {
  ScopedEnv timeline("RAMP_TIMELINE", "off");
  const auto cfg = pipeline::EvaluationConfig::from_env(1000);
  EXPECT_FALSE(cfg.timeline_enabled);
}

TEST(FromEnvTest, TimelineKnobsStayOutOfTheConfigHash) {
  const auto base = pipeline::EvaluationConfig::from_env(1000);
  pipeline::EvaluationConfig obs = base;
  obs.timeline_enabled = true;
  obs.timeline_points = 16;
  obs.trace_out = "x.json";
  obs.watchdog.max_temp_k = 1.0;
  EXPECT_EQ(pipeline::config_hash(base), pipeline::config_hash(obs));
}

TEST(FromEnvTest, RejectsBadTimelineValues) {
  {
    ScopedEnv points("RAMP_TIMELINE_POINTS", "1");
    EXPECT_THROW(pipeline::EvaluationConfig::from_env(1000), InvalidArgument);
  }
  {
    ScopedEnv temp("RAMP_WATCHDOG_TEMP_K", "hot");
    EXPECT_THROW(pipeline::EvaluationConfig::from_env(1000), InvalidArgument);
  }
}

}  // namespace
}  // namespace ramp::obs
