// Per-request trace plumbing: ring wrap/order semantics, the epoch
// timebase, and the greedy lane packing behind the Perfetto export. The
// protocol core that fills and renders records (slow-log line included) is
// covered by serve_test / net_server_test.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/reqtrace.hpp"
#include "obs/trace_export.hpp"

namespace ramp::obs {
namespace {

RequestTrace rec_at(std::uint64_t start_ns, std::uint64_t total_ns,
                    const std::string& id) {
  RequestTrace r;
  r.trace_id = id;
  r.op = "eval";
  r.start_ns = start_ns;
  r.total_ns = total_ns;
  return r;
}

TEST(ReqTraceTest, PhaseNamesAreStableIdentifiers) {
  EXPECT_EQ(phase_name(Phase::kRead), "read");
  EXPECT_EQ(phase_name(Phase::kParse), "parse");
  EXPECT_EQ(phase_name(Phase::kAdmission), "admission");
  EXPECT_EQ(phase_name(Phase::kQueue), "queue");
  EXPECT_EQ(phase_name(Phase::kCache), "cache");
  EXPECT_EQ(phase_name(Phase::kCompute), "compute");
  EXPECT_EQ(phase_name(Phase::kSerialize), "serialize");
  EXPECT_EQ(phase_name(Phase::kFlush), "flush");
}

TEST(ReqTraceTest, RingKeepsNewestRecordsOldestFirst) {
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    ring.push(rec_at(static_cast<std::uint64_t>(i), 1, std::to_string(i)));
  }
  EXPECT_EQ(ring.total_pushed(), 10u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].trace_id,
              std::to_string(6 + i));
  }
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(ReqTraceTest, RingBelowCapacityReturnsEverythingInOrder) {
  TraceRing ring(8);
  for (int i = 0; i < 3; ++i) {
    ring.push(rec_at(static_cast<std::uint64_t>(i), 1, std::to_string(i)));
  }
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().trace_id, "0");
  EXPECT_EQ(snap.back().trace_id, "2");
}

TEST(ReqTraceTest, EpochConversionClampsAndAdvances) {
  TraceRing ring(4);
  EXPECT_EQ(ring.to_epoch_ns(ring.epoch()), 0u);
  // A time before the epoch clamps to zero instead of wrapping.
  EXPECT_EQ(
      ring.to_epoch_ns(ring.epoch() - std::chrono::milliseconds(5)), 0u);
  const auto later = ring.epoch() + std::chrono::microseconds(250);
  EXPECT_EQ(ring.to_epoch_ns(later), 250'000u);
}

TEST(ReqTraceTest, LanesPackOverlappingRequestsFirstFit) {
  // A [0,100) and B [50,150) overlap → distinct lanes; C starts at 200,
  // after A ended, so it reuses lane 0.
  std::vector<RequestTrace> recs = {rec_at(0, 100, "A"), rec_at(50, 100, "B"),
                                    rec_at(200, 50, "C")};
  const auto lanes = request_lanes(recs);
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0].tid, 1u);
  EXPECT_EQ(lanes[0].name, "requests-lane-0");
  EXPECT_EQ(lanes[1].tid, 2u);
  // Lane 0 holds A and C (one parent slice each, no phases set), lane 1
  // holds B.
  ASSERT_EQ(lanes[0].events.size(), 2u);
  ASSERT_EQ(lanes[1].events.size(), 1u);
  EXPECT_EQ(lanes[0].events[0].name, "eval [A]");
  EXPECT_EQ(lanes[0].events[1].name, "eval [C]");
  EXPECT_EQ(lanes[1].events[0].name, "eval [B]");
  EXPECT_EQ(lanes[0].events[1].ts_ns, 200u);
  EXPECT_EQ(lanes[0].events[1].dur_ns, 50u);
}

TEST(ReqTraceTest, LanesLayPhasesBackToBackWithStageSplit) {
  RequestTrace r = rec_at(1000, 600, "t1");
  r.label = "gcc@90";
  r.phase_ns[static_cast<int>(Phase::kParse)] = 100;
  r.phase_ns[static_cast<int>(Phase::kQueue)] = 200;
  r.phase_ns[static_cast<int>(Phase::kCompute)] = 300;
  r.stage_ns[static_cast<int>(Stage::kSim)] = 250;
  r.stage_ns[static_cast<int>(Stage::kFit)] = 50;
  const auto lanes = request_lanes({r});
  ASSERT_EQ(lanes.size(), 1u);
  const auto& ev = lanes[0].events;
  // Parent + parse + queue + (sim, fit): the compute slice is replaced by
  // its stage children when stage deltas were captured.
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].name, "eval gcc@90 [t1]");
  EXPECT_EQ(ev[0].ts_ns, 1000u);
  EXPECT_EQ(ev[0].dur_ns, 600u);
  EXPECT_EQ(ev[1].name, "parse");
  EXPECT_EQ(ev[1].ts_ns, 1000u);
  EXPECT_EQ(ev[2].name, "queue");
  EXPECT_EQ(ev[2].stage, Stage::kSchedule);
  EXPECT_EQ(ev[2].ts_ns, 1100u);
  EXPECT_EQ(ev[3].name, "sim");
  EXPECT_EQ(ev[3].stage, Stage::kSim);
  EXPECT_EQ(ev[3].ts_ns, 1300u);
  EXPECT_EQ(ev[3].dur_ns, 250u);
  EXPECT_EQ(ev[4].name, "fit");
  EXPECT_EQ(ev[4].ts_ns, 1550u);
  EXPECT_EQ(ev[4].dur_ns, 50u);
}

TEST(ReqTraceTest, LanesFeedTheChromeTraceExporter) {
  std::vector<RequestTrace> recs = {rec_at(0, 100, "A"), rec_at(10, 50, "B")};
  const std::string json =
      to_chrome_trace(request_lanes(recs), "ramp-serve requests");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("requests-lane-0"), std::string::npos);
  EXPECT_NE(json.find("requests-lane-1"), std::string::npos);
  EXPECT_NE(json.find("ramp-serve requests"), std::string::npos);
}

}  // namespace
}  // namespace ramp::obs
