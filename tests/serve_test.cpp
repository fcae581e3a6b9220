// EvalService behavior tests: answers are bitwise-identical to driving
// pipeline::Evaluator directly (the acceptance bar — caching must never
// change a result, only when it is computed), repeated requests hit the
// stage store's memory tier, the 180 nm base run is shared across nodes,
// and persisted rows round-trip across service instances.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "scaling/technology.hpp"
#include "serve/eval_service.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::serve {
namespace {

namespace fs = std::filesystem;

pipeline::EvaluationConfig tiny_config() {
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 3'000;
  return cfg;
}

EvalRequest eval_req(const std::string& app, const std::string& node) {
  EvalRequest req;
  req.app = app;
  req.node = scaling::parse_tech(node);
  return req;
}

/// The sweep-cache serialization at full precision: equal strings mean
/// bitwise-equal results.
std::string row(const pipeline::AppTechResult& r) {
  std::ostringstream os;
  os.precision(17);
  pipeline::write_result_row(os, r);
  return os.str();
}

TEST(EvalServiceTest, AnswerMatchesDirectEvaluatorBitwise) {
  EvalService service(tiny_config(), {});

  const pipeline::Evaluator direct(tiny_config());
  const auto& gcc = workloads::workload("gcc");
  const auto base = direct.evaluate(gcc, scaling::TechPoint::k180nm);
  const auto scaled =
      direct.evaluate(gcc, scaling::TechPoint::k90nm, base.sink_temp_k);

  EXPECT_EQ(row(service.evaluate(eval_req("gcc", "90"))->result), row(scaled));
  EXPECT_EQ(row(service.evaluate(eval_req("gcc", "180"))->result), row(base));
}

TEST(EvalServiceTest, ExplicitSinkTargetOverridesPinning) {
  EvalService service(tiny_config(), {});
  EvalRequest req = eval_req("twolf", "130");
  req.sink_k = 350.0;

  const pipeline::Evaluator direct(tiny_config());
  const auto expected = direct.evaluate(workloads::workload("twolf"),
                                        scaling::TechPoint::k130nm, 350.0);
  const OutcomePtr outcome = service.evaluate(req);
  EXPECT_EQ(row(outcome->result), row(expected));
  // Only one cell was evaluated: no 180 nm base run is needed.
  EXPECT_EQ(service.stats().evaluations, 1u);
  // With an explicit target the pin flag cannot matter: the unpinned
  // spelling names the same row and is a pure hit.
  EvalRequest unpinned = req;
  unpinned.pin_sink = false;
  const EvalService::Ticket again = service.submit(unpinned);
  EXPECT_EQ(again.source, EvalService::Source::kCache);
  EXPECT_EQ(again.future.get()->key, outcome->key);
}

TEST(EvalServiceTest, RepeatedRequestServedFromCache) {
  EvalService service(tiny_config(), {});
  const OutcomePtr first = service.evaluate(eval_req("gcc", "90"));
  auto s = service.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evaluations, 2u);  // 180 nm base + 90 nm cell
  // Both rows are cached under their own fit keys, each with its upstream
  // stages: 5 for the base, 4 for the node (the trace is shared).
  EXPECT_EQ(s.cache_size, 9u);

  const EvalService::Ticket second = service.submit(eval_req("gcc", "90"));
  EXPECT_EQ(second.source, EvalService::Source::kCache);
  const OutcomePtr hit = second.future.get();
  EXPECT_EQ(hit->key, first->key);
  EXPECT_EQ(row(hit->result), row(first->result));  // the same row, bitwise
  s = service.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evaluations, 2u);  // nothing re-ran
}

TEST(EvalServiceTest, BaseRunSharedAcrossNodes) {
  EvalService service(tiny_config(), {});
  service.evaluate(eval_req("gcc", "90"));  // evaluates 180 base + 90
  // The 180 nm cell was cached as a side effect; an explicit request for it
  // is a pure hit, as is any further scaled node's base lookup.
  const auto before = service.stats().evaluations;
  EXPECT_EQ(service.submit(eval_req("gcc", "180")).source,
            EvalService::Source::kCache);
  service.evaluate(eval_req("gcc", "130"));  // reuses the cached base
  EXPECT_EQ(service.stats().evaluations, before + 1);
}

TEST(EvalServiceTest, RequestKeyCanonicalization) {
  EvalService service(tiny_config(), {});
  EvalRequest pinned = eval_req("gcc", "180");
  EvalRequest unpinned = pinned;
  unpinned.pin_sink = false;
  const OutcomePtr base = service.evaluate(pinned);
  // Pinning cannot matter at 180 nm, so both spell the same row.
  EXPECT_EQ(service.submit(unpinned).source, EvalService::Source::kCache);

  // A pinned scaled node and its twin with the base's sink temperature
  // spelled out are one row too.
  service.evaluate(eval_req("gcc", "90"));
  EvalRequest explicit_sink = eval_req("gcc", "90");
  explicit_sink.sink_k = base->result.sink_temp_k;
  EXPECT_EQ(service.submit(explicit_sink).source,
            EvalService::Source::kCache);

  // Different nodes, apps and trace lengths are different rows.
  const auto evaluations = service.stats().evaluations;
  service.evaluate(eval_req("gcc", "130"));
  service.evaluate(eval_req("twolf", "180"));
  EvalRequest longer = eval_req("gcc", "180");
  longer.trace_len = 9'999;
  service.evaluate(longer);
  EXPECT_EQ(service.stats().evaluations, evaluations + 3);
}

TEST(EvalServiceTest, LruEvictionIsCountedAndBounded) {
  // A five-entry memory tier holds exactly one 180 nm cell's stages.
  pipeline::StageStore::Options sopts;
  sopts.memory_entries = 5;
  EvalService::Options opts;
  opts.stage_store = std::make_shared<pipeline::StageStore>(std::move(sopts));
  EvalService service(tiny_config(), opts);
  service.evaluate(eval_req("gcc", "180"));
  service.evaluate(eval_req("twolf", "180"));
  auto s = service.stats();
  EXPECT_EQ(s.cache_size, 5u);
  EXPECT_EQ(s.evictions, 5u);
  // The evicted row is gone: asking again recomputes it.
  EXPECT_EQ(service.submit(eval_req("gcc", "180")).source,
            EvalService::Source::kScheduled);
  service.drain();
  s = service.stats();
  EXPECT_EQ(s.evaluations, 3u);
  EXPECT_EQ(s.evictions, 10u);
}

TEST(EvalServiceTest, PinnedRequestsCoalesceWhileTheirBaseLands) {
  // A pinned request's in-flight key must not depend on whether its base
  // row is resident yet: a twin arriving after the base landed still joins
  // the first request instead of scheduling a second one.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); });  // hold the only worker
  const auto store = std::make_shared<pipeline::StageStore>();
  EvalService::Options opts;
  opts.pool = &pool;
  opts.stage_store = store;
  EvalService service(tiny_config(), opts);

  const EvalService::Ticket first = service.submit(eval_req("gcc", "90"));
  EXPECT_EQ(first.source, EvalService::Source::kScheduled);
  pipeline::Evaluator(tiny_config(), store)
      .evaluate(workloads::workload("gcc"), scaling::TechPoint::k180nm);
  const EvalService::Ticket second = service.submit(eval_req("gcc", "90"));
  EXPECT_EQ(second.source, EvalService::Source::kCoalesced);
  gate.set_value();
  EXPECT_EQ(row(second.future.get()->result), row(first.future.get()->result));
  EXPECT_EQ(service.stats().misses, 1u);
}

TEST(EvalServiceTest, InvalidRequestsThrowSynchronously) {
  EvalService service(tiny_config(), {});
  EXPECT_THROW(service.submit(eval_req("no_such_app", "90")),
               std::invalid_argument);
  EvalRequest stats_req;
  stats_req.op = Op::kStats;
  EXPECT_THROW(service.submit(stats_req), InvalidArgument);
  EXPECT_EQ(service.stats().requests, 0u);  // rejected before accounting
}

TEST(EvalServiceTest, RejectsBrokenOptions) {
  EvalService::Options opts;
  opts.max_pending = 0;
  EXPECT_THROW(EvalService(tiny_config(), opts), InvalidArgument);
  EvalService::Options no_jobs;
  no_jobs.jobs = 0;
  EXPECT_THROW(EvalService(tiny_config(), no_jobs), InvalidArgument);
}

class PersistCacheTest : public ::testing::Test {
 protected:
  // One directory per test and process: ctest runs each case as its own
  // process, in parallel, so a shared name would mix their store files.
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("ramp_serve_test_persist_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  pipeline::EvaluationConfig persist_config() const {
    pipeline::EvaluationConfig cfg = tiny_config();
    cfg.stage_cache_dir = dir_;
    return cfg;
  }

  std::string dir_;
};

TEST_F(PersistCacheTest, RoundtripsAcrossServiceInstances) {
  std::string first_row;
  {
    EvalService service(persist_config(), {});
    first_row = row(service.evaluate(eval_req("gcc", "90"))->result);
  }
  // One store file per stage entry: the 90 nm cell and its 180 nm base,
  // each with its upstream stages (the trace is shared).
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    EXPECT_EQ(e.path().extension(), ".rampblob");
    std::ifstream f(e.path());
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_EQ(line, "# ramp_blob v1");
    ++files;
  }
  EXPECT_EQ(files, 9u);

  EvalService warm(persist_config(), {});
  EXPECT_EQ(row(warm.evaluate(eval_req("gcc", "90"))->result), first_row);
  const auto s = warm.stats();
  EXPECT_EQ(s.persist_hits, 1u);
  EXPECT_EQ(s.evaluations, 0u);  // the disk answered; no pipeline run
}

TEST_F(PersistCacheTest, CorruptFilesAreRecomputedNotTrusted) {
  std::string first_row;
  {
    EvalService service(persist_config(), {});
    first_row = row(service.evaluate(eval_req("gcc", "90"))->result);
  }
  for (const auto& e : fs::directory_iterator(dir_)) {
    std::ofstream(e.path()) << "not a cache file\n";
  }
  EvalService rebuilt(persist_config(), {});
  EXPECT_EQ(row(rebuilt.evaluate(eval_req("gcc", "90"))->result), first_row);
  const auto s = rebuilt.stats();
  EXPECT_EQ(s.persist_hits, 0u);
  EXPECT_EQ(s.evaluations, 2u);
}

// ---- the NDJSON front-end -------------------------------------------------

std::vector<Json> run_serve(const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  EvalService::Options opts;
  opts.jobs = 2;
  EvalService service(tiny_config(), opts);
  EXPECT_EQ(serve_loop(in, out, service), 0);

  std::vector<Json> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) responses.push_back(Json::parse(line));
  return responses;
}

TEST(ServeLoopTest, EvalStatsErrorsAndShutdown) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":\"two\"}\n"
      "{\"op\":\"stats\"}\n"
      "not json\n"
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"bogus\":1}\n"
      "{\"op\":\"shutdown\",\"id\":9}\n"
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\"}\n");  // after shutdown
  ASSERT_EQ(responses.size(), 6u);  // the post-shutdown line is never read

  const Json& first = responses[0];
  EXPECT_TRUE(first.find("ok")->as_bool());
  EXPECT_EQ(first.find("op")->as_string(), "eval");
  EXPECT_DOUBLE_EQ(first.find("id")->as_number(), 1.0);
  EXPECT_FALSE(first.find("cached")->as_bool());
  ASSERT_NE(first.find("result"), nullptr);

  // Same key again: answered without re-evaluating — either from the LRU or
  // by coalescing onto the still-running first request.
  const Json& second = responses[1];
  EXPECT_EQ(second.find("id")->as_string(), "two");
  EXPECT_TRUE(second.find("cached")->as_bool() ||
              second.find("coalesced")->as_bool());
  // Identical payload: the service guarantees equal keys give equal results.
  EXPECT_EQ(second.find("result")->dump(), first.find("result")->dump());

  const Json* stats = responses[2].find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->find("requests")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(stats->find("misses")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(stats->find("evaluations")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(stats->find("queue_depth")->as_number(), 0.0);

  EXPECT_FALSE(responses[3].find("ok")->as_bool());  // parse error
  EXPECT_FALSE(responses[4].find("ok")->as_bool());  // unknown field
  EXPECT_NE(responses[4].find("error")->as_string().find("bogus"),
            std::string::npos);

  EXPECT_TRUE(responses[5].find("ok")->as_bool());
  EXPECT_EQ(responses[5].find("op")->as_string(), "shutdown");
  EXPECT_DOUBLE_EQ(responses[5].find("id")->as_number(), 9.0);
}

TEST(ServeLoopTest, EofWithoutShutdownDrainsCleanly) {
  const auto responses =
      run_serve("{\"op\":\"eval\",\"app\":\"gzip\",\"node\":\"180\"}\n");
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].find("ok")->as_bool());
}

TEST(ServeLoopTest, ResponseResultMatchesDirectEvaluator) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  const Json* result = responses[0].find("result");
  ASSERT_NE(result, nullptr);

  const pipeline::Evaluator direct(tiny_config());
  const auto& gcc = workloads::workload("gcc");
  const auto base = direct.evaluate(gcc, scaling::TechPoint::k180nm);
  const auto scaled =
      direct.evaluate(gcc, scaling::TechPoint::k90nm, base.sink_temp_k);
  // %.17g serialization round-trips doubles exactly, so these are
  // bit-for-bit comparisons of the wire payload against the direct run.
  EXPECT_EQ(result->find("ipc")->as_number(), scaled.ipc);
  EXPECT_EQ(result->find("total_w")->as_number(), scaled.avg_total_power_w);
  EXPECT_EQ(result->find("max_temp_k")->as_number(),
            scaled.max_structure_temp_k);
  EXPECT_EQ(result->find("sink_temp_k")->as_number(), scaled.sink_temp_k);
  EXPECT_EQ(result->find("raw_fit")->find("total")->as_number(),
            scaled.raw_fits.total());
}

// ---- observability --------------------------------------------------------

// Satellite regression: moving the stats counters onto the metrics registry
// must not change the NDJSON wire format. A fresh service's stats response is
// fully deterministic, so the whole line is frozen byte-for-byte — field
// order, zero formatting, everything.
TEST(ServeLoopTest, StatsWireFormatFrozen) {
  std::istringstream in("{\"op\":\"stats\"}\n");
  std::ostringstream out;
  EvalService service(tiny_config(), {});
  EXPECT_EQ(serve_loop(in, out, service), 0);
  EXPECT_EQ(out.str(),
            "{\"ok\":true,\"op\":\"stats\",\"stats\":{"
            "\"requests\":0,\"hits\":0,\"coalesced\":0,\"misses\":0,"
            "\"persist_hits\":0,\"evaluations\":0,\"failures\":0,"
            "\"evictions\":0,\"queue_depth\":0,\"cache_size\":0,"
            "\"p50_latency_ms\":0,\"p99_latency_ms\":0}}\n");
}

TEST(ServeLoopTest, MetricsOpReturnsParseablePrometheusText) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"metrics\",\"id\":\"m\"}\n"
      "{\"op\":\"metrics\",\"format\":\"json\",\"id\":\"mj\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 4u);

  const Json& metrics = responses[1];
  EXPECT_TRUE(metrics.find("ok")->as_bool());
  EXPECT_EQ(metrics.find("op")->as_string(), "metrics");
  EXPECT_EQ(metrics.find("id")->as_string(), "m");

  // The payload is standard Prometheus text exposition; the service counters
  // in it agree with what the stats op would have reported.
  const auto samples =
      obs::parse_prometheus_text(metrics.find("prometheus")->as_string());
  EXPECT_DOUBLE_EQ(samples.at("ramp_serve_requests_total"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("ramp_serve_misses_total"), 1.0);
  EXPECT_DOUBLE_EQ(samples.at("ramp_serve_evaluations_total"), 2.0);
  EXPECT_DOUBLE_EQ(samples.at("ramp_serve_latency_seconds_count"), 1.0);
  EXPECT_GE(samples.at("ramp_serve_latency_seconds_sum"), 0.0);

  // "format":"json" carries the same counters as a raw snapshot object.
  const Json& snap = responses[2];
  ASSERT_TRUE(snap.find("ok")->as_bool());
  EXPECT_EQ(snap.find("id")->as_string(), "mj");
  const Json* snapshot = snap.find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  ASSERT_NE(snapshot->find("counters"), nullptr);
  EXPECT_DOUBLE_EQ(
      snapshot->find("counters")->find("ramp_serve_requests_total")
          ->as_number(),
      1.0);
}

// The metrics_reset op zeroes the service counters without touching the
// frozen stats wire format: a reset service answers exactly like a fresh one.
TEST(ServeLoopTest, MetricsResetZeroesStats) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"metrics_reset\",\"id\":\"r\"}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 4u);

  const Json& reset = responses[1];
  EXPECT_TRUE(reset.find("ok")->as_bool());
  EXPECT_EQ(reset.find("op")->as_string(), "metrics_reset");
  EXPECT_EQ(reset.find("id")->as_string(), "r");

  // Post-reset counters read exactly like a fresh service's in the frozen
  // wire format; only cache_size differs, because gauges report state, not
  // history — the store still holds the base + node rows and their
  // upstream stages (5 + 4 entries).
  EXPECT_EQ(responses[2].dump(),
            "{\"ok\":true,\"op\":\"stats\",\"stats\":{"
            "\"requests\":0,\"hits\":0,\"coalesced\":0,\"misses\":0,"
            "\"persist_hits\":0,\"evaluations\":0,\"failures\":0,"
            "\"evictions\":0,\"queue_depth\":0,\"cache_size\":9,"
            "\"p50_latency_ms\":0,\"p99_latency_ms\":0}}");
}

TEST(EvalServiceTest, ResetStatsKeepsCacheGauges) {
  EvalService service(tiny_config(), {});
  service.evaluate(eval_req("gcc", "180"));
  service.drain();
  service.reset_stats();
  const auto s = service.stats();
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.evaluations, 0u);
  EXPECT_DOUBLE_EQ(s.p50_latency_ms, 0.0);
  // The store still holds the cell's five stage entries — gauges reflect
  // state, not history — and the service keeps serving from it.
  EXPECT_EQ(s.cache_size, 5u);
  service.evaluate(eval_req("gcc", "180"));
  EXPECT_EQ(service.stats().hits, 1u);
}

// The timeline op returns the flight-recorder payload for one cell and its
// result agrees with a plain eval of the same request.
TEST(ServeLoopTest, TimelineOpReturnsPointsAndMatchingResult) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"timeline\",\"app\":\"gcc\",\"node\":\"90\",\"points\":8,"
      "\"id\":\"t\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 3u);

  const Json& timeline = responses[1];
  ASSERT_TRUE(timeline.find("ok")->as_bool());
  EXPECT_EQ(timeline.find("op")->as_string(), "timeline");
  EXPECT_EQ(timeline.find("id")->as_string(), "t");
  EXPECT_EQ(timeline.find("cell")->as_string(), "gcc@90");
  EXPECT_GE(timeline.find("intervals")->as_number(), 1.0);

  const auto& points = timeline.find("points")->elements();
  ASSERT_GE(points.size(), 1u);
  ASSERT_LE(points.size(), 9u);  // requested budget + final-point patch
  const Json& last = points.back();
  ASSERT_NE(last.find("fit_avg"), nullptr);
  ASSERT_NE(last.find("temp_k"), nullptr);

  // The timeline run bypasses the cache but must agree with the cached eval
  // answer bit-for-bit — recording never changes results.
  EXPECT_EQ(timeline.find("result")->dump(),
            responses[0].find("result")->dump());
  // The final recorded fit_avg reproduces the result's raw FIT exactly.
  const Json* fit = responses[0].find("result")->find("raw_fit");
  const auto& avg = last.find("fit_avg")->elements();
  ASSERT_EQ(avg.size(), 4u);
  EXPECT_EQ(avg[0].as_number(), fit->find("em")->as_number());
  EXPECT_EQ(avg[3].as_number(), fit->find("tc")->as_number());

  ASSERT_NE(timeline.find("incidents"), nullptr);
}

TEST(ServeLoopTest, TimelineOpValidatesLikeEval) {
  const auto responses = run_serve(
      "{\"op\":\"timeline\"}\n"
      "{\"op\":\"timeline\",\"app\":\"gcc\",\"node\":\"90\",\"points\":1}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].find("ok")->as_bool());  // missing app
  EXPECT_FALSE(responses[1].find("ok")->as_bool());  // points < 2
}

// A client's point budget bounds the export; it must not size an up-front
// allocation (a budget near the 2^53 field cap once answered bad_alloc).
TEST(ServeLoopTest, TimelineOpAcceptsAHugePointBudget) {
  const auto responses = run_serve(
      "{\"op\":\"timeline\",\"app\":\"gcc\",\"node\":\"180\","
      "\"points\":9000000000000000}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  const Json& timeline = responses[0];
  ASSERT_TRUE(timeline.find("ok")->as_bool()) << timeline.dump();
  EXPECT_EQ(timeline.find("points")->elements().size(),
            static_cast<std::size_t>(timeline.find("intervals")->as_number()));
}

// EvalService books its stats on a private always-on registry, so stats stay
// contractual even when process-wide metrics are disabled via RAMP_METRICS.
TEST(EvalServiceTest, StatsSurviveDisabledGlobalRegistry) {
  EvalService service(tiny_config(), {});
  service.evaluate(eval_req("gcc", "180"));
  const auto s = service.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_GT(s.p50_latency_ms, 0.0);
  // And the same numbers are visible through the registry snapshot.
  const obs::MetricsSnapshot snap = service.metrics().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "ramp_serve_requests_total") {
      EXPECT_EQ(value, 1u);
    }
    if (name == "ramp_serve_evaluations_total") {
      EXPECT_EQ(value, 1u);
    }
  }
}

// ---- per-request tracing --------------------------------------------------

TEST(ParseRequestTest, TraceFieldsValidateAdversarially) {
  // Well-formed trace fields parse and land on the request.
  const EvalRequest ok = parse_request(
      R"({"op":"eval","app":"gcc","node":"90","trace":true,"trace_id":"r1"})");
  EXPECT_TRUE(ok.trace);
  EXPECT_EQ(ok.trace_id, "r1");

  // Wrong types and malformed ids throw instead of being coerced.
  EXPECT_THROW(
      parse_request(R"({"op":"eval","app":"gcc","trace":"yes"})"),
      std::exception);
  EXPECT_THROW(parse_request(R"({"op":"eval","app":"gcc","trace_id":123})"),
               std::exception);
  EXPECT_THROW(parse_request(R"({"op":"eval","app":"gcc","trace_id":""})"),
               std::exception);
  EXPECT_THROW(parse_request(R"({"op":"eval","app":"gcc","trace_id":")" +
                             std::string(129, 'x') + R"("})"),
               std::exception);
  EXPECT_THROW(
      parse_request(
          "{\"op\":\"eval\",\"app\":\"gcc\",\"trace_id\":\"a\\u0007b\"}"),
      std::exception);

  // Trace fields are an eval/timeline affair; control ops reject them.
  EXPECT_THROW(parse_request(R"({"op":"stats","trace":true})"),
               std::exception);
  EXPECT_THROW(parse_request(R"({"op":"metrics","trace_id":"x"})"),
               std::exception);
}

TEST(ParseRequestTest, MetricsFormatValidates) {
  EXPECT_EQ(parse_request(R"({"op":"metrics","format":"json"})")
                .metrics_format,
            "json");
  EXPECT_THROW(parse_request(R"({"op":"metrics","format":"xml"})"),
               std::exception);
  EXPECT_THROW(parse_request(R"({"op":"stats","format":"json"})"),
               std::exception);
}

// Tracing is pure observation: it must never change what is computed or
// cached, so a traced request hits the row its plain twin cached.
TEST(EvalServiceTest, RequestKeyIgnoresTraceFields) {
  EvalService service(tiny_config(), {});
  const EvalRequest plain =
      parse_request(R"({"op":"eval","app":"gcc","node":"90"})");
  const EvalRequest traced = parse_request(
      R"({"op":"eval","app":"gcc","node":"90","trace":true,"trace_id":"t"})");
  const OutcomePtr first = service.evaluate(plain);
  const EvalService::Ticket again = service.submit(traced);
  EXPECT_EQ(again.source, EvalService::Source::kCache);
  EXPECT_EQ(again.future.get()->key, first->key);
}

TEST(ServeLoopTest, HealthOpReportsStdioDefaults) {
  const auto responses = run_serve(
      "{\"op\":\"health\",\"id\":\"h\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 2u);
  const Json& h = responses[0];
  EXPECT_TRUE(h.find("ok")->as_bool());
  EXPECT_EQ(h.find("op")->as_string(), "health");
  EXPECT_EQ(h.find("id")->as_string(), "h");
  EXPECT_EQ(h.find("mode")->as_string(), "stdio");
  EXPECT_GE(h.find("uptime_s")->as_number(), 0.0);
  EXPECT_EQ(h.find("accepted_connections")->as_number(), 1.0);
  EXPECT_EQ(h.find("active_connections")->as_number(), 1.0);
  EXPECT_FALSE(h.find("draining")->as_bool());
  EXPECT_EQ(h.find("shards")->as_number(), 1.0);
}

TEST(ServeLoopTest, TraceFlagAttachesBreakdownOverStdio) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":1}\n"
      "{\"op\":\"eval\",\"app\":\"gcc\",\"node\":\"90\",\"id\":2,"
      "\"trace\":true,\"trace_id\":\"abc\"}\n"
      "{\"op\":\"trace_dump\"}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].find("trace"), nullptr);

  const Json* t = responses[1].find("trace");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("trace_id")->as_string(), "abc");
  EXPECT_EQ(t->find("label")->as_string(), "gcc@90");
  EXPECT_GT(t->find("total_ns")->as_number(), 0.0);
  const Json* phases = t->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_NE(phases->find("serialize"), nullptr);

  // The stdio ring only holds requests that asked to be traced.
  const Json& dump = responses[2];
  EXPECT_TRUE(dump.find("ok")->as_bool());
  EXPECT_EQ(dump.find("op")->as_string(), "trace_dump");
  EXPECT_EQ(dump.find("count")->as_number(), 1.0);
  EXPECT_EQ(dump.find("total_traced")->as_number(), 1.0);
  EXPECT_NE(dump.find("perfetto")->as_string().find("\"traceEvents\""),
            std::string::npos);
}

// The traced response is the untraced response plus the trace object — the
// breakdown must never perturb the payload bytes.
TEST(ServeLoopTest, TraceObjectIsPureAddition) {
  const auto responses = run_serve(
      "{\"op\":\"eval\",\"app\":\"gzip\",\"node\":\"130\"}\n"
      "{\"op\":\"eval\",\"app\":\"gzip\",\"node\":\"130\",\"trace\":true}\n"
      "{\"op\":\"shutdown\"}\n");
  ASSERT_EQ(responses.size(), 3u);
  // The second request legitimately differs in provenance (cache hit or
  // coalesced onto the first); everything else must match bytewise.
  const auto neutral = [](const Json& r) {
    Json out = Json::object();
    for (const auto& [key, value] : r.items()) {
      if (key == "trace") continue;
      out.set(key, (key == "cached" || key == "coalesced") ? Json(false)
                                                           : value);
    }
    return out;
  };
  const Json stripped = neutral(responses[1]);
  const Json reference = neutral(responses[0]);
  EXPECT_EQ(stripped.dump(), reference.dump());
  ASSERT_NE(responses[1].find("trace"), nullptr);
  // A server-generated trace_id was assigned (no client-supplied one).
  EXPECT_FALSE(
      responses[1].find("trace")->find("trace_id")->as_string().empty());
}


// ---- the stdio transport ---------------------------------------------------

/// Runs serve_stdio over a request file and returns the response lines.
std::vector<std::string> run_stdio(EvalService& service,
                                   const std::string& requests) {
  const std::string base =
      ::testing::TempDir() + "ramp_serve_stdio_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid());
  std::ofstream(base + ".in") << requests;
  const int in_fd = ::open((base + ".in").c_str(), O_RDONLY);
  const int out_fd =
      ::open((base + ".out").c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  StdioOptions opts;
  opts.in_fd = in_fd;
  opts.out_fd = out_fd;
  EXPECT_EQ(serve_stdio(service, opts), 0);
  ::close(in_fd);
  ::close(out_fd);
  std::vector<std::string> lines;
  std::ifstream out(base + ".out");
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  fs::remove(base + ".in");
  fs::remove(base + ".out");
  return lines;
}

// stdio admits with the blocking submit: a full pending bound makes the
// reader wait, never shed. Six distinct evals against max_pending = 1 all
// come back ok, in request order.
TEST(StdioTransportTest, NeverShedsUnderBackpressure) {
  EvalService::Options opts;
  opts.jobs = 2;
  opts.max_pending = 1;
  EvalService service(tiny_config(), opts);
  const std::vector<std::string> apps = {"gcc",   "gzip", "twolf",
                                         "crafty", "bzip2", "vpr"};
  std::string requests;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    requests += "{\"op\":\"eval\",\"app\":\"" + apps[i] +
                "\",\"node\":\"130\",\"id\":" + std::to_string(i) + "}\n";
  }
  const std::vector<std::string> lines = run_stdio(service, requests);
  ASSERT_EQ(lines.size(), apps.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json r = Json::parse(lines[i]);
    EXPECT_TRUE(r.find("ok")->as_bool()) << lines[i];
    EXPECT_EQ(r.find("overloaded"), nullptr) << lines[i];
    EXPECT_DOUBLE_EQ(r.find("id")->as_number(), static_cast<double>(i));
  }
}

// A slow log that cannot be opened is refused up front, not dropped
// silently request by request.
TEST(StdioTransportTest, UnopenableSlowLogIsRefused) {
  EvalService service(tiny_config(), {});
  TraceOptions trace;
  trace.slow_log_path = ::testing::TempDir() + "no_such_dir_" +
                        std::to_string(::getpid()) + "/slow.ndjson";
  EXPECT_THROW(Protocol(service, Protocol::Transport::kStdio, trace),
               InvalidArgument);
}

// ---- the slow-log line -----------------------------------------------------

obs::RequestTrace rec_at(std::uint64_t start_ns, std::uint64_t total_ns,
                         const std::string& id) {
  obs::RequestTrace r;
  r.trace_id = id;
  r.op = "eval";
  r.start_ns = start_ns;
  r.total_ns = total_ns;
  return r;
}

TEST(ReqTraceTest, SlowLogLineIsParseableAndComplete) {
  obs::RequestTrace r = rec_at(123, 456, "abc");
  r.label = "gcc@90";
  r.ok = true;
  r.cached = true;
  r.phase_ns[static_cast<int>(obs::Phase::kParse)] = 11;
  r.stage_ns[static_cast<int>(obs::Stage::kThermal)] = 22;
  const std::string line = slow_log_line(r, 1700000000123.0);
  const Json j = Json::parse(line);
  EXPECT_EQ(j.find("ts_ms")->as_number(), 1700000000123.0);
  EXPECT_EQ(j.find("trace_id")->as_string(), "abc");
  EXPECT_EQ(j.find("op")->as_string(), "eval");
  EXPECT_EQ(j.find("label")->as_string(), "gcc@90");
  EXPECT_TRUE(j.find("ok")->as_bool());
  EXPECT_TRUE(j.find("cached")->as_bool());
  EXPECT_FALSE(j.find("coalesced")->as_bool());
  EXPECT_EQ(j.find("start_ns")->as_number(), 123.0);
  EXPECT_EQ(j.find("total_ns")->as_number(), 456.0);
  const Json* phases = j.find("phases");
  ASSERT_NE(phases, nullptr);
  int n = 0;
  for (const auto& [name, ns] : phases->items()) {
    (void)name;
    (void)ns;
    ++n;
  }
  EXPECT_EQ(n, obs::kNumPhases);
  EXPECT_EQ(phases->find("parse")->as_number(), 11.0);
  const Json* stages = j.find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->find("thermal")->as_number(), 22.0);
}

TEST(ReqTraceTest, SlowLogLineOmitsEmptyStageAndLabel) {
  const std::string line = slow_log_line(rec_at(0, 1, "x"), 0.0);
  const Json j = Json::parse(line);
  EXPECT_EQ(j.find("label"), nullptr);
  EXPECT_EQ(j.find("stages"), nullptr);
}

}  // namespace
}  // namespace ramp::serve
