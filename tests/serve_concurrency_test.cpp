// Threaded EvalService tests (ctest label: concurrency; run them from a
// -DRAMP_SANITIZE=thread build). The acceptance bar: N concurrent identical
// requests run the pipeline exactly once — every caller shares the single
// in-flight computation (single-flight coalescing).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/evaluator.hpp"
#include "pipeline/sweep.hpp"
#include "scaling/technology.hpp"
#include "serve/eval_service.hpp"
#include "serve/request.hpp"
#include "util/thread_pool.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::serve {
namespace {

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

std::string row(const pipeline::AppTechResult& r) {
  std::ostringstream os;
  os.precision(17);
  pipeline::write_result_row(os, r);
  return os.str();
}

TEST(ServeConcurrencyTest, IdenticalRequestsEvaluateExactlyOnce) {
  constexpr int kThreads = 8;
  EvalService::Options opts;
  opts.jobs = 2;
  EvalService service(tiny_config(), opts);

  // 180 nm needs no pinned base run, so "exactly one evaluation" is exact.
  const EvalRequest req = eval_req("gcc", "180");
  std::vector<OutcomePtr> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { outcomes[static_cast<std::size_t>(i)] = service.evaluate(req); });
  }
  for (auto& t : threads) t.join();
  service.drain();  // quiesce: futures fire before the pool task's
                    // bookkeeping, so queue_depth needs the barrier

  // Every caller got the one row, byte for byte (coalesced callers share
  // the computing request's outcome; hits decode the stored row).
  for (const auto& outcome : outcomes) {
    ASSERT_NE(outcome, nullptr);
    EXPECT_EQ(outcome->key, outcomes.front()->key);
    EXPECT_EQ(row(outcome->result), row(outcomes.front()->result));
  }
  const auto s = service.stats();
  EXPECT_EQ(s.requests, 8u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evaluations, 1u);
  EXPECT_EQ(s.hits + s.coalesced, 7u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeConcurrencyTest, DistinctRequestsAllCompleteCorrectly) {
  const std::vector<std::string> apps = {"gcc", "twolf", "gzip", "vpr"};
  EvalService::Options opts;
  opts.jobs = 2;
  EvalService service(tiny_config(), opts);

  std::vector<OutcomePtr> outcomes(apps.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    threads.emplace_back(
        [&, i] { outcomes[i] = service.evaluate(eval_req(apps[i], "180")); });
  }
  for (auto& t : threads) t.join();
  service.drain();

  const pipeline::Evaluator direct(tiny_config());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    ASSERT_NE(outcomes[i], nullptr) << apps[i];
    EXPECT_EQ(row(outcomes[i]->result),
              row(direct.evaluate(workloads::workload(apps[i]),
                                  scaling::TechPoint::k180nm)))
        << apps[i];
  }
  const auto s = service.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evaluations, 4u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeConcurrencyTest, BackpressureBoundsTheQueueWithoutDeadlock) {
  EvalService::Options opts;
  opts.jobs = 1;
  opts.max_pending = 1;
  EvalService service(tiny_config(), opts);

  const std::vector<std::string> apps = {"gcc", "twolf", "gzip"};
  std::vector<EvalService::Ticket> tickets;
  for (const auto& app : apps) {
    // With max_pending = 1 each submit blocks until the previous key
    // finished; queue depth can never exceed the bound.
    tickets.push_back(service.submit(eval_req(app, "180")));
    EXPECT_LE(service.stats().queue_depth, 1u);
  }
  for (auto& t : tickets) EXPECT_NE(t.future.get(), nullptr);
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeConcurrencyTest, MixedKeysUnderContentionStayDeterministic) {
  // 8 threads × 4 requests over a small key space, with sink pinning in
  // play: a TSan-friendly stress of the store + inflight + base-reuse paths.
  // Every 180 nm request is answered before any 90 nm one is sent. A pinned
  // 90 nm request computes its app's 180 nm base inline when no fit row
  // holds it yet; were that to happen first, the later 180 nm request would
  // be a memory hit and "one miss per distinct key" would depend on the
  // interleaving.
  const std::vector<std::string> apps = {"gcc", "twolf"};
  const std::vector<std::string> nodes = {"180", "90"};
  EvalService::Options opts;
  opts.jobs = 2;
  EvalService service(tiny_config(), opts);

  std::atomic<int> failures{0};
  for (const auto& node : nodes) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 2; ++i) {
          const auto& app = apps[static_cast<std::size_t>((t + i) % 2)];
          if (service.evaluate(eval_req(app, node)) == nullptr) ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  service.drain();
  EXPECT_EQ(failures.load(), 0);

  // Whatever the interleaving, cached answers must match a fresh direct run.
  const pipeline::Evaluator direct(tiny_config());
  for (const auto& app : apps) {
    const auto& w = workloads::workload(app);
    const auto base = direct.evaluate(w, scaling::TechPoint::k180nm);
    const auto scaled =
        direct.evaluate(w, scaling::TechPoint::k90nm, base.sink_temp_k);
    EXPECT_EQ(row(service.evaluate(eval_req(app, "180"))->result), row(base));
    EXPECT_EQ(row(service.evaluate(eval_req(app, "90"))->result), row(scaled));
  }
  const auto s = service.stats();
  EXPECT_EQ(s.requests, 36u);  // 32 threaded + 4 verification lookups
  EXPECT_EQ(s.misses, 4u);     // one per distinct key
  // Two workers may race the same uncached 180 nm base inline (both compute
  // identical results), so the evaluation count has a small legal range.
  EXPECT_GE(s.evaluations, 4u);
  EXPECT_LE(s.evaluations, 6u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeConcurrencyTest, SharedExternalPoolIsReusable) {
  ThreadPool pool(2);
  EvalService::Options opts;
  opts.pool = &pool;
  {
    EvalService service(tiny_config(), opts);
    EXPECT_NE(service.evaluate(eval_req("gcc", "180")), nullptr);
  }
  // The service drained on destruction; the pool must still be usable.
  EvalService second(tiny_config(), opts);
  EXPECT_NE(second.evaluate(eval_req("twolf", "180")), nullptr);
}

}  // namespace
}  // namespace ramp::serve
