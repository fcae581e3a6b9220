// Single-flight and shared-store concurrency tests for the stage graph:
// concurrent get_or_compute() calls for one key coalesce onto a single
// computation, exceptions propagate to every waiter, and a StageStore
// shared across a parallel sweep stays byte-identical to the serial
// monolithic path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "util/blob_store.hpp"

namespace ramp::pipeline {
namespace {

constexpr int kThreads = 8;

TEST(StageConcurrencyTest, SingleFlightComputesExactlyOnce) {
  BlobStore store;
  std::atomic<int> computes{0};
  std::atomic<int> started{0};
  std::vector<BlobStore::Result> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      started.fetch_add(1);
      results[i] = store.get_or_compute("key", [&] {
        // Give the other threads time to pile onto the in-flight future.
        while (started.load() < kThreads) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        computes.fetch_add(1);
        return std::string("payload");
      });
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  int computed = 0;
  for (const auto& r : results) {
    ASSERT_NE(r.blob, nullptr);
    EXPECT_EQ(*r.blob, "payload");
    if (r.outcome == BlobStore::Outcome::kComputed) ++computed;
  }
  EXPECT_EQ(computed, 1);
}

TEST(StageConcurrencyTest, StageStoreBooksOneMissAndSevenHits) {
  obs::MetricsRegistry reg(true);
  StageStore::Options opts;
  opts.registry = &reg;
  StageStore store(std::move(opts));
  const StageKey key{"trace.v1|test-single-flight"};

  std::atomic<int> computes{0};
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      const std::function<TraceStageOut()> compute = [&] {
        while (started.load() < kThreads) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        computes.fetch_add(1);
        return TraceStageOut{key.canonical};
      };
      const TraceStageOut out =
          store.get_or_compute<TraceStageOut>(StageId::kTrace, key, compute);
      EXPECT_EQ(out.spec, key.canonical);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(reg.counter("ramp_stage_trace_misses_total").value(), 1u);
  EXPECT_EQ(reg.counter("ramp_stage_trace_hits_total").value(),
            static_cast<std::uint64_t>(kThreads - 1));
  // Waiters on the in-flight compute book a coalesced lookup on top of the
  // hit; a late arrival after the compute lands is a plain memory hit.
  const std::uint64_t coalesced =
      reg.counter("ramp_stage_trace_coalesced_total").value();
  EXPECT_GE(coalesced, 1u);
  EXPECT_LE(coalesced, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(reg.gauge("ramp_stage_store_entries").value(), 1.0);
}

TEST(StageConcurrencyTest, DistinctKeysComputeIndependently) {
  BlobStore store;
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string key = "key-" + std::to_string(i);
      const auto r = store.get_or_compute(key, [&] {
        computes.fetch_add(1);
        return "payload-" + std::to_string(i);
      });
      EXPECT_EQ(*r.blob, "payload-" + std::to_string(i));
      EXPECT_EQ(r.outcome, BlobStore::Outcome::kComputed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), kThreads);
  EXPECT_EQ(store.memory_entries(), static_cast<std::size_t>(kThreads));
}

TEST(StageConcurrencyTest, ComputeExceptionReachesEveryWaiter) {
  BlobStore store;
  std::atomic<int> started{0};
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      started.fetch_add(1);
      try {
        store.get_or_compute("key", [&]() -> std::string {
          while (started.load() < kThreads) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("stage failed");
        });
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every caller of the failed flight sees the exception (late arrivals may
  // start a fresh flight and fail independently — either way they throw).
  EXPECT_EQ(threw.load(), kThreads);
  // The failure left no entry behind; the key is computable afterwards.
  const auto r = store.get_or_compute("key", [] { return std::string("ok"); });
  EXPECT_EQ(r.outcome, BlobStore::Outcome::kComputed);
  EXPECT_EQ(*r.blob, "ok");
}

TEST(StageConcurrencyTest, SharedStoreParallelSweepMatchesMonolithicSerial) {
  // The byte-identity contract under contention: a parallel sweep where
  // every worker schedules against one shared StageStore must serialize
  // exactly like the serial, store-less monolithic run.
  EvaluationConfig cfg;
  cfg.trace_instructions = 5'000;

  SweepRunner::Options serial;
  serial.cache_path.clear();
  const std::string expect = sweep_to_csv(SweepRunner(cfg, serial).run());

  for (const std::size_t jobs : {2u, 4u}) {
    obs::MetricsRegistry reg(true);
    StageStore::Options sopts;
    sopts.registry = &reg;
    SweepRunner::Options parallel;
    parallel.jobs = jobs;
    parallel.cache_path.clear();
    parallel.stage_store = std::make_shared<StageStore>(std::move(sopts));
    EXPECT_EQ(sweep_to_csv(SweepRunner(cfg, parallel).run()), expect)
        << "jobs " << jobs;

    // 16 apps × 5 nodes, but only 4 distinct clock frequencies per app (the
    // two 65 nm points share 2 GHz): exactly 64 sim computations. The 65 nm
    // twins run chained in one task, so the second is a store hit and no
    // lookup ever waits on a peer's in-flight sim.
    EXPECT_EQ(reg.counter("ramp_stage_sim_misses_total").value(), 64u);
    EXPECT_EQ(reg.counter("ramp_stage_sim_hits_total").value(), 16u);
    EXPECT_EQ(reg.counter("ramp_stage_sim_coalesced_total").value(), 0u)
        << "jobs " << jobs;
    EXPECT_EQ(reg.counter("ramp_stage_fit_misses_total").value(), 80u);
    EXPECT_EQ(reg.counter("ramp_stage_fit_hits_total").value(), 0u);
  }
}

}  // namespace
}  // namespace ramp::pipeline
