// In-process RAMP evaluation service: admission, backpressure, single-flight
// request coalescing and phase timing in front of the pipeline's StageStore,
// the one result cache.
//
// Every eval request resolves to its target cell's fit-stage key (see
// pipeline/stage_graph.hpp), the key the store keeps the result row under.
// A request is answered, in order of preference, from
//   1. the store's memory tier   (hit         — at submit, no work),
//   2. an identical in-flight
//      request                   (coalesced   — shares that future),
//   3. the store's disk tier     (persist hit — one read, on a worker),
//   4. the Turandot→PowerTimer→HotSpot→RAMP pipeline (evaluation), reusing
//      every upstream stage the store already holds.
// A pinned request resolves its 180 nm base cell the same way first: the
// base's sink temperature is an input of the target's key. Results are
// bitwise-identical to calling pipeline::Evaluator directly — caching never
// changes an answer, only when it is computed.
//
// Threading: submit() may be called from any thread *except* pool workers
// (a worker blocking on backpressure or on another task's future could
// starve the FIFO pool). All shared state sits behind one mutex; evaluation
// itself runs unlocked on the pool.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pipeline/evaluator.hpp"
#include "serve/request.hpp"

namespace ramp {
class ThreadPool;
}

namespace ramp::serve {

/// One evaluation outcome, shared (immutable) between all coalesced waiters
/// and the wire encoder. `key` is the wire form of the target's fit-stage
/// key: equal keys name the same result row.
struct EvalOutcome {
  std::string key;
  pipeline::AppTechResult result;
};
using OutcomePtr = std::shared_ptr<const EvalOutcome>;

/// Monotonic counters plus a point-in-time snapshot of service state.
struct ServiceStats {
  std::uint64_t requests = 0;     ///< submit() calls accepted
  std::uint64_t hits = 0;         ///< answered from the memory tier at submit
  std::uint64_t coalesced = 0;    ///< attached to an identical in-flight key
  std::uint64_t misses = 0;       ///< scheduled work (persist hit or eval)
  std::uint64_t persist_hits = 0; ///< target's fit row read from disk with
                                  ///< nothing computed
  std::uint64_t evaluations = 0;  ///< fit-stage computes (a pinned request
                                  ///< may count 2: base + node)
  std::uint64_t failures = 0;     ///< scheduled requests that threw
  std::uint64_t evictions = 0;    ///< store memory-tier entries displaced
  std::size_t queue_depth = 0;    ///< keys scheduled but not yet finished
  std::size_t cache_size = 0;     ///< store memory-tier entries resident
  double p50_latency_ms = 0.0;    ///< over recent scheduled requests
  double p99_latency_ms = 0.0;
};

class EvalService {
 public:
  struct Options {
    std::size_t jobs = 1;            ///< pool size when owning
    ThreadPool* pool = nullptr;      ///< reuse an external pool; overrides jobs
    /// Results kept hot in the memory tier of the store the service creates:
    /// each result may bring its four upstream stages, so the tier holds
    /// the store's default 512 entries plus 5 × cache_capacity.
    std::size_t cache_capacity = 256;
    std::size_t max_pending = 64;    ///< backpressure: submit() blocks beyond
    /// Registry the service books its counters in. Defaults to an internal
    /// always-enabled registry: the `stats` wire format is contractual, so
    /// service accounting must not depend on RAMP_METRICS.
    obs::MetricsRegistry* registry = nullptr;
    /// The store requests are answered from and evaluations schedule
    /// against (see pipeline/stage_graph.hpp). Null: the service creates
    /// one persisting under the base config's stage_cache_dir (memory-only
    /// when empty), sized by cache_capacity. Requests opt out individually
    /// with `"stage_cache": false` (computed, never cached).
    std::shared_ptr<pipeline::StageStore> stage_store;
  };

  /// How submit() answered a request — reported so front-ends can tell
  /// callers whether their answer was cached.
  enum class Source { kCache, kCoalesced, kScheduled };

  /// Where a scheduled request's time went, filled by the worker that ran
  /// it. Plain (non-atomic) fields: the worker's writes complete before the
  /// packaged_task fulfills the ticket's future, and front-ends only read
  /// after the future is ready, so fulfillment is the happens-before edge.
  /// Coalesced tickets share the scheduling request's cell.
  struct EvalPhases {
    std::chrono::steady_clock::time_point submitted{};  ///< set at submit
    std::uint64_t queue_ns = 0;    ///< submit → worker pickup
    std::uint64_t cache_ns = 0;    ///< store answered with nothing computed
    std::uint64_t compute_ns = 0;  ///< evaluation that computed a fit stage
    std::uint64_t total_ns = 0;    ///< worker pickup → outcome recorded
    /// compute_ns split by pipeline stage: the worker thread's Profiler
    /// deltas around the evaluation (all zero when RAMP_METRICS is off).
    std::array<std::uint64_t, obs::kNumStages> stage_ns{};
  };

  struct Ticket {
    std::shared_future<OutcomePtr> future;
    Source source = Source::kScheduled;
    /// Non-null iff source != kCache: the breakdown of the scheduled run
    /// answering this ticket. Read only once `future` is ready.
    std::shared_ptr<EvalPhases> phases;
  };

  EvalService(pipeline::EvaluationConfig base, Options opts);
  ~EvalService();  ///< drains every scheduled request before returning

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Validates and enqueues `req` (op must be kEval). Returns immediately
  /// with a shared future unless the pending-evaluation bound is reached,
  /// in which case it blocks until a slot frees (backpressure). Invalid
  /// requests throw synchronously and consume no slot; failures inside the
  /// pipeline surface from future::get().
  Ticket submit(const EvalRequest& req);

  /// Non-blocking submit for event-loop callers that must never stall
  /// (net::Server). Cache hits and coalesced joins always succeed; a request
  /// that would have to *schedule* work while the pending bound is full
  /// returns false instead of blocking (the caller sheds or retries), and
  /// consumes no slot and books no counters. Same validation as submit().
  bool try_submit(const EvalRequest& req, Ticket* out);

  /// Installs a hook invoked (on a worker thread, outside the service lock)
  /// every time a scheduled key finishes — successfully or not. Event-loop
  /// front-ends use it to wake and re-poll their pending tickets; cache-hit
  /// and coalesced tickets never fire it (their futures are ready at, or
  /// before, submit return). Pass nullptr to clear. Not thread-safe against
  /// in-flight work: install before serving.
  void set_completion_hook(std::function<void()> hook);

  /// submit() + get(): the blocking convenience entry point.
  OutcomePtr evaluate(const EvalRequest& req);

  /// Flight-recorder entry point (`{"op":"timeline"}`): evaluates `req` (op
  /// kEval or kTimeline) with the timeline recorder and watchdog enabled,
  /// recomputing the target's fit stage — cached rows carry no timelines.
  /// Runs synchronously on the calling thread (it is a debug op, not a
  /// serving-path citizen); a pinned request still reuses or populates the
  /// cached 180 nm base run. `req.points` overrides the point budget.
  pipeline::AppTechResult evaluate_timeline(const EvalRequest& req);

  /// Zeroes the service counters and the latency window (the
  /// `metrics_reset` op). Gauges are recomputed on the next event; call
  /// only quiesced (after drain()) so no in-flight task is mid-increment.
  void reset_stats();

  /// Blocks until no scheduled request is in flight.
  void drain();

  ServiceStats stats() const;

  /// The registry holding the service's `ramp_serve_*` metrics (the one
  /// passed in Options, else the internal always-enabled default). Exposed
  /// for exporters — the server's `metrics` op snapshots it.
  const obs::MetricsRegistry& metrics() const;

  /// Mutable registry access for co-located front-ends (net::Server books
  /// its `ramp_net_*` connection/shed/drain counters here so one `metrics`
  /// op exports service and transport together).
  obs::MetricsRegistry& registry() { return *registry_; }

  /// The store requests are answered from (never null). The `fleet` op runs
  /// its physics cells through it so a fleet scenario and the eval path
  /// never duplicate stage work.
  std::shared_ptr<pipeline::StageStore> stage_store() const {
    return opts_.stage_store;
  }

  const pipeline::EvaluationConfig& config() const { return base_; }
  const Options& options() const { return opts_; }

 private:
  /// A request's identity at submit: its in-flight key, plus the memory
  /// tier's answer when the store already holds the target row.
  struct Resolved {
    std::string key;
    OutcomePtr hit;
  };
  /// One scheduled cell's answer and what it cost.
  struct CellRun {
    pipeline::AppTechResult result;
    std::string key;             ///< EvalOutcome::key
    std::uint64_t computed = 0;  ///< fit stages computed (base + target)
    bool from_disk = false;      ///< target row read from disk, none computed
  };

  Resolved resolve(const EvalRequest& req);
  /// submit() and try_submit(): `block` waits for a pending slot instead of
  /// returning false.
  bool admit(const EvalRequest& req, Ticket* out, bool block);
  OutcomePtr run_scheduled(const EvalRequest& req,
                           const std::shared_ptr<EvalPhases>& phases);
  CellRun run_cell(const EvalRequest& req,
                   const pipeline::EvaluationConfig& cfg);
  void record_outcome(bool from_disk, double latency_ms);
  /// Books the store's new memory-tier evictions and occupancy; mutex_ held.
  void sync_store_locked() const;

  pipeline::EvaluationConfig base_;
  Options opts_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  /// In-flight scheduled keys. Coalescing joiners copy both members, so all
  /// waiters on one key share one future and one phase cell.
  struct Inflight {
    std::shared_future<OutcomePtr> future;
    std::shared_ptr<EvalPhases> phases;
  };
  std::unordered_map<std::string, Inflight> inflight_;
  std::vector<std::shared_future<void>> task_handles_;  ///< for drain/dtor
  std::size_t pending_ = 0;
  std::function<void()> completion_hook_;  ///< see set_completion_hook
  mutable std::uint64_t evictions_seen_ = 0;  ///< store count last booked

  // Service accounting lives on the registry as `ramp_serve_*` metrics; all
  // increments happen under mutex_, so ServiceStats snapshots stay exactly
  // as consistent as the plain-integer originals.
  obs::Counter requests_;
  obs::Counter hits_;
  obs::Counter coalesced_;
  obs::Counter misses_;
  obs::Counter persist_hits_;
  obs::Counter evaluations_;
  obs::Counter failures_;
  obs::Counter evictions_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge cache_entries_gauge_;
  obs::Histogram latency_hist_;
  /// Exact recent latencies for the contractual p50/p99 stats fields (the
  /// histogram above only buckets them for Prometheus consumers).
  std::vector<double> latencies_ms_;  ///< bounded ring, newest overwrite
  std::size_t latency_next_ = 0;
  bool latency_full_ = false;
};

}  // namespace ramp::serve
