#include "serve/eval_service.hpp"

#include <algorithm>
#include <chrono>

#include "obs/span.hpp"
#include "pipeline/stage_graph.hpp"
#include "util/error.hpp"
#include "util/hashing.hpp"
#include "util/thread_pool.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::serve {

namespace {

constexpr std::size_t kLatencyWindow = 512;

using pipeline::StageId;

/// The paper's scaling rule applies: the scaled node holds the app's 180 nm
/// heat-sink temperature. An explicit sink target supersedes pinning, and
/// pinning at 180 nm is the identity (the 180 nm run *is* the pin source).
bool pinned(const EvalRequest& req) {
  return req.pin_sink && req.sink_k <= 0.0 &&
         req.node != scaling::TechPoint::k180nm;
}

/// EvalOutcome::key: a digest of the fit-stage key, short for every reply.
std::string wire_key(const pipeline::StageKey& fit) {
  Fnv64 h;
  h.mix(std::string_view(fit.canonical));
  return "fit.v1:" + h.hex();
}

}  // namespace

EvalService::EvalService(pipeline::EvaluationConfig base, Options opts)
    : base_(std::move(base)), opts_(std::move(opts)) {
  RAMP_REQUIRE(opts_.max_pending > 0, "max_pending must be at least 1");
  if (opts_.pool != nullptr) {
    pool_ = opts_.pool;
  } else {
    RAMP_REQUIRE(opts_.jobs > 0, "EvalService needs at least one job");
    owned_pool_ = std::make_unique<ThreadPool>(opts_.jobs);
    pool_ = owned_pool_.get();
  }
  if (opts_.registry != nullptr) {
    registry_ = opts_.registry;
  } else {
    // Always enabled: the stats wire format promises exact counters whether
    // or not the process-wide RAMP_METRICS switch is on.
    owned_registry_ = std::make_unique<obs::MetricsRegistry>(true);
    registry_ = owned_registry_.get();
  }
  if (opts_.stage_store == nullptr) {
    pipeline::StageStore::Options store_opts{.dir = base_.stage_cache_dir};
    store_opts.memory_entries +=
        static_cast<std::size_t>(pipeline::kNumStageIds) * opts_.cache_capacity;
    opts_.stage_store = std::make_shared<pipeline::StageStore>(store_opts);
  }
  evictions_seen_ = opts_.stage_store->blobs().evictions();
  requests_ = registry_->counter("ramp_serve_requests_total");
  hits_ = registry_->counter("ramp_serve_hits_total");
  coalesced_ = registry_->counter("ramp_serve_coalesced_total");
  misses_ = registry_->counter("ramp_serve_misses_total");
  persist_hits_ = registry_->counter("ramp_serve_persist_hits_total");
  evaluations_ = registry_->counter("ramp_serve_evaluations_total");
  failures_ = registry_->counter("ramp_serve_failures_total");
  evictions_ = registry_->counter("ramp_serve_evictions_total");
  queue_depth_gauge_ = registry_->gauge("ramp_serve_queue_depth");
  cache_entries_gauge_ = registry_->gauge("ramp_serve_cache_entries");
  latency_hist_ = registry_->histogram(
      "ramp_serve_latency_seconds",
      {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5});
  latencies_ms_.resize(kLatencyWindow, 0.0);
}

EvalService::~EvalService() { drain(); }

void EvalService::drain() {
  // Task handles complete only after the pool task fully returned, so once
  // every handle is ready no task can still touch this object.
  std::vector<std::shared_future<void>> handles;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    handles = task_handles_;
  }
  for (auto& h : handles) h.wait();
  const std::lock_guard<std::mutex> lock(mutex_);
  task_handles_.clear();
}

EvalService::Resolved EvalService::resolve(const EvalRequest& req) {
  const workloads::Workload& w = workloads::workload(req.app);
  const pipeline::EvaluationConfig cfg = req.effective_config(base_);
  const auto fit_key = [&](scaling::TechPoint node, double sink_k) {
    return pipeline::cell_keys(cfg, w, node, sink_k).fit;
  };
  // The in-flight key must not depend on what the store holds, or identical
  // requests racing a base computation would not coalesce: a pinned request
  // goes by its base's fit key (covering every config field the target
  // reads) and node. Uncached requests never join a cached computation.
  const bool pin = pinned(req);
  pipeline::StageKey fit = pin ? fit_key(scaling::TechPoint::k180nm, 0.0)
                               : fit_key(req.node, req.sink_k);
  std::string key = req.stage_cache ? "" : "nostore|";
  if (pin) key += "pin|" + std::string(scaling::tech_token(req.node)) + "|";
  Resolved resolved{key + fit.canonical, nullptr};
  if (!req.stage_cache) return resolved;

  pipeline::StageStore& store = *opts_.stage_store;
  auto row = store.peek<pipeline::AppTechResult>(StageId::kFit, fit);
  if (pin && row) {
    // The resident base row's sink temperature completes the target key.
    fit = fit_key(req.node, row->sink_temp_k);
    row = store.peek<pipeline::AppTechResult>(StageId::kFit, fit);
  }
  if (!row) return resolved;
  auto hit = std::make_shared<EvalOutcome>();
  hit->key = wire_key(fit);
  hit->result = std::move(*row);
  hit->result.app = w.name;
  hit->result.tech = req.node;
  resolved.hit = std::move(hit);
  return resolved;
}

bool EvalService::admit(const EvalRequest& req, Ticket* out, bool block) {
  RAMP_REQUIRE(req.op == Op::kEval, "submit() takes eval requests only");
  std::unique_lock<std::mutex> lock(mutex_);
  // Memory-tier peeks only (no disk I/O or compute), under the lock so they
  // and the in-flight check are one step: a completion publishes its row
  // before it leaves the map. Invalid apps throw before any accounting.
  const Resolved resolved = resolve(req);
  if (resolved.hit) {
    requests_.inc();
    hits_.inc();
    std::promise<OutcomePtr> ready;
    ready.set_value(resolved.hit);
    *out = {ready.get_future().share(), Source::kCache, nullptr};
    return true;
  }
  if (auto it = inflight_.find(resolved.key); it != inflight_.end()) {
    requests_.inc();
    coalesced_.inc();
    *out = {it->second.future, Source::kCoalesced, it->second.phases};
    return true;
  }
  // Would have to schedule: a non-blocking caller is refused instead while
  // the pending bound is full, and no counters move.
  if (!block && pending_ >= opts_.max_pending) return false;
  requests_.inc();
  misses_.inc();
  // Backpressure: bound the number of scheduled-but-unfinished keys. The
  // wait releases the lock, so hits/stats stay serviceable meanwhile.
  slot_free_.wait(lock, [this] { return pending_ < opts_.max_pending; });
  ++pending_;
  queue_depth_gauge_.set(static_cast<double>(pending_));

  // The phase cell costs one allocation and one clock read per *scheduled*
  // request — noise against the ms-scale evaluation it times (cache hits,
  // the knee-determining path, never get here).
  auto phases = std::make_shared<EvalPhases>();
  phases->submitted = std::chrono::steady_clock::now();
  auto task = std::make_shared<std::packaged_task<OutcomePtr()>>(
      [this, req, phases] { return run_scheduled(req, phases); });
  std::shared_future<OutcomePtr> future = task->get_future().share();
  const std::string& key = resolved.key;
  inflight_.emplace(key, Inflight{future, phases});

  // Opportunistically drop completed handles so the vector stays bounded.
  task_handles_.erase(
      std::remove_if(task_handles_.begin(), task_handles_.end(),
                     [](const std::shared_future<void>& h) {
                       return h.wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready;
                     }),
      task_handles_.end());
  lock.unlock();

  std::shared_future<void> handle =
      pool_->submit([this, task, key] {
             (*task)();  // exceptions land in `future`
             std::function<void()> hook;
             {
               const std::lock_guard<std::mutex> inner(mutex_);
               inflight_.erase(key);
               --pending_;
               queue_depth_gauge_.set(static_cast<double>(pending_));
               slot_free_.notify_all();
               hook = completion_hook_;
             }
             // Outside the lock: the hook typically writes an eventfd to
             // wake an event loop, which may itself call back in.
             if (hook) hook();
           })
          .share();
  {
    const std::lock_guard<std::mutex> inner(mutex_);
    task_handles_.push_back(std::move(handle));
  }
  *out = {future, Source::kScheduled, phases};
  return true;
}

EvalService::Ticket EvalService::submit(const EvalRequest& req) {
  Ticket ticket;
  admit(req, &ticket, true);
  return ticket;
}

bool EvalService::try_submit(const EvalRequest& req, Ticket* out) {
  RAMP_REQUIRE(out != nullptr, "try_submit needs an output ticket");
  return admit(req, out, false);
}

void EvalService::set_completion_hook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(mutex_);
  completion_hook_ = std::move(hook);
}

OutcomePtr EvalService::evaluate(const EvalRequest& req) {
  return submit(req).future.get();
}

OutcomePtr EvalService::run_scheduled(const EvalRequest& req,
                                      const std::shared_ptr<EvalPhases>& phases) {
  const auto start = std::chrono::steady_clock::now();
  const auto delta_ns = [](std::chrono::steady_clock::time_point a,
                           std::chrono::steady_clock::time_point b) {
    return b <= a ? std::uint64_t{0}
                  : static_cast<std::uint64_t>(
                        std::chrono::nanoseconds(b - a).count());
  };
  phases->queue_ns = delta_ns(phases->submitted, start);
  try {
    // Stage attribution by bracketing the worker's cumulative per-stage
    // counters: this thread runs exactly one evaluation at a time, so the
    // deltas are this request's stage work (zeros when RAMP_METRICS off).
    const auto stages_before = obs::Profiler::global().thread_stage_nanos();
    CellRun run = run_cell(req, req.effective_config(base_));
    const auto end = std::chrono::steady_clock::now();
    const auto stages_after = obs::Profiler::global().thread_stage_nanos();
    (run.computed > 0 ? phases->compute_ns : phases->cache_ns) =
        delta_ns(start, end);
    for (int i = 0; i < obs::kNumStages; ++i) {
      const auto si = static_cast<std::size_t>(i);
      phases->stage_ns[si] = stages_after[si] >= stages_before[si]
                                 ? stages_after[si] - stages_before[si]
                                 : 0;
    }
    phases->total_ns = delta_ns(start, end);
    // One trace slice per scheduled request on the worker that served it —
    // the serve-request spans of the Perfetto timeline.
    obs::Profiler::global().record_event(
        obs::Stage::kTotal,
        "serve " + req.app + "@" + std::string(scaling::tech_token(req.node)),
        start, end);
    const std::chrono::duration<double, std::milli> wall = end - start;
    record_outcome(run.from_disk, wall.count());
    auto outcome = std::make_shared<EvalOutcome>();
    outcome->key = std::move(run.key);
    outcome->result = std::move(run.result);
    return outcome;
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    failures_.inc();
    throw;
  }
}

pipeline::AppTechResult EvalService::evaluate_timeline(const EvalRequest& req) {
  RAMP_REQUIRE(req.op == Op::kEval || req.op == Op::kTimeline,
               "evaluate_timeline() takes eval/timeline requests only");
  workloads::workload(req.app);
  pipeline::EvaluationConfig cfg = req.effective_config(base_);
  cfg.timeline_enabled = true;
  if (req.points) cfg.timeline_points = *req.points;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    requests_.inc();
  }
  return run_cell(req, cfg).result;
}

void EvalService::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_->reset();
  // Point-in-time gauges stay meaningful across a counter reset.
  queue_depth_gauge_.set(static_cast<double>(pending_));
  evictions_seen_ = opts_.stage_store->blobs().evictions();
  sync_store_locked();
  std::fill(latencies_ms_.begin(), latencies_ms_.end(), 0.0);
  latency_next_ = 0;
  latency_full_ = false;
}

EvalService::CellRun EvalService::run_cell(
    const EvalRequest& req, const pipeline::EvaluationConfig& cfg) {
  const std::shared_ptr<pipeline::StageStore> store =
      req.stage_cache ? opts_.stage_store : nullptr;
  const workloads::Workload& w = workloads::workload(req.app);
  CellRun run;
  BlobStore::Outcome outcome = BlobStore::Outcome::kComputed;
  double sink_k = req.sink_k;
  if (pinned(req)) {
    // The base cell goes through the store under its own key, so one warm
    // process pays for an app's 180 nm run once across all nodes. It runs
    // inline (not re-submitted to the pool) because a FIFO-pool worker must
    // never block on a task queued behind itself, and without the flight
    // recorder, so its row is the one a plain eval reads.
    pipeline::EvaluationConfig base_cfg = cfg;
    base_cfg.timeline_enabled = false;
    sink_k = pipeline::Evaluator(base_cfg, store)
                 .evaluate(w, scaling::TechPoint::k180nm, 0.0, &outcome)
                 .sink_temp_k;
    run.computed += outcome == BlobStore::Outcome::kComputed ? 1 : 0;
  }
  run.result =
      pipeline::Evaluator(cfg, store).evaluate(w, req.node, sink_k, &outcome);
  run.computed += outcome == BlobStore::Outcome::kComputed ? 1 : 0;
  run.from_disk = outcome == BlobStore::Outcome::kDiskHit && run.computed == 0;
  run.key = wire_key(pipeline::cell_keys(cfg, w, req.node, sink_k).fit);
  const std::lock_guard<std::mutex> lock(mutex_);
  evaluations_.inc(run.computed);
  return run;
}

void EvalService::record_outcome(bool from_disk, double latency_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (from_disk) persist_hits_.inc();
  sync_store_locked();
  latency_hist_.observe(latency_ms / 1e3);
  latencies_ms_[latency_next_] = latency_ms;
  latency_next_ = (latency_next_ + 1) % latencies_ms_.size();
  if (latency_next_ == 0) latency_full_ = true;
}

void EvalService::sync_store_locked() const {
  const BlobStore& blobs = opts_.stage_store->blobs();
  const std::uint64_t evicted = blobs.evictions();
  evictions_.inc(evicted - evictions_seen_);
  evictions_seen_ = evicted;
  cache_entries_gauge_.set(static_cast<double>(blobs.memory_entries()));
}

const obs::MetricsRegistry& EvalService::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_store_locked();
  return *registry_;
}

ServiceStats EvalService::stats() const {
  std::vector<double> window;
  ServiceStats s;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    sync_store_locked();
    s.requests = requests_.value();
    s.hits = hits_.value();
    s.coalesced = coalesced_.value();
    s.misses = misses_.value();
    s.persist_hits = persist_hits_.value();
    s.evaluations = evaluations_.value();
    s.failures = failures_.value();
    s.evictions = evictions_.value();
    s.queue_depth = pending_;
    s.cache_size = opts_.stage_store->blobs().memory_entries();
    const std::size_t n = latency_full_ ? latencies_ms_.size() : latency_next_;
    window.assign(latencies_ms_.begin(),
                  latencies_ms_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (!window.empty()) {
    std::sort(window.begin(), window.end());
    const auto at = [&](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(window.size() - 1) + 0.5);
      return window[std::min(idx, window.size() - 1)];
    };
    s.p50_latency_ms = at(0.50);
    s.p99_latency_ms = at(0.99);
  }
  return s;
}

}  // namespace ramp::serve
