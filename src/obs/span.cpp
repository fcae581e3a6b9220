#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ramp::obs {

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kTraceGen: return "trace_gen";
    case Stage::kSim: return "sim";
    case Stage::kPower: return "power";
    case Stage::kThermal: return "thermal";
    case Stage::kFit: return "fit";
    case Stage::kCache: return "cache";
    case Stage::kSchedule: return "schedule";
    case Stage::kTotal: return "total";
  }
  throw InvalidArgument("unknown stage");
}

// Each thread owns one log per profiler it has touched. The log's stage
// accumulators are relaxed atomics (writer: owner thread; readers: snapshot);
// the cell map is guarded by a mutex that only snapshot() ever contends.
// Logs are owned by the profiler state via shared_ptr and are never removed,
// so a thread that exits simply leaves its final totals behind; the
// thread-local cache also holds a shared_ptr, so a log outlives even its
// profiler if a detached thread records after the profiler is destroyed.
struct Profiler::ThreadLog {
  std::array<std::atomic<std::uint64_t>, kNumStages> nanos{};
  std::array<std::atomic<std::uint64_t>, kNumStages> spans{};

  std::mutex cell_mutex;
  std::map<std::string, std::array<StageAccum, kNumStages>> cells;

  // Stable trace identity, assigned when the log is registered (see
  // ThreadTrace for the tid scheme).
  std::uint64_t tid = 0;
  int worker_id = -1;
  std::string thread_name;

  // Captured trace events. Writer: the owning thread; reader: snapshots and
  // reset. The mutex is uncontended on the hot path (the owner only ever
  // races a snapshot) and events are only captured when tracing is on.
  std::mutex trace_mutex;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

struct Profiler::State {
  mutable std::mutex mutex;
  std::vector<std::shared_ptr<ThreadLog>> logs;
  std::uint64_t non_workers = 0;  ///< non-pool threads registered so far

  std::atomic<bool> trace_on{false};
  std::size_t trace_capacity = 0;                   ///< set by enable_trace
  std::chrono::steady_clock::time_point trace_epoch{};  ///< set by enable_trace
};

namespace {

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct CachedLog {
  std::uint64_t profiler_id;
  std::shared_ptr<Profiler::ThreadLog> log;
};

}  // namespace

Profiler::Profiler(bool enabled)
    : enabled_(enabled),
      id_(enabled ? next_profiler_id() : 0),
      state_(enabled ? std::make_shared<State>() : nullptr) {}

Profiler& Profiler::global() {
  static Profiler profiler(metrics_enabled_from_env());
  return profiler;
}

Profiler::ThreadLog& Profiler::local_log() {
  thread_local std::vector<CachedLog> t_logs;
  for (const auto& entry : t_logs) {
    if (entry.profiler_id == id_) return *entry.log;
  }
  auto log = std::make_shared<ThreadLog>();
  log->worker_id = ThreadPool::current_worker_id();
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (log->worker_id >= 0) {
      log->tid = 2 + static_cast<std::uint64_t>(log->worker_id);
      log->thread_name = "pool-worker-" + std::to_string(log->worker_id);
    } else if (state_->non_workers == 0) {
      log->tid = 1;
      log->thread_name = "main";
      ++state_->non_workers;
    } else {
      log->tid = 1000 + state_->non_workers;
      log->thread_name = "thread-" + std::to_string(state_->non_workers);
      ++state_->non_workers;
    }
    state_->logs.push_back(log);
  }
  t_logs.push_back({id_, log});
  return *t_logs.back().log;
}

void Profiler::enable_trace(std::size_t capacity_per_thread) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  if (state_->trace_on.load(std::memory_order_relaxed)) return;
  state_->trace_capacity = capacity_per_thread;
  state_->trace_epoch = std::chrono::steady_clock::now();
  state_->trace_on.store(true, std::memory_order_release);
}

bool Profiler::trace_enabled() const {
  return enabled_ && state_->trace_on.load(std::memory_order_acquire);
}

void Profiler::record_event(Stage s, std::string name,
                            std::chrono::steady_clock::time_point start,
                            std::chrono::steady_clock::time_point end) {
  if (!trace_enabled()) return;
  ThreadLog& log = local_log();
  // The epoch is written once before trace_on is published (acquire above),
  // so this unlocked read is safe.
  const auto epoch = state_->trace_epoch;
  TraceEvent ev;
  ev.stage = s;
  ev.name = std::move(name);
  ev.ts_ns = start <= epoch
                 ? 0
                 : static_cast<std::uint64_t>(
                       std::chrono::nanoseconds(start - epoch).count());
  ev.dur_ns = end <= start
                  ? 0
                  : static_cast<std::uint64_t>(
                        std::chrono::nanoseconds(end - start).count());
  const std::lock_guard<std::mutex> lock(log.trace_mutex);
  if (log.events.size() >= state_->trace_capacity) {
    ++log.dropped;
    return;
  }
  log.events.push_back(std::move(ev));
}

void Profiler::record_cell_timed(Stage s, const std::string& cell,
                                 std::chrono::steady_clock::time_point start,
                                 std::chrono::steady_clock::time_point end,
                                 std::uint64_t spans) {
  if (!enabled_) return;
  record_cell(s, cell,
              std::chrono::duration<double>(end - start).count(), spans);
  record_event(s, cell, start, end);
}

std::vector<ThreadTrace> Profiler::trace_snapshot() const {
  std::vector<ThreadTrace> out;
  if (!enabled_) return out;
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    logs = state_->logs;
  }
  for (const auto& log : logs) {
    ThreadTrace t;
    t.tid = log->tid;
    t.worker_id = log->worker_id;
    t.name = log->thread_name;
    {
      const std::lock_guard<std::mutex> lock(log->trace_mutex);
      t.dropped = log->dropped;
      t.events = log->events;
    }
    if (t.events.empty() && t.dropped == 0) continue;
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) {
              return a.tid < b.tid;
            });
  return out;
}

void Profiler::record(Stage s, double seconds, std::uint64_t spans) {
  if (!enabled_) return;
  ThreadLog& log = local_log();
  const auto i = static_cast<std::size_t>(s);
  const auto ns =
      static_cast<std::uint64_t>(std::llround(std::max(0.0, seconds) * 1e9));
  log.nanos[i].fetch_add(ns, std::memory_order_relaxed);
  log.spans[i].fetch_add(spans, std::memory_order_relaxed);
}

std::array<std::uint64_t, kNumStages> Profiler::thread_stage_nanos() {
  std::array<std::uint64_t, kNumStages> out{};
  if (!enabled_) return out;
  ThreadLog& log = local_log();
  for (int i = 0; i < kNumStages; ++i) {
    const auto si = static_cast<std::size_t>(i);
    out[si] = log.nanos[si].load(std::memory_order_relaxed);
  }
  return out;
}

void Profiler::record_cell(Stage s, const std::string& cell, double seconds,
                           std::uint64_t spans) {
  if (!enabled_) return;
  record(s, seconds, spans);
  ThreadLog& log = local_log();
  const std::lock_guard<std::mutex> lock(log.cell_mutex);
  StageAccum& acc = log.cells[cell][static_cast<std::size_t>(s)];
  acc.seconds += seconds;
  acc.spans += spans;
}

StageProfile Profiler::snapshot() const {
  StageProfile profile;
  if (!enabled_) return profile;
  std::vector<std::shared_ptr<ThreadLog>> logs;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    logs = state_->logs;
  }
  for (const auto& log : logs) {
    for (int i = 0; i < kNumStages; ++i) {
      const auto si = static_cast<std::size_t>(i);
      profile.totals[si].seconds +=
          static_cast<double>(log->nanos[si].load(std::memory_order_relaxed)) * 1e-9;
      profile.totals[si].spans += log->spans[si].load(std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> lock(log->cell_mutex);
      for (const auto& [cell, accums] : log->cells) {
        auto& dst = profile.cells[cell];
        for (int i = 0; i < kNumStages; ++i) {
          const auto si = static_cast<std::size_t>(i);
          dst[si].seconds += accums[si].seconds;
          dst[si].spans += accums[si].spans;
        }
      }
    }
  }
  return profile;
}

void Profiler::reset() {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(state_->mutex);
  for (const auto& log : state_->logs) {
    for (int i = 0; i < kNumStages; ++i) {
      const auto si = static_cast<std::size_t>(i);
      log->nanos[si].store(0, std::memory_order_relaxed);
      log->spans[si].store(0, std::memory_order_relaxed);
    }
    {
      const std::lock_guard<std::mutex> cell_lock(log->cell_mutex);
      log->cells.clear();
    }
    const std::lock_guard<std::mutex> trace_lock(log->trace_mutex);
    log->events.clear();
    log->dropped = 0;
  }
}

Span::Span(Stage s, Profiler& p) : profiler_(p), stage_(s) {
  if (profiler_.enabled()) {
    start_ = std::chrono::steady_clock::now();
    running_ = true;
  }
}

Span::Span(Stage s, std::string cell, Profiler& p)
    : profiler_(p), stage_(s), cell_(std::move(cell)) {
  if (profiler_.enabled()) {
    start_ = std::chrono::steady_clock::now();
    running_ = true;
  }
}

double Span::stop() {
  if (!running_) return 0.0;
  running_ = false;
  const auto end = std::chrono::steady_clock::now();
  const std::chrono::duration<double> wall = end - start_;
  if (cell_.empty()) {
    profiler_.record(stage_, wall.count());
  } else {
    profiler_.record_cell(stage_, cell_, wall.count());
  }
  if (profiler_.trace_enabled()) {
    profiler_.record_event(
        stage_, cell_.empty() ? std::string(stage_name(stage_)) : cell_,
        start_, end);
  }
  return wall.count();
}

}  // namespace ramp::obs
