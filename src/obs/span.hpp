// Wall-time tracing: RAII spans feeding per-thread buffers that aggregate
// into a per-stage profile of the evaluation pipeline.
//
// A Span times one section of one pipeline stage (trace-gen / sim / power /
// thermal / FIT / cache / schedule) and records the elapsed wall time when
// it is stopped or destroyed. Records land in the calling thread's own log —
// two relaxed atomic adds — so the hot path takes no lock and scales across
// pool workers. Profiler::snapshot() merges every thread's log into one
// StageProfile: process totals per stage and per-cell ("app@node")
// breakdowns.
//
// Hot loops that would otherwise start a span per iteration (the evaluator's
// per-interval transient loop) accumulate into plain local doubles and
// publish once per run via record_cell(); a Span is for section-sized work.
//
// Like the metrics registry, the process-wide Profiler::global() is gated
// by RAMP_METRICS: when disabled, record() and Span reduce to one branch
// and no clock is read.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ramp::obs {

/// Pipeline stages the profile is keyed by. kTotal is the whole evaluator
/// run (so exporters and tests can check the stage sum against it);
/// kSchedule is time spent queued behind a thread pool, which is deliberately
/// *not* part of kTotal.
enum class Stage : int {
  kTraceGen = 0,
  kSim,
  kPower,
  kThermal,
  kFit,
  kCache,
  kSchedule,
  kTotal,
};
inline constexpr int kNumStages = 8;

/// Stable lowercase identifier ("trace_gen", "sim", ..., "total"); used as
/// the `stage` label by the exporters.
std::string_view stage_name(Stage s);

struct StageAccum {
  double seconds = 0.0;
  std::uint64_t spans = 0;
};

struct StageProfile {
  std::array<StageAccum, kNumStages> totals{};
  /// Per-cell breakdown, keyed "app@node" (e.g. "gcc@90").
  std::map<std::string, std::array<StageAccum, kNumStages>> cells;

  double seconds(Stage s) const {
    return totals[static_cast<std::size_t>(s)].seconds;
  }
};

/// One complete slice captured for the Chrome-trace exporter. Timestamps are
/// nanoseconds since the profiler's trace epoch (set by enable_trace), so
/// events from different threads share one causal timebase.
struct TraceEvent {
  Stage stage = Stage::kTotal;
  std::string name;  ///< display name: the cell, or the stage name
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// All events one thread captured, with a *stable* synthetic thread id:
/// pool worker k maps to tid 2+k on every run, the first non-worker thread
/// (the main/serve loop) to tid 1, and later non-workers to 1001, 1002, ...
/// — so traces from repeated runs line up in the viewer.
struct ThreadTrace {
  std::uint64_t tid = 0;
  int worker_id = -1;  ///< ThreadPool::current_worker_id(), -1 off-pool
  std::string name;    ///< "main", "pool-worker-3", "thread-2"
  std::uint64_t dropped = 0;  ///< events discarded once the buffer filled
  std::vector<TraceEvent> events;  ///< in capture order
};

class Profiler {
 public:
  explicit Profiler(bool enabled);

  /// The process-wide profiler, enabled per RAMP_METRICS (same strict gate
  /// as MetricsRegistry::global()).
  static Profiler& global();

  bool enabled() const { return enabled_; }

  /// Adds `seconds` of wall time (covering `spans` spans) to stage `s` in
  /// the calling thread's log. Lock-free; no-op when disabled.
  void record(Stage s, double seconds, std::uint64_t spans = 1);

  /// record() plus a per-cell attribution under the "app@node" key `cell`.
  /// Takes the calling thread's (uncontended) cell-map lock; intended for
  /// once-per-run publication, not per-interval calls.
  void record_cell(Stage s, const std::string& cell, double seconds,
                   std::uint64_t spans = 1);

  /// Merged view of every thread's log (including threads that have since
  /// exited). Safe to call concurrently with record().
  StageProfile snapshot() const;

  /// The *calling thread's* cumulative per-stage nanoseconds. Two reads
  /// bracketing a section attribute exactly that section's stage work to it
  /// (a pool worker runs one evaluation at a time), which is how the serve
  /// path splits a request's compute phase by pipeline stage without adding
  /// clock reads. All zeros when the profiler is disabled.
  std::array<std::uint64_t, kNumStages> thread_stage_nanos();

  /// Switches on Chrome-trace event capture (requires an enabled profiler;
  /// no-op otherwise). Sets the trace epoch on first call; idempotent after.
  /// Each thread buffers at most `capacity_per_thread` events and counts
  /// further ones as dropped, so capture is bounded.
  void enable_trace(std::size_t capacity_per_thread = 1 << 16);
  bool trace_enabled() const;

  /// Appends one complete [start, end) slice to the calling thread's event
  /// buffer. No-op unless tracing is enabled. Does *not* feed the stage
  /// accumulators — pair with record()/record_cell() for that.
  void record_event(Stage s, std::string name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end);

  /// record_cell() plus, when tracing, a trace event named `cell` covering
  /// [start, end). The lap-timing call sites in the evaluator already hold
  /// both endpoints, so this adds no clock reads.
  void record_cell_timed(Stage s, const std::string& cell,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end,
                         std::uint64_t spans = 1);

  /// Per-thread captured events, sorted by tid. Safe to call concurrently
  /// with record_event().
  std::vector<ThreadTrace> trace_snapshot() const;

  /// Zeroes all logs (including captured trace events). Call only when no
  /// spans are in flight (tests, the serve metrics_reset barrier).
  void reset();

  // Implementation detail, public only so the translation unit's helpers can
  // name it; not part of the API.
  struct ThreadLog;

 private:
  struct State;
  ThreadLog& local_log();

  const bool enabled_;
  std::uint64_t id_ = 0;  ///< distinguishes profiler instances in thread caches
  std::shared_ptr<State> state_;
};

/// RAII span: starts timing at construction, records into the profiler at
/// stop()/destruction. Costs two steady_clock reads when enabled, one branch
/// when not.
class Span {
 public:
  explicit Span(Stage s, Profiler& p = Profiler::global());
  /// Attributes the span to `cell` ("app@node") as well as the stage total.
  Span(Stage s, std::string cell, Profiler& p = Profiler::global());
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records now (idempotent) and returns the elapsed seconds (0 when the
  /// profiler is disabled).
  double stop();

 private:
  Profiler& profiler_;
  Stage stage_;
  std::string cell_;
  std::chrono::steady_clock::time_point start_{};
  bool running_ = false;
};

}  // namespace ramp::obs
