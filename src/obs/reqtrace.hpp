// Per-request serve-path tracing: the phase breakdown of one wire request
// (read → parse → admission → queue → cache probe → compute → serialize →
// flush) and the bounded ring of recent request traces a live server keeps.
//
// This is the serving-stack counterpart of span.hpp's pipeline profiler:
// span.hpp attributes wall time to *physics stages* process-wide, while a
// RequestTrace attributes one request's latency to *wire-path phases*, with
// the compute phase further split by pipeline stage (the worker's per-stage
// nano deltas around the evaluation). The serve protocol core
// (serve/session.hpp) fills a RequestTrace with at most one steady_clock
// pair per phase and only when its per-request trace switch is on — with it
// off no phase clock is ever read, so the hot path is untouched (the "zero
// overhead when off" contract the serve-saturation CI gate holds). The core
// also renders records as JSON (serve::trace_object), for traced responses
// and the slow log alike.
//
// TraceRing is single-writer by design: exactly one thread (the thread
// driving the serve protocol core, for either transport) pushes and
// snapshots, so it needs no locks.
// The ring epoch is captured at construction; all RequestTrace timestamps
// are nanoseconds since that epoch, which keeps every record in one causal
// timebase for the Perfetto export.
//
// request_lanes() renders a ring snapshot as obs::ThreadTrace lanes for the
// existing Chrome-trace exporter (trace_export.hpp): overlapping requests
// get distinct lanes (greedy first-fit on start time), each request becomes
// a parent slice with its phases laid out as sequential child slices. The
// layout is an attribution diagram, not a literal schedule — phases are
// drawn back-to-back from the request start even though queue wait and
// compute overlap the head-of-line wait — but the per-phase widths are the
// measured nanos, which is what the viewer is for.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace ramp::obs {

/// Wire-path phases of one request, in causal order. kCompute is further
/// split by pipeline stage in RequestTrace::stage_ns.
enum class Phase : int {
  kRead = 0,    ///< first byte of the line → newline (0 when it arrived whole)
  kParse,       ///< JSON parse + request validation
  kAdmission,   ///< admission control + cache probe + submit/shed decision
  kQueue,       ///< scheduled: submit → worker pickup; else head-of-line wait
  kCache,       ///< stage store answered on the worker, nothing computed
  kCompute,     ///< pipeline evaluation wall time on the worker
  kSerialize,   ///< response JSON build + dump
  kFlush,       ///< response enqueued → last byte written to the socket
};
inline constexpr int kNumPhases = 8;

/// Stable lowercase identifier ("read", "parse", ..., "flush") used by the
/// trace object on responses and in the slow log, and by the phase metrics.
std::string_view phase_name(Phase p);

/// One request's complete trace record.
struct RequestTrace {
  std::string trace_id;  ///< client-supplied or server-generated
  std::string op;        ///< wire op ("eval", ...)
  std::string label;     ///< eval: "app@node"; "" otherwise
  std::uint64_t start_ns = 0;  ///< accept time, relative to the ring epoch
  std::uint64_t total_ns = 0;  ///< accept → last byte flushed
  std::array<std::uint64_t, kNumPhases> phase_ns{};
  /// kCompute split by pipeline stage (worker-thread Profiler deltas around
  /// the evaluation); all zero when RAMP_METRICS is off.
  std::array<std::uint64_t, kNumStages> stage_ns{};
  bool cached = false;
  bool coalesced = false;
  bool ok = true;
};

/// Bounded ring of recent request traces. Single-writer, single-reader, one
/// thread: the owning front-end both pushes and snapshots (the `trace_dump`
/// op runs on the same loop), so there is no synchronization to pay for.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 512);

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Nanoseconds from the ring epoch to `t` (0 when `t` precedes it).
  std::uint64_t to_epoch_ns(std::chrono::steady_clock::time_point t) const;

  void push(RequestTrace rec);

  /// Records still resident, oldest first.
  std::vector<RequestTrace> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_pushed() const { return pushed_; }
  void clear();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::vector<RequestTrace> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_ = 0;
  std::uint64_t pushed_ = 0;
};

/// Lays a ring snapshot out as Chrome-trace lanes for to_chrome_trace():
/// requests are sorted by start time and greedily packed onto the first lane
/// whose previous request already ended (lane k renders as tid 1+k,
/// "requests-lane-k"). Each request contributes one parent slice (cat
/// "total") plus sequential child slices per non-zero phase; the compute
/// phase emits per-stage children (cat "sim", "thermal", ...) when stage
/// deltas were captured, else one "compute" slice.
std::vector<ThreadTrace> request_lanes(const std::vector<RequestTrace>& recs);

}  // namespace ramp::obs
