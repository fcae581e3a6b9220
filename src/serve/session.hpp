// The NDJSON protocol core of every `ramp serve` transport.
//
// The stdio transport (server.hpp) and the TCP event loop (net/server.hpp) only
// move bytes. Everything between the bytes lives here, once: newline framing
// with the kMaxRequestLine cap, request parsing, op dispatch, the in-order
// queue of response slots, and the per-request trace (phase fill, trace ids,
// the recent-trace ring and the slow log). For a TCP event loop nothing
// here blocks; the stdio transport, the only client of its process, is
// allowed to (see kStdio below, and Session::wait()).
//
// `Protocol` is the per-process half (one per transport instance, shared by
// its clients); `Session` is one client's conversation. Per-transport
// differences are decided by Protocol::Transport, i.e. by the transport that
// owns the connections, never by an option:
//   kStdio  the only client. Evals admit with the blocking
//           EvalService::submit and are never shed. Every other op is a
//           barrier: it is answered once everything before it has been
//           written, control ops quiesce the service first, and no later
//           line is handled until it is answered. `health` reports
//           "mode":"stdio" with 1/1 connections. `timeline` and `fleet` run
//           inline.
//   kTcp    many clients. Evals admit with EvalService::try_submit under the
//           global queued-work cap and are shed with `overloaded` beyond it.
//           Control ops snapshot live counters when they reach the head of
//           their client's line. `health` asks the transport; `timeline`
//           and `fleet` run on the transport's aux thread.
//
// Response schema (one JSON object per line, in request order):
//   {"ok":true,"op":"eval","id":...,"key":"...","cached":bool,
//    "coalesced":bool,"result":{...}}
//   {"ok":true,"op":"stats","id":...,"stats":{...}}
//   {"ok":true,"op":"metrics","id":...,"prometheus":"..."}
//   {"ok":true,"op":"metrics_reset","id":...}
//   {"ok":true,"op":"timeline","id":...,"result":{...},"points":[...],...}
//   {"ok":true,"op":"fleet","id":...,"scenario":{...},"summary":{...},
//    "curve":[...]}
//   {"ok":true,"op":"health","id":...,"mode":"...","uptime_s":...,...}
//   {"ok":true,"op":"trace_dump","id":...,"count":N,"capacity":C,
//    "total_traced":T,"perfetto":"..."}
//   {"ok":true,"op":"shutdown","id":...}
//   {"ok":false,"id":...,"error":"..."}          (malformed line, failed op)
//   {"ok":false,"id":...,"error":"overloaded","overloaded":true}
//                                  (TCP admission control shed the request)
// A traced eval response also carries a "trace" object (see trace_object).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "serve/eval_service.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

namespace ramp::serve {

/// Longest request line any transport accepts, excluding the newline. A
/// line over the cap is answered with {"ok":false} and the overflow bytes
/// are discarded up to the next newline — the connection survives, and no
/// client can make the server buffer unbounded input.
inline constexpr std::size_t kMaxRequestLine = 1u << 20;

/// Capacity of the recent-trace ring behind the `trace_dump` op.
inline constexpr std::size_t kTraceRingCapacity = 512;

/// The per-request tracing switches both transports take (`--request-trace`,
/// `--slow-log`, `--slow-ms`).
struct TraceOptions {
  /// Trace every eval: phase clock pairs on, every request lands in the
  /// trace ring. Off (default), only requests with `"trace":true` pay for
  /// their own breakdown — the untraced path reads no phase clock.
  bool request_trace = false;
  /// NDJSON slow-request log: every traced request whose total latency
  /// reaches slow_ms is appended as one line (0 logs every traced request).
  /// "" disables; a non-empty path implies tracing. A path that cannot be
  /// opened throws when the Protocol is built.
  std::string slow_log_path;
  double slow_ms = 10.0;
};

/// What the `health` op reports — the transport owning the connections
/// knows it.
struct HealthInfo {
  std::string mode;  ///< "stdio" or "tcp"
  double uptime_s = 0.0;
  std::uint64_t accepted_connections = 0;
  std::uint64_t active_connections = 0;
  bool draining = false;
};

/// The admission-control shed response: {"ok":false,...,"overloaded":true}.
/// Clients tell it from hard errors by the `overloaded` flag and may retry
/// after backoff. The TCP transport also sends it to a connection it refuses.
Json overloaded_response(const std::string& id = {});

/// One request trace as the `"trace"` object attached to a traced response:
/// {"trace_id","op","label"?,"start_ns","total_ns","cached","coalesced",
///  "phases":{all eight},"stages":{non-zero only}?}. The in-response flush
/// phase reads 0 — a response cannot contain its own write time; the full
/// record (with flush) goes to the ring and the slow log.
Json trace_object(const obs::RequestTrace& rec);

/// One slow-log line (no trailing newline): trace_object(rec) stamped with
/// `ts_ms` (wall-clock Unix milliseconds, first) and `ok` (last).
std::string slow_log_line(const obs::RequestTrace& rec, double wall_unix_ms);

/// Request-level counters. `accepted` counts requests that got a response
/// slot; `responses + dropped == accepted` once every session has ended.
struct RequestCounters {
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;          ///< of accepted: answered overloaded
  std::uint64_t parse_errors = 0;  ///< of accepted: malformed or over-long
  std::uint64_t responses = 0;     ///< written out (handed to the transport)
  std::uint64_t dropped = 0;       ///< lost with a client that went away
};

/// The process-wide half of the protocol: the service, the transport kind,
/// the global work cap, the trace ring and slow log, and the request
/// metrics (`ramp_net_requests`, RED per op class, phase totals) booked on
/// the service registry. Single-threaded: every Session of one Protocol
/// runs on the same thread.
class Protocol {
 public:
  enum class Transport { kStdio, kTcp };

  /// `max_queued_work` caps accepted-but-unanswered eval/timeline/fleet
  /// requests across all sessions (kTcp sheds beyond it; kStdio never
  /// sheds, so the cap does not apply).
  Protocol(EvalService& service, Transport transport,
           const TraceOptions& trace,
           std::size_t max_queued_work =
               std::numeric_limits<std::size_t>::max());

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// kTcp: the transport's connection state for `health`.
  std::function<HealthInfo()> health;
  /// kTcp: runs one expensive op (`timeline`, `fleet`) off the caller's
  /// thread and wakes the caller when it has run; the job publishes its
  /// own response.
  std::function<void(std::function<void()> job)> run_aux;

  const RequestCounters& counters() const { return counters_; }

 private:
  friend class Session;

  bool single_client() const { return transport_ == Transport::kStdio; }
  Json control(const EvalRequest& req);
  void finalize_trace(obs::RequestTrace rec);

  EvalService& service_;
  const Transport transport_;
  const std::size_t max_queued_work_;
  /// Master tracing switch: --request-trace or a slow log turns the
  /// per-request phase clocks on. Off, no per-phase clock is ever read.
  const bool tracing_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::size_t queued_work_ = 0;
  std::uint64_t trace_seq_ = 0;
  RequestCounters counters_;

  obs::TraceRing ring_{kTraceRingCapacity};
  std::ofstream slow_log_;
  std::uint64_t slow_ns_ = 0;  ///< slow-log threshold (0: log every trace)

  /// RED metrics bucket requests by cost class, not individual op — the
  /// registry has no labels, and eval vs cheap-control vs expensive-aux is
  /// the distinction capacity planning needs.
  enum OpClass : int { kOpEval = 0, kOpControl, kOpAux, kNumOpClasses };
  obs::Counter m_requests_, m_shed_, m_parse_errors_, m_responses_,
      m_dropped_;
  obs::Counter m_op_requests_[kNumOpClasses];
  obs::Counter m_op_errors_[kNumOpClasses];
  obs::Histogram m_op_duration_[kNumOpClasses];
  /// Per-phase nanosecond totals, booked as traced requests complete.
  obs::Counter m_phase_ns_[obs::kNumPhases];
};

/// One client's conversation: input framing, the in-order response slots,
/// and the serialized responses waiting to be written. With kTcp no call
/// blocks; with kStdio, feed() may wait out service backpressure, resolve()
/// runs barrier ops inline, and wait() blocks on the head of the line.
class Session {
 public:
  explicit Session(Protocol& protocol);
  /// Responses still queued count as dropped: their client is gone.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Frames `n` input bytes into request lines and handles each complete
  /// line, in order. Lines after a shutdown op are ignored; with kStdio,
  /// lines behind a barrier wait here until it is answered.
  void feed(const char* data, std::size_t n);

  /// No more input will come. A final unterminated line still counts (a
  /// dying stdio client may not have flushed its newline).
  void end_input();

  /// Moves every deliverable head-of-line response into out(), in request
  /// order, and resumes input held behind a barrier once it is answered.
  void resolve();

  /// Serialized responses, newline-terminated, not yet written.
  const std::string& out() const { return out_; }

  /// The transport wrote the first `n` bytes of out(). Traced responses
  /// whose last byte is now written complete their flush phase.
  void wrote(std::size_t n);

  /// Blocks until the head-of-line response can resolve. For the stdio
  /// transport only: an event loop must never call it.
  void wait() const;

  /// More input is welcome: no shutdown, no barrier held, input not ended.
  bool reading() const { return !shutdown_ && !held_ && !input_ended_; }
  bool shutdown_requested() const { return shutdown_; }
  /// Every accepted request is answered and written.
  bool idle() const { return slots_.empty() && out_.empty(); }
  /// idle(), and no further line will be handled.
  bool finished() const {
    return idle() && (shutdown_ || (input_ended_ && inbuf_.empty()));
  }
  std::size_t pipeline_depth() const { return slots_.size(); }

 private:
  using SteadyTp = std::chrono::steady_clock::time_point;

  struct AuxResult;

  struct Slot {
    enum class Kind { kReady, kEval, kControl, kAux };
    Kind kind = Kind::kReady;
    std::string line;                 ///< kReady: the serialized response
    EvalService::Ticket ticket;       ///< kEval
    std::string id;                   ///< kEval
    EvalRequest req;                  ///< kControl: computed at head of line
    std::shared_ptr<AuxResult> aux;   ///< kAux
    bool counts_as_work = false;      ///< held a queued-work unit
    int op_class = Protocol::kOpControl;  ///< RED bucket
    SteadyTp accepted{};              ///< line handling began (RED duration)
    /// Non-null when this request is traced: phases filled so far. Heap,
    /// not inline — the common untraced slot stays small.
    std::unique_ptr<obs::RequestTrace> trace;
    bool want_response_trace = false;  ///< request carried "trace":true
  };

  /// A traced response waiting for its bytes to be written: complete once
  /// the written-byte counter passes `target`.
  struct PendingFlush {
    std::uint64_t target = 0;
    SteadyTp resolved{};  ///< when the response entered out()
    obs::RequestTrace rec;
  };

  void process_input();
  void handle_line(std::size_t start, std::size_t len);
  void admit_eval(EvalRequest req, SteadyTp t0, SteadyTp t1,
                  std::uint64_t read_ns);
  void push(Slot s);
  void push_ready(std::string line, SteadyTp accepted, int op_class);
  void push_error(const std::string& message);
  void push_shed(const std::string& id, SteadyTp accepted, int op_class);
  std::string traced_eval_response(Slot& s);

  Protocol& p_;
  std::string inbuf_;
  bool discarding_ = false;   ///< over-long line: drop to the next newline
  bool held_ = false;         ///< kStdio: a barrier is queued
  bool shutdown_ = false;
  bool input_ended_ = false;
  bool has_partial_ = false;  ///< tracing: inbuf holds an unread line head
  SteadyTp partial_since_{};  ///< when that head arrived (read phase)
  std::deque<Slot> slots_;
  std::string out_;
  std::uint64_t out_enqueued_ = 0;  ///< bytes ever appended to out_
  std::uint64_t out_written_ = 0;   ///< bytes ever reported written
  std::deque<PendingFlush> pending_flush_;
};

}  // namespace ramp::serve
