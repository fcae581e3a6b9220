// Shared dispatch core of every `ramp serve` front-end.
//
// The stdio loop (server.hpp) and the TCP event loop (net/server.hpp) speak
// the same NDJSON protocol, and this header is the single place its
// semantics live. The pure response builders turn one parsed request into
// one wire response — no I/O, no framing, no threading assumptions — so the
// two front-ends cannot drift apart. `Session` layers the per-client state
// both need on top: the pipelined, strictly in-order response queue.
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
//   {"ok":true,"op":"trace_dump","id":...,"count":N,"perfetto":"..."}
//   {"ok":true,"op":"shutdown","id":...}
//   {"ok":false,"id":...,"error":"..."}          (malformed line, failed op)
//   {"ok":false,"id":...,"error":"overloaded","overloaded":true}
//                                  (TCP admission control shed the request)
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <string>

#include "obs/reqtrace.hpp"
#include "serve/eval_service.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"

namespace ramp::serve {

/// Longest request line any front-end accepts, excluding the newline. A
/// line over the cap is answered with {"ok":false} and the overflow bytes
/// are discarded up to the next newline — the connection survives, and no
/// client can make the server buffer unbounded input.
inline constexpr std::size_t kMaxRequestLine = 1u << 20;

/// The error message every transport uses for a line over kMaxRequestLine.
std::string oversize_line_message();

/// Re-attaches the client's `id` (captured as raw JSON) to a response, so
/// it round-trips with whatever type the client sent.
void set_id(Json& response, const std::string& id);

/// {"ok":false,"id":...,"error":message}
Json error_response(const std::string& message, const std::string& id = {});

/// The admission-control shed response: {"ok":false,...,"overloaded":true}.
/// Clients distinguish it from hard errors by the `overloaded` flag and may
/// retry after backoff.
Json overloaded_response(const std::string& id = {});

/// {"ok":true,"op":"shutdown","id":...}
Json shutdown_response(const EvalRequest& req);

/// The `stats` barrier. `quiesce` runs EvalService::drain() first so
/// queue_depth reflects delivered responses — right for the single-client
/// stdio loop, wrong for a multi-client server (other clients keep the
/// service busy; the TCP path snapshots live counters instead).
Json stats_response(EvalService& service, const EvalRequest& req,
                    bool quiesce);

/// The `metrics` op: service registry merged with the process-wide registry,
/// stage profile attached, rendered as Prometheus text.
Json metrics_response(EvalService& service, const EvalRequest& req,
                      bool quiesce);

/// The `metrics_reset` op: zeroes service counters, the global registry and
/// the stage profile. `quiesce` as in stats_response.
Json metrics_reset_response(EvalService& service, const EvalRequest& req,
                            bool quiesce);

/// What the `health` op reports — the front-end owning the transport fills
/// this in (the stdio loop and the TCP server know different things).
struct HealthInfo {
  std::string mode;  ///< "stdio" or "tcp"
  double uptime_s = 0.0;
  std::uint64_t accepted_connections = 0;
  std::uint64_t active_connections = 0;
  bool draining = false;
};

/// {"ok":true,"op":"health","id":...,"mode":...,"uptime_s":...,
///  "accepted_connections":...,"active_connections":...,"draining":bool,
///  "shards":1} — the load-balancer readiness probe. `shards` is always 1
/// (one serve process); it stays so existing probes keep parsing.
Json health_response(const EvalRequest& req, const HealthInfo& info);

/// One request trace as the `"trace"` object attached to a traced response:
/// {"trace_id","op","label"?,"start_ns","total_ns","cached","coalesced",
///  "phases":{all eight},"stages":{non-zero only}?}. The in-response flush
/// phase reads 0 — a response cannot contain its own write time; the full
/// record (with flush) goes to the ring and the slow log.
Json trace_object(const obs::RequestTrace& rec);

/// The `trace_dump` op: the ring's resident records rendered as Perfetto-
/// loadable Chrome-trace JSON (request lanes; see obs/reqtrace.hpp):
/// {"ok":true,"op":"trace_dump","id":...,"count":N,"capacity":C,
///  "total_traced":T,"perfetto":"<json document>"}.
Json trace_dump_response(const EvalRequest& req, const obs::TraceRing& ring);

/// The flight-recorder op — synchronous, cache-bypassing, expensive.
/// Front-ends must treat it as a barrier (stdio) or run it off the event
/// loop (TCP aux thread).
Json timeline_response(EvalService& service, const EvalRequest& req);

/// The `fleet` op: runs a bounded fleet::FleetScenario preset with the
/// request's overrides through the service's shared stage store, so the
/// scenario's physics cells and the eval path never duplicate work.
/// Bounded: chips <= 200k, horizon <= 100 years — a serve request must not
/// be able to wedge the process for hours. Synchronous and expensive like
/// timeline (same front-end rules).
Json fleet_response(EvalService& service, const EvalRequest& req);

/// Routes any non-eval, non-shutdown op to its builder above. Never throws:
/// op failures become {"ok":false} responses.
Json control_response(EvalService& service, const EvalRequest& req,
                      bool quiesce);

/// Renders a completed eval ticket (success or failure) as its response.
/// Blocks on the future if it is not ready yet.
Json eval_response(const EvalService::Ticket& ticket, const std::string& id);

/// One client's protocol state: parse, classify, pipeline, respond in
/// order. This is the *blocking* driver used by the stdio front-end and by
/// unit tests — eval submission may block on service backpressure, and
/// barrier ops run synchronously on the calling thread. The TCP event loop
/// uses the builders directly with EvalService::try_submit instead (it must
/// never block), but emits byte-identical responses.
class Session {
 public:
  /// Emits one complete response line (no trailing newline). Return false
  /// when the client is gone (EPIPE, closed socket): the session drops
  /// undelivered responses and reports itself finished.
  using Sink = std::function<bool(const std::string&)>;

  Session(EvalService& service, Sink sink);

  /// Feeds one request line (no newline). Emits zero or more responses —
  /// evals pipeline, barriers flush. Returns false once the session is over
  /// (shutdown op, or the sink reported the client gone); further lines are
  /// ignored.
  bool handle_line(const std::string& line);

  /// Answers a line the transport refused to buffer (over-long) with an
  /// in-order error response, exactly as handle_line would. Returns false
  /// once the session is over.
  bool reject_line(const std::string& message);

  /// Answers pending evals whose results are ready, in order, without
  /// blocking — the stdio loop calls this on poll timeouts so interactive
  /// clients get answers as they complete, not at the next input byte.
  /// Returns false if the sink died.
  bool pump();

  /// EOF/drain: answers every pending eval in order. Idempotent.
  /// Returns false if the sink died.
  bool finish();

  /// Switches on per-request tracing for every eval this session handles
  /// (the `--request-trace` flag): each request pays its phase clock pairs
  /// and lands in the trace ring whether or not it asked for `"trace"`.
  /// Off (the default), only requests with `"trace":true` are timed — and
  /// their read/parse phases report 0, because the decision to read the
  /// clock can only happen after parsing.
  void enable_request_trace() { trace_all_ = true; }

  /// The recent-request ring behind the `trace_dump` op.
  const obs::TraceRing& trace_ring() const { return ring_; }

  bool shutdown_requested() const { return shutdown_; }
  bool sink_dead() const { return sink_dead_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    EvalService::Ticket ticket;
    std::string id;
    bool traced = false;         ///< fill a RequestTrace when answering
    bool want_response = false;  ///< attach the trace object to the response
    std::string trace_id;
    std::string label;  ///< "app@node"
    std::chrono::steady_clock::time_point accepted{};
    std::uint64_t read_parse_ns = 0;
    std::uint64_t admission_ns = 0;
  };

  bool respond(const Json& response);
  bool drain_pending(bool all);
  Json answer_pending(const Pending& p);

  EvalService& service_;
  Sink sink_;
  std::deque<Pending> pending_;
  bool shutdown_ = false;
  bool sink_dead_ = false;

  bool trace_all_ = false;
  obs::TraceRing ring_{256};
  std::uint64_t trace_seq_ = 0;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace ramp::serve
