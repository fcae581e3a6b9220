// The `ramp serve --listen` TCP transport: one epoll thread, many clients.
// It only moves bytes; the NDJSON protocol — framing, parsing, dispatch, the
// in-order response slots, request tracing — is the shared core in
// serve/session.hpp, the same one the stdio transport drives. This file owns
// what is TCP's alone: sockets, epoll, accept, the write loop, connection
// and loop-health metrics, graceful drain, and the aux thread.
//
// Architecture. A single event-loop thread owns every socket and one
// serve::Session per connection. Eval requests go through
// EvalService::try_submit, so identical in-flight requests coalesce *across
// clients* (per-key single-flight is fleet-wide); workers finishing an
// evaluation wake the loop via eventfd to pump ready heads. Expensive ops
// (`timeline`, `fleet`) run on one aux thread so they never stall the loop;
// cheap control ops are computed when their slot reaches the head of its
// connection's line, from live counters.
//
// Fairness. Level-triggered epoll with one bounded read per readiness
// event round-robins ingest across hot clients, and response pumping
// rotates its starting connection — no client can starve another by
// shouting louder.
//
// Admission control & load shedding. Beyond max_connections, new clients
// get one `overloaded` line and a close. Beyond max_queued_requests (global
// accepted-but-unanswered work), or when the EvalService's own pending
// bound is full, work requests are answered `{"ok":false,"error":
// "overloaded","overloaded":true}` instead of queueing without bound.
// Per connection, a deep pipeline (128 requests) or a large unwritten
// output (4 MiB) pauses reads (TCP backpressure) before shedding is ever
// needed.
//
// Graceful drain. SIGTERM (via drain_flag) or any client's `shutdown` op:
// stop accepting, stop reading, answer every accepted request, flush,
// close, return 0. counters().responses_sent + dropped_responses (clients
// that died) always equals accepted_requests — nothing accepted is lost.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>

#include "net/socket.hpp"
#include "serve/session.hpp"

namespace ramp::net {

/// Tracing switches (serve::TraceOptions: `--request-trace`, `--slow-log`,
/// `--slow-ms`) plus the TCP transport's own settings.
struct ServerOptions : serve::TraceOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: bind an ephemeral port (read via port())
  std::size_t max_connections = 256;
  /// Global cap on accepted-but-unanswered *work* requests (eval, timeline,
  /// fleet) across all connections; beyond it new work is shed.
  std::size_t max_queued_requests = 1024;
  /// Graceful-drain request flag (see serve::install_drain_handlers).
  volatile std::sig_atomic_t* drain_flag = nullptr;
};

/// Monotonic transport counters; also exported as ramp_net_* metrics on the
/// service registry, so the `metrics` op reports transport and service
/// health together.
struct ServerCounters {
  std::uint64_t accepted_connections = 0;
  std::uint64_t rejected_connections = 0;  ///< over max_connections
  std::uint64_t accepted_requests = 0;     ///< got a response slot
  std::uint64_t shed_requests = 0;         ///< of accepted: answered overloaded
  std::uint64_t parse_errors = 0;          ///< of accepted: malformed lines
  std::uint64_t responses_sent = 0;        ///< slots delivered to the socket
  std::uint64_t dropped_responses = 0;     ///< slots lost to dead clients
};

class Server {
 public:
  /// Binds (or adopts) the listener eagerly, so port() is valid — and bind
  /// errors throw — before run(). One Server per EvalService at a time:
  /// run() installs itself as the service's completion hook.
  Server(serve::EvalService& service, ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const;

  /// Serves until a `shutdown` op or the drain flag, then drains
  /// gracefully. Returns the process exit code (0 on clean drain).
  int run();

  /// Valid after run() returns (the loop thread owns them while running).
  const ServerCounters& counters() const { return counters_; }

 private:
  struct Impl;
  Impl* impl_;  ///< owned; raw to keep the header free of internals
  ServerCounters counters_;
};

}  // namespace ramp::net
