// The `ramp serve` stdio transport: newline-delimited JSON over a stream
// pair. It only moves bytes; the protocol — framing, parsing, dispatch, the
// in-order response queue, request tracing — is the shared core in
// session.hpp, the same one the TCP transport (net/server.hpp) drives.
//
// One request per input line, one response per line, in request order.
// Eval requests are *pipelined*: each is submitted to the EvalService
// immediately (so identical in-flight requests coalesce and distinct ones
// batch onto the pool), and responses are written as the head of the line
// completes. Every other op is a barrier: it is answered once every
// response before it is written, and no later line is read until it is —
// keeping the one-line-in/one-line-out pairing exact for scripted clients.
//
// Client-death hardening (serve_stdio): the CLI path must survive its
// client dying mid-stream — `ramp serve | head -1` is a clean shutdown, not
// a crash. SIGPIPE is ignored process-wide (install via ignore_sigpipe());
// a write failing with EPIPE drops the session and exits 0. SIGINT/SIGTERM
// request a *graceful drain*: stop reading, answer every accepted request,
// flush, exit 0 — nothing accepted is ever lost.
#pragma once

#include <csignal>
#include <iosfwd>

#include "serve/session.hpp"

namespace ramp::serve {

/// Runs the protocol core over a stream pair until `shutdown` or EOF on
/// `in`. Returns the process exit code (0 on clean shutdown/EOF). Never
/// throws for per-request problems — those become {"ok":false} responses.
/// This is the stream adapter unit tests use; the CLI uses serve_stdio below
/// so signals and client death behave.
int serve_loop(std::istream& in, std::ostream& out, EvalService& service);

/// Ignores SIGPIPE process-wide so a dead client surfaces as an EPIPE write
/// error (handled) instead of killing the process. Idempotent.
void ignore_sigpipe();

/// Installs SIGINT + SIGTERM handlers that set the returned flag (async-
/// signal-safely) and returns it. The stdio and TCP serve loops poll it to
/// start a graceful drain. Call once, before serving.
volatile std::sig_atomic_t* install_drain_handlers();

/// Atomic accessors for a drain flag. A plain sig_atomic_t store pairs fine
/// with a signal handler interrupting its own thread, but tests (and any
/// supervisor thread) set the flag from ANOTHER thread — these keep that
/// well-defined (and ThreadSanitizer-visible) without giving up
/// async-signal-safety: a relaxed atomic store on int is both.
inline void request_drain(volatile std::sig_atomic_t* flag) {
  if (flag != nullptr) __atomic_store_n(flag, 1, __ATOMIC_RELAXED);
}
inline bool drain_requested(const volatile std::sig_atomic_t* flag) {
  return flag != nullptr && __atomic_load_n(flag, __ATOMIC_RELAXED) != 0;
}

/// Tracing switches (TraceOptions) plus the stdio transport's own settings.
struct StdioOptions : TraceOptions {
  int in_fd = 0;
  int out_fd = 1;
  /// When non-null and set (by a signal handler), the loop stops reading,
  /// answers everything accepted, and returns 0.
  volatile std::sig_atomic_t* drain_flag = nullptr;
};

/// The hardened fd loop the CLI runs: poll()-driven reads (so a drain
/// signal is noticed within ~100 ms even with no input, and evals that
/// complete while input is idle are written then), EPIPE-as-clean-shutdown,
/// graceful drain on signal. Returns the process exit code.
int serve_stdio(EvalService& service, const StdioOptions& opts);

}  // namespace ramp::serve
