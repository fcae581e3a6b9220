#include "serve/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <istream>
#include <ostream>
#include <string>

#include "serve/eval_service.hpp"
#include "serve/session.hpp"

namespace ramp::serve {

namespace {

/// Writes what the session has ready, blocking on evals in flight, until it
/// takes input again — at once when no barrier is held — or, with input
/// ended or a shutdown accepted, until everything is written. False once
/// `write` reports the client gone.
template <typename Write>
bool settle(Session& session, Write&& write) {
  while (true) {
    session.resolve();
    if (!session.out().empty()) {
      if (!write(session.out())) return false;
      session.wrote(session.out().size());
    }
    if (session.reading() || session.finished()) return true;
    session.wait();
  }
}

/// Writes all of `bytes`; false on EPIPE & friends (the client is gone).
bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int serve_loop(std::istream& in, std::ostream& out, EvalService& service) {
  Protocol protocol(service, Protocol::Transport::kStdio, {});
  Session session(protocol);
  const auto write = [&](const std::string& bytes) {
    out << bytes;
    out.flush();
    return out.good();
  };
  char chunk[4096];
  while (session.reading()) {
    in.read(chunk, sizeof chunk);
    if (in.gcount() == 0) break;  // EOF
    session.feed(chunk, static_cast<std::size_t>(in.gcount()));
    if (!settle(session, write)) return 0;
  }
  session.end_input();
  settle(session, write);
  return 0;
}

// ---- signal plumbing -------------------------------------------------------

namespace {
volatile std::sig_atomic_t g_drain_flag = 0;
void drain_handler(int) { request_drain(&g_drain_flag); }
}  // namespace

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

volatile std::sig_atomic_t* install_drain_handlers() {
  struct sigaction sa{};
  sa.sa_handler = drain_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls wake with EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  return &g_drain_flag;
}

// ---- fd-based stdio loop ---------------------------------------------------

int serve_stdio(EvalService& service, const StdioOptions& opts) {
  Protocol protocol(service, Protocol::Transport::kStdio, opts);
  Session session(protocol);
  const auto write = [&](const std::string& bytes) {
    return write_all(opts.out_fd, bytes);
  };
  while (session.reading() && !drain_requested(opts.drain_flag)) {
    struct pollfd pfd{};
    pfd.fd = opts.in_fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (pr < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the drain flag
      break;
    }
    if (pr > 0) {
      char chunk[65536];
      const ssize_t n = ::read(opts.in_fd, chunk, sizeof chunk);
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) break;  // EOF, or unreadable stdin: treat as EOF
      session.feed(chunk, static_cast<std::size_t>(n));
    }
    // New input or a poll timeout: write whatever completed — an
    // interactive client is waiting on it. EPIPE: the client is gone, a
    // clean shutdown.
    if (!settle(session, write)) return 0;
  }
  // EOF, shutdown or drain signal: answer everything accepted, in order.
  // Nothing accepted is lost.
  session.end_input();
  settle(session, write);
  return 0;
}

}  // namespace ramp::serve
