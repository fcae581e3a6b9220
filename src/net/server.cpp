#include "net/server.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/server.hpp"

namespace ramp::net {

namespace {

using SteadyTp = std::chrono::steady_clock::time_point;

std::uint64_t delta_ns(SteadyTp a, SteadyTp b) {
  return b <= a ? std::uint64_t{0}
                : static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(b - a).count());
}

/// Per-connection pipeline depth that pauses reading (backpressure).
constexpr std::size_t kMaxPipelinePerConn = 128;
/// Per-connection unwritten output that pauses reading.
constexpr std::size_t kMaxOutbufBytes = 4u << 20;

}  // namespace

struct Server::Impl {
  struct Conn {
    explicit Conn(serve::Protocol& protocol) : session(protocol) {}
    OwnedFd fd;
    serve::Session session;
    std::uint32_t mask = 0;  ///< epoll mask currently armed
    bool peer_eof = false;
    bool dead = false;       ///< error path: reap without delivering
  };

  serve::EvalService& service;
  ServerOptions opts;
  /// The protocol core shared by every connection's session; declared
  /// before `conns` so sessions end (booking dropped slots) before it does.
  serve::Protocol protocol;
  EventLoop loop;
  OwnedFd listener;
  std::map<int, std::unique_ptr<Conn>> conns;
  int rr_next_fd = -1;  ///< response-pump round-robin cursor
  bool draining = false;
  ServerCounters counters;  ///< connection counters; requests: protocol
  SteadyTp started = std::chrono::steady_clock::now();

  std::thread aux_thread;
  std::mutex aux_mu;
  std::condition_variable aux_cv;
  std::deque<std::function<void()>> aux_jobs;
  bool aux_stop = false;

  obs::Counter m_conns_accepted, m_conns_rejected;
  obs::Gauge m_open_conns;
  // Event-loop health: dispatch (non-epoll-wait) time per iteration, stall
  // count, buffered output and deepest per-client pipeline.
  obs::Histogram m_loop_dispatch;
  obs::Counter m_loop_stalls;
  obs::Gauge m_outbuf_bytes;
  obs::Gauge m_pipeline_depth_max;

  Impl(serve::EvalService& svc, ServerOptions o)
      : service(svc),
        opts(std::move(o)),
        protocol(svc, serve::Protocol::Transport::kTcp, opts,
                 opts.max_queued_requests) {
    listener = listen_tcp(opts.host, opts.port);
    protocol.health = [this] {
      serve::HealthInfo info;
      info.mode = "tcp";
      info.uptime_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
      info.accepted_connections = counters.accepted_connections;
      info.active_connections = conns.size();
      info.draining = draining;
      return info;
    };
    protocol.run_aux = [this](std::function<void()> job) {
      {
        std::lock_guard<std::mutex> l(aux_mu);
        aux_jobs.push_back(std::move(job));
      }
      aux_cv.notify_one();
    };
    auto& reg = service.registry();
    m_conns_accepted = reg.counter("ramp_net_connections_accepted");
    m_conns_rejected = reg.counter("ramp_net_connections_rejected");
    m_open_conns = reg.gauge("ramp_net_open_connections");
    m_loop_dispatch = reg.histogram(
        "ramp_net_loop_dispatch_seconds",
        {1e-6, 1e-5, 1e-4, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5});
    m_loop_stalls = reg.counter("ramp_net_loop_stalls_total");
    m_outbuf_bytes = reg.gauge("ramp_net_outbuf_bytes");
    m_pipeline_depth_max = reg.gauge("ramp_net_pipeline_depth_max");
  }

  ~Impl() {
    if (aux_thread.joinable()) {
      {
        std::lock_guard<std::mutex> l(aux_mu);
        aux_stop = true;
      }
      aux_cv.notify_all();
      aux_thread.join();
    }
  }

  // ---- epoll mask management ----------------------------------------------

  std::uint32_t desired_mask(const Conn& c) const {
    std::uint32_t m = 0;
    const bool paused = c.session.pipeline_depth() >= kMaxPipelinePerConn ||
                        c.session.out().size() >= kMaxOutbufBytes;
    if (!c.peer_eof && c.session.reading() && !draining && !paused) {
      m |= EPOLLIN;
    }
    if (!c.session.out().empty()) m |= EPOLLOUT;
    return m;
  }

  void update_mask(Conn& c) {
    const std::uint32_t want = desired_mask(c);
    if (want == c.mask) return;
    loop.modify(c.fd.get(), want);
    c.mask = want;
  }

  // ---- reading and writing -------------------------------------------------

  /// `to_eof`: the peer hung up (EPOLLHUP) — drain everything it sent
  /// before its close, so a fire-and-disconnect client still gets every
  /// complete request accepted. Otherwise one bounded read per readiness
  /// event: level-triggered epoll re-arms if more is buffered, so hot
  /// clients round-robin with everyone else.
  void on_readable(Conn& c, bool to_eof) {
    while (true) {
      char buf[65536];
      const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
      if (n == 0) {
        c.peer_eof = true;  // half-close: still answer what was accepted
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) kill_conn(c);
        break;
      }
      c.session.feed(buf, static_cast<std::size_t>(n));
      if (!to_eof) break;
    }
    if (c.session.shutdown_requested()) begin_drain();
  }

  /// Writes as much of the session's output as the socket takes.
  void flush(Conn& c) {
    const std::string& out = c.session.out();
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(c.fd.get(), out.data() + off, out.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      kill_conn(c);  // EPIPE & friends: the client is gone
      break;
    }
    c.session.wrote(off);
  }

  void pump(Conn& c) {
    if (c.dead) return;
    c.session.resolve();
    flush(c);
    if (c.dead) return;
    if (c.session.idle() &&
        (c.peer_eof || c.session.shutdown_requested() || draining)) {
      c.dead = true;  // conversation over
      return;
    }
    update_mask(c);
  }

  /// Pumps every connection, rotating the start so delivery is fair.
  void pump_all() {
    if (conns.empty()) return;
    auto it = conns.lower_bound(rr_next_fd);
    if (it == conns.end()) it = conns.begin();
    const int first = it->first;
    do {
      pump(*it->second);
      ++it;
      if (it == conns.end()) it = conns.begin();
    } while (it->first != first);
    rr_next_fd = first + 1;
  }

  /// Closes dead connections; their sessions book undelivered responses as
  /// dropped.
  void reap_dead() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second->dead) {
        ++it;
        continue;
      }
      loop.remove(it->second->fd.get());
      it = conns.erase(it);
    }
    m_open_conns.set(static_cast<double>(conns.size()));
  }

  void kill_conn(Conn& c) { c.dead = true; }

  /// Write-buffer and pipeline-depth health gauges, refreshed once per loop
  /// iteration (O(connections), bounded by max_connections).
  void update_loop_gauges() {
    std::uint64_t outbuf_total = 0;
    std::size_t depth_max = 0;
    for (const auto& [fd, c] : conns) {
      outbuf_total += c->session.out().size();
      depth_max = std::max(depth_max, c->session.pipeline_depth());
    }
    m_outbuf_bytes.set(static_cast<double>(outbuf_total));
    m_pipeline_depth_max.set(static_cast<double>(depth_max));
  }

  // ---- accept & drain ------------------------------------------------------

  void on_accept() {
    while (true) {
      OwnedFd fd = accept_client(listener.get());
      if (!fd.valid()) return;
      if (draining) continue;  // closing fd refuses the late arrival
      if (conns.size() >= opts.max_connections) {
        // One explicit overloaded line, then close: the client learns why.
        const std::string line = serve::overloaded_response().dump() + "\n";
        [[maybe_unused]] ssize_t r =
            ::write(fd.get(), line.data(), line.size());
        counters.rejected_connections++;
        m_conns_rejected.inc();
        continue;
      }
      auto conn = std::make_unique<Conn>(protocol);
      conn->fd = std::move(fd);
      const int cfd = conn->fd.get();
      Conn* raw = conn.get();
      conn->mask = EPOLLIN;
      loop.add(cfd, EPOLLIN, [this, raw](std::uint32_t events) {
        if (events & EPOLLERR) {
          kill_conn(*raw);
        } else if (events & (EPOLLIN | EPOLLHUP)) {
          on_readable(*raw, /*to_eof=*/(events & EPOLLHUP) != 0);
        }
        pump(*raw);
      });
      conns.emplace(cfd, std::move(conn));
      counters.accepted_connections++;
      m_conns_accepted.inc();
      m_open_conns.set(static_cast<double>(conns.size()));
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    if (loop.watched(listener.get())) loop.remove(listener.get());
    listener.reset();  // new connects are refused at the kernel
    // Connections stop reading (mask update on next pump); complete lines
    // already read were handled at read time — only a partial line can be
    // buffered, and an unterminated request was never accepted.
  }

  void aux_main() {
    while (true) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> l(aux_mu);
        aux_cv.wait(l, [&] { return aux_stop || !aux_jobs.empty(); });
        if (aux_jobs.empty()) return;  // stop requested and queue drained
        job = std::move(aux_jobs.front());
        aux_jobs.pop_front();
      }
      job();  // publishes the response into its slot's result cell
      loop.wake();
    }
  }

  /// Stall threshold: one dispatch pass keeping the loop away from
  /// epoll_wait for this long means every idle client waited that long.
  static constexpr double kStallSeconds = 0.1;

  int run() {
    service.set_completion_hook([this] { loop.wake(); });
    aux_thread = std::thread([this] { aux_main(); });
    loop.add(listener.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });

    // Loop health costs two clock reads per *iteration* (not per request):
    // iteration wall time minus the time blocked in epoll_wait is dispatch
    // (busy) time — reads, parses, resolves, flushes of that pass.
    SteadyTp iter_start = std::chrono::steady_clock::now();
    while (true) {
      if (serve::drain_requested(opts.drain_flag)) begin_drain();
      pump_all();
      reap_dead();
      update_loop_gauges();
      if (draining && conns.empty()) break;
      loop.run_once(/*timeout_ms=*/100);
      const SteadyTp iter_end = std::chrono::steady_clock::now();
      const std::uint64_t wall = delta_ns(iter_start, iter_end);
      const std::uint64_t waited = loop.last_wait_ns();
      const double busy_s =
          static_cast<double>(wall > waited ? wall - waited : 0) * 1e-9;
      m_loop_dispatch.observe(busy_s);
      if (busy_s > kStallSeconds) m_loop_stalls.inc();
      iter_start = iter_end;
    }

    service.set_completion_hook(nullptr);
    {
      std::lock_guard<std::mutex> l(aux_mu);
      aux_stop = true;
    }
    aux_cv.notify_all();
    aux_thread.join();
    return 0;
  }
};

Server::Server(serve::EvalService& service, ServerOptions opts)
    : impl_(new Impl(service, std::move(opts))) {}

Server::~Server() { delete impl_; }

std::uint16_t Server::port() const { return local_port(impl_->listener.get()); }

int Server::run() {
  const int rc = impl_->run();
  counters_ = impl_->counters;
  const serve::RequestCounters& r = impl_->protocol.counters();
  counters_.accepted_requests = r.accepted;
  counters_.shed_requests = r.shed;
  counters_.parse_errors = r.parse_errors;
  counters_.responses_sent = r.responses;
  counters_.dropped_responses = r.dropped;
  return rc;
}

}  // namespace ramp::net
