#include "net/server.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"
#include "scaling/technology.hpp"
#include "serve/eval_service.hpp"
#include "serve/session.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace ramp::net {

namespace {

/// Result cell an aux-thread job fills in; the slot holds the same pointer,
/// so a connection dying mid-computation just orphans the cell harmlessly.
struct AuxResult {
  std::atomic<bool> done{false};
  std::string line;
};

using SteadyTp = std::chrono::steady_clock::time_point;

std::uint64_t delta_ns(SteadyTp a, SteadyTp b) {
  return b <= a ? std::uint64_t{0}
                : static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(b - a).count());
}

/// RED metrics bucket requests by cost class, not individual op — the
/// registry has no labels, and eval vs cheap-control vs expensive-aux is
/// the distinction capacity planning needs.
enum OpClass : int { kOpEval = 0, kOpControl = 1, kOpAux = 2 };
constexpr int kNumOpClasses = 3;
constexpr const char* kOpClassName[kNumOpClasses] = {"eval", "control", "aux"};

}  // namespace

struct Server::Impl {
  // ---- wiring --------------------------------------------------------------

  struct Slot {
    enum class Kind { kReady, kEval, kControl, kAux };
    Kind kind = Kind::kReady;
    std::string line;  ///< kReady: the serialized response
    serve::EvalService::Ticket ticket;  ///< kEval
    std::string id;                     ///< kEval
    serve::EvalRequest req;   ///< kControl: computed at head of line
    std::shared_ptr<AuxResult> aux;     ///< kAux
    bool counts_as_work = false;        ///< held a max_queued_requests unit
    int op_class = kOpControl;          ///< RED metrics bucket
    SteadyTp accepted{};                ///< handle_line entry (RED duration)
    /// Non-null when this request is traced: phases filled so far. Heap,
    /// not inline — the common untraced slot stays small.
    std::unique_ptr<obs::RequestTrace> trace;
    bool want_response_trace = false;  ///< request carried "trace":true
  };

  /// A traced response waiting for its bytes to reach the socket: complete
  /// once the connection's flushed-byte counter passes `target`.
  struct PendingFlush {
    std::uint64_t target = 0;
    SteadyTp resolved{};  ///< when the response entered the out buffer
    obs::RequestTrace rec;
  };

  struct Conn {
    OwnedFd fd;
    std::string inbuf;
    std::string outbuf;
    std::deque<Slot> slots;
    std::uint32_t mask = 0;      ///< epoll mask currently armed
    bool discarding = false;     ///< over-long line: drop to next newline
    bool peer_eof = false;
    bool saw_shutdown = false;   ///< ignore lines after a shutdown op
    bool dead = false;           ///< error path: reap without delivering
    // Tracing state (touched only when the server-wide switch is on).
    bool has_partial = false;    ///< inbuf holds the head of an unread line
    SteadyTp partial_since{};    ///< when that head arrived (read phase)
    std::uint64_t out_enqueued = 0;  ///< bytes ever appended to outbuf
    std::uint64_t out_flushed = 0;   ///< bytes ever written to the socket
    std::deque<PendingFlush> pending_flush;
  };

  struct AuxJob {
    serve::EvalRequest req;
    std::shared_ptr<AuxResult> result;
  };

  serve::EvalService& service;
  ServerOptions opts;
  /// Master tracing switch: the request-trace flag or a slow log turns the
  /// per-request phase clocks on. Off, no per-phase clock is ever read —
  /// the zero-overhead-when-off contract the saturation gate holds.
  const bool tracing;
  EventLoop loop;
  OwnedFd listener;
  std::map<int, std::unique_ptr<Conn>> conns;
  int rr_next_fd = -1;  ///< response-pump round-robin cursor
  bool draining = false;
  std::size_t queued_work = 0;  ///< eval+aux slots outstanding (global cap)
  ServerCounters counters;
  SteadyTp started = std::chrono::steady_clock::now();

  obs::TraceRing ring;
  std::ofstream slow_log;
  std::uint64_t slow_ns = 0;  ///< slow-log threshold (0: log every trace)
  std::uint64_t trace_seq = 0;

  std::thread aux_thread;
  std::mutex aux_mu;
  std::condition_variable aux_cv;
  std::deque<AuxJob> aux_jobs;
  bool aux_stop = false;

  obs::Counter m_conns_accepted, m_conns_rejected, m_requests, m_shed,
      m_parse_errors, m_responses, m_dropped;
  obs::Gauge m_open_conns;
  // RED per op class: rate, errors, duration (accept → response resolved).
  obs::Counter m_op_requests[kNumOpClasses];
  obs::Counter m_op_errors[kNumOpClasses];
  obs::Histogram m_op_duration[kNumOpClasses];
  // Per-phase nanosecond totals, booked as traced requests complete — what
  // bench_serve.py reads back to attribute the knee.
  obs::Counter m_phase_ns[obs::kNumPhases];
  // Event-loop health: dispatch (non-epoll-wait) time per iteration, stall
  // count, buffered output and deepest per-client pipeline.
  obs::Histogram m_loop_dispatch;
  obs::Counter m_loop_stalls;
  obs::Gauge m_outbuf_bytes;
  obs::Gauge m_pipeline_depth_max;

  Impl(serve::EvalService& svc, ServerOptions o)
      : service(svc),
        opts(std::move(o)),
        tracing(opts.request_trace || !opts.slow_log_path.empty()),
        ring(opts.trace_ring) {
    listener = listen_tcp(opts.host, opts.port);
    if (!opts.slow_log_path.empty()) {
      slow_log.open(opts.slow_log_path, std::ios::app);
      slow_ns = static_cast<std::uint64_t>(opts.slow_ms * 1e6);
    }
    auto& reg = service.registry();
    m_conns_accepted = reg.counter("ramp_net_connections_accepted");
    m_conns_rejected = reg.counter("ramp_net_connections_rejected");
    m_requests = reg.counter("ramp_net_requests");
    m_shed = reg.counter("ramp_net_requests_shed");
    m_parse_errors = reg.counter("ramp_net_parse_errors");
    m_responses = reg.counter("ramp_net_responses");
    m_dropped = reg.counter("ramp_net_responses_dropped");
    m_open_conns = reg.gauge("ramp_net_open_connections");
    const std::vector<double> latency_bounds = {
        0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
        0.025,  0.05,    0.1,    0.25,  0.5,    1.0,   2.5};
    for (int k = 0; k < kNumOpClasses; ++k) {
      const std::string suffix = kOpClassName[static_cast<std::size_t>(k)];
      m_op_requests[k] =
          reg.counter("ramp_net_op_requests_total_" + suffix);
      m_op_errors[k] = reg.counter("ramp_net_op_errors_total_" + suffix);
      m_op_duration[k] = reg.histogram(
          "ramp_net_op_duration_seconds_" + suffix, latency_bounds);
    }
    for (int p = 0; p < obs::kNumPhases; ++p) {
      m_phase_ns[p] = reg.counter(
          "ramp_net_phase_ns_total_" +
          std::string(obs::phase_name(static_cast<obs::Phase>(p))));
    }
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
    const bool paused = c.slots.size() >= opts.max_pipeline_per_conn ||
                        c.outbuf.size() >= opts.max_outbuf_bytes;
    if (!c.peer_eof && !c.saw_shutdown && !draining && !paused) m |= EPOLLIN;
    if (!c.outbuf.empty()) m |= EPOLLOUT;
    return m;
  }

  void update_mask(Conn& c) {
    const std::uint32_t want = desired_mask(c);
    if (want == c.mask) return;
    loop.modify(c.fd.get(), want);
    c.mask = want;
  }

  // ---- request intake ------------------------------------------------------

  void push_ready(Conn& c, std::string line) {
    Slot s;
    s.kind = Slot::Kind::kReady;
    s.line = std::move(line);
    c.slots.push_back(std::move(s));
    counters.accepted_requests++;
    m_requests.inc();
  }

  void push_shed(Conn& c, const std::string& id) {
    push_ready(c, serve::overloaded_response(id).dump());
    counters.shed_requests++;
    m_shed.inc();
  }

  void handle_line(Conn& c, const std::string& line) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return;
    // One clock read per request, always: the RED duration base. With the
    // trace switch off this is the only timestamp the request ever takes.
    const SteadyTp t0 = std::chrono::steady_clock::now();
    std::uint64_t read_ns = 0;
    if (tracing && c.has_partial) {
      // This line's head arrived in an earlier read event; the gap is the
      // request's wire-read phase. Only the buffered head line qualifies.
      read_ns = delta_ns(c.partial_since, t0);
      c.has_partial = false;
    }
    if (line.size() > serve::kMaxRequestLine) {
      push_ready(c, serve::error_response(serve::oversize_line_message())
                        .dump());
      counters.parse_errors++;
      m_parse_errors.inc();
      return;
    }

    serve::EvalRequest req;
    try {
      req = serve::parse_request(line);
    } catch (const std::exception& e) {
      push_ready(c, serve::error_response(e.what()).dump());
      counters.parse_errors++;
      m_parse_errors.inc();
      return;
    }
    const SteadyTp t1 = (tracing || req.trace)
                            ? std::chrono::steady_clock::now()
                            : SteadyTp{};

    switch (req.op) {
      case serve::Op::kShutdown:
        push_ready(c, serve::shutdown_response(req).dump());
        c.slots.back().accepted = t0;
        c.saw_shutdown = true;
        begin_drain();
        return;
      case serve::Op::kHealth: {
        serve::HealthInfo info;
        info.mode = "tcp";
        info.uptime_s = std::chrono::duration<double>(t0 - started).count();
        info.accepted_connections = counters.accepted_connections;
        info.active_connections = conns.size();
        info.draining = draining;
        push_ready(c, serve::health_response(req, info).dump());
        c.slots.back().accepted = t0;
        return;
      }
      case serve::Op::kTraceDump:
        // The ring is loop-owned, so the dump is a plain read: answered
        // immediately with whatever completed before this request.
        push_ready(c, serve::trace_dump_response(req, ring).dump());
        c.slots.back().accepted = t0;
        return;
      case serve::Op::kStats:
      case serve::Op::kMetrics:
      case serve::Op::kMetricsReset: {
        // Cheap control ops: computed when the slot reaches the head of
        // this connection's line, so they sit *after* the evals pipelined
        // before them — same per-client ordering as the stdio barrier.
        Slot s;
        s.kind = Slot::Kind::kControl;
        s.req = std::move(req);
        s.accepted = t0;
        c.slots.push_back(std::move(s));
        counters.accepted_requests++;
        m_requests.inc();
        return;
      }
      case serve::Op::kEval: {
        if (queued_work >= opts.max_queued_requests) {
          push_shed(c, req.id);
          c.slots.back().accepted = t0;
          c.slots.back().op_class = kOpEval;
          return;
        }
        serve::EvalService::Ticket t;
        bool scheduled = false;
        try {
          scheduled = service.try_submit(req, &t);
        } catch (const std::exception& e) {
          push_ready(c, serve::error_response(e.what(), req.id).dump());
          c.slots.back().accepted = t0;
          return;
        }
        if (!scheduled) {  // service backpressure: shed, never block the loop
          push_shed(c, req.id);
          c.slots.back().accepted = t0;
          c.slots.back().op_class = kOpEval;
          return;
        }
        Slot s;
        s.kind = Slot::Kind::kEval;
        s.ticket = std::move(t);
        s.id = req.id;
        s.counts_as_work = true;
        s.op_class = kOpEval;
        s.accepted = t0;
        if (tracing || req.trace) {
          const SteadyTp t2 = std::chrono::steady_clock::now();
          auto rec = std::make_unique<obs::RequestTrace>();
          if (req.trace_id.empty()) {
            char buf[24];
            std::snprintf(buf, sizeof buf, "s%llx",
                          static_cast<unsigned long long>(++trace_seq));
            rec->trace_id = buf;
          } else {
            rec->trace_id = req.trace_id;
          }
          rec->op = "eval";
          rec->label =
              req.app + "@" + std::string(scaling::tech_token(req.node));
          rec->start_ns = ring.to_epoch_ns(t0) >= read_ns
                              ? ring.to_epoch_ns(t0) - read_ns
                              : 0;
          auto& ph = rec->phase_ns;
          ph[static_cast<std::size_t>(obs::Phase::kRead)] = read_ns;
          // A "trace":true request under a cold server switch starts its
          // clock after parsing — its parse phase reads 0 by construction.
          ph[static_cast<std::size_t>(obs::Phase::kParse)] =
              tracing ? delta_ns(t0, t1) : 0;
          ph[static_cast<std::size_t>(obs::Phase::kAdmission)] =
              delta_ns(t1, t2);
          rec->cached = s.ticket.source == serve::EvalService::Source::kCache;
          rec->coalesced =
              s.ticket.source == serve::EvalService::Source::kCoalesced;
          s.trace = std::move(rec);
          s.want_response_trace = req.trace;
        }
        c.slots.push_back(std::move(s));
        queued_work++;
        counters.accepted_requests++;
        m_requests.inc();
        return;
      }
      case serve::Op::kTimeline:
      case serve::Op::kFleet: {
        if (queued_work >= opts.max_queued_requests) {
          push_shed(c, req.id);
          c.slots.back().accepted = t0;
          c.slots.back().op_class = kOpAux;
          return;
        }
        Slot s;
        s.kind = Slot::Kind::kAux;
        s.aux = std::make_shared<AuxResult>();
        s.counts_as_work = true;
        s.op_class = kOpAux;
        s.accepted = t0;
        {
          std::lock_guard<std::mutex> l(aux_mu);
          aux_jobs.push_back({std::move(req), s.aux});
        }
        aux_cv.notify_one();
        c.slots.push_back(std::move(s));
        queued_work++;
        counters.accepted_requests++;
        m_requests.inc();
        return;
      }
    }
  }

  void process_inbuf(Conn& c) {
    std::size_t start = 0;
    while (!c.saw_shutdown) {
      const std::size_t nl = c.inbuf.find('\n', start);
      if (nl == std::string::npos) break;
      if (c.discarding) {
        c.discarding = false;  // the over-long line ended; already answered
      } else {
        handle_line(c, c.inbuf.substr(start, nl - start));
      }
      start = nl + 1;
    }
    c.inbuf.erase(0, start);
    if (c.saw_shutdown) {
      c.inbuf.clear();
      return;
    }
    if (!c.discarding && c.inbuf.size() > serve::kMaxRequestLine) {
      // Stop buffering: no client may grow our memory by withholding '\n'.
      push_ready(c, serve::error_response(serve::oversize_line_message())
                        .dump());
      counters.parse_errors++;
      m_parse_errors.inc();
      c.inbuf.clear();
      c.discarding = true;
      c.has_partial = false;
    } else if (c.discarding) {
      c.inbuf.clear();
      c.has_partial = false;
    } else if (tracing) {
      // A leftover line head starts (or continues) the next request's read
      // phase; one clock read per partial arrival, not per byte.
      if (c.inbuf.empty()) {
        c.has_partial = false;
      } else if (!c.has_partial) {
        c.has_partial = true;
        c.partial_since = std::chrono::steady_clock::now();
      }
    }
  }

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
      c.inbuf.append(buf, static_cast<std::size_t>(n));
      process_inbuf(c);
      if (!to_eof) break;
    }
  }

  // ---- response delivery ---------------------------------------------------

  /// Moves every deliverable head-of-line response into the out buffer.
  void resolve_slots(Conn& c) {
    // One clock read amortized over every slot resolved this call — the
    // RED duration endpoint (excludes socket flush; identical with tracing
    // on or off, so the two configurations report comparable latencies).
    SteadyTp t3{};
    while (!c.slots.empty()) {
      Slot& s = c.slots.front();
      std::string line;
      switch (s.kind) {
        case Slot::Kind::kReady:
          line = std::move(s.line);
          break;
        case Slot::Kind::kEval:
          if (s.ticket.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            return;
          }
          if (s.trace != nullptr) {
            line = resolve_traced_eval(s);
          } else {
            line = serve::eval_response(s.ticket, s.id).dump();
          }
          break;
        case Slot::Kind::kControl:
          // Multi-client server: snapshot live counters, don't quiesce —
          // other clients keep the service busy by design.
          line = serve::control_response(service, s.req, /*quiesce=*/false)
                     .dump();
          break;
        case Slot::Kind::kAux:
          if (!s.aux->done.load(std::memory_order_acquire)) return;
          line = std::move(s.aux->line);
          break;
      }
      if (t3 == SteadyTp{}) t3 = std::chrono::steady_clock::now();
      const int k = s.op_class;
      m_op_requests[k].inc();
      // Responses put "ok" first, so errors are a prefix check, not a parse.
      if (line.rfind("{\"ok\":false", 0) == 0) m_op_errors[k].inc();
      if (s.accepted != SteadyTp{}) {
        m_op_duration[k].observe(
            static_cast<double>(delta_ns(s.accepted, t3)) * 1e-9);
      }
      if (s.counts_as_work) queued_work--;
      c.outbuf += line;
      c.outbuf += '\n';
      c.out_enqueued += line.size() + 1;
      if (s.trace != nullptr) {
        // The record completes when its last byte reaches the socket; park
        // it against the flushed-byte watermark.
        PendingFlush pf;
        pf.target = c.out_enqueued;
        pf.resolved = t3;
        pf.rec = std::move(*s.trace);
        c.pending_flush.push_back(std::move(pf));
      }
      c.slots.pop_front();
      counters.responses_sent++;
      m_responses.inc();
    }
  }

  /// Renders a traced eval's response, filling the record's worker phases
  /// and serialize time; the flush phase completes in flush().
  std::string resolve_traced_eval(Slot& s) {
    const SteadyTp r0 = std::chrono::steady_clock::now();
    serve::Json r = serve::eval_response(s.ticket, s.id);
    const SteadyTp r1 = std::chrono::steady_clock::now();

    obs::RequestTrace& rec = *s.trace;
    const serve::Json* ok = r.find("ok");
    rec.ok = ok != nullptr && ok->as_bool("ok");
    auto& ph = rec.phase_ns;
    if (s.ticket.source == serve::EvalService::Source::kScheduled &&
        s.ticket.phases != nullptr) {
      ph[static_cast<std::size_t>(obs::Phase::kQueue)] =
          s.ticket.phases->queue_ns;
      ph[static_cast<std::size_t>(obs::Phase::kCache)] =
          s.ticket.phases->cache_ns;
      ph[static_cast<std::size_t>(obs::Phase::kCompute)] =
          s.ticket.phases->compute_ns;
      rec.stage_ns = s.ticket.phases->stage_ns;
    } else {
      // Cache hit / coalesced join: no work of its own — the latency is
      // head-of-line wait on this connection (minus the phases already
      // attributed at accept time).
      const std::uint64_t wait = delta_ns(s.accepted, r0);
      const std::uint64_t booked =
          ph[static_cast<std::size_t>(obs::Phase::kParse)] +
          ph[static_cast<std::size_t>(obs::Phase::kAdmission)];
      ph[static_cast<std::size_t>(obs::Phase::kQueue)] =
          wait >= booked ? wait - booked : 0;
    }
    ph[static_cast<std::size_t>(obs::Phase::kSerialize)] = delta_ns(r0, r1);
    if (s.want_response_trace) {
      // The in-response flush phase necessarily reads 0 — a response cannot
      // carry its own write time. The ring and slow-log records get it.
      rec.total_ns = delta_ns(s.accepted, r1) +
                     ph[static_cast<std::size_t>(obs::Phase::kRead)];
      r.set("trace", serve::trace_object(rec));
    }
    return r.dump();
  }

  void flush(Conn& c) {
    while (!c.outbuf.empty()) {
      const ssize_t n = ::write(c.fd.get(), c.outbuf.data(), c.outbuf.size());
      if (n > 0) {
        c.outbuf.erase(0, static_cast<std::size_t>(n));
        c.out_flushed += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      kill_conn(c);  // EPIPE & friends: the client is gone
      return;
    }
    complete_flushed(c);
  }

  /// Finalizes traced records whose bytes have fully left the out buffer:
  /// one clock read per write batch, shared by every record it completed.
  void complete_flushed(Conn& c) {
    if (c.pending_flush.empty() ||
        c.pending_flush.front().target > c.out_flushed) {
      return;
    }
    const SteadyTp t5 = std::chrono::steady_clock::now();
    while (!c.pending_flush.empty() &&
           c.pending_flush.front().target <= c.out_flushed) {
      PendingFlush& pf = c.pending_flush.front();
      obs::RequestTrace rec = std::move(pf.rec);
      rec.phase_ns[static_cast<std::size_t>(obs::Phase::kFlush)] =
          delta_ns(pf.resolved, t5);
      rec.total_ns = ring.to_epoch_ns(t5) >= rec.start_ns
                         ? ring.to_epoch_ns(t5) - rec.start_ns
                         : 0;
      c.pending_flush.pop_front();
      finalize_trace(std::move(rec));
    }
  }

  void finalize_trace(obs::RequestTrace rec) {
    for (int p = 0; p < obs::kNumPhases; ++p) {
      m_phase_ns[p].inc(rec.phase_ns[static_cast<std::size_t>(p)]);
    }
    if (slow_log.is_open() && rec.total_ns >= slow_ns) {
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::system_clock::now().time_since_epoch())
              .count();
      slow_log << obs::request_trace_json(rec, wall_ms) << '\n';
      slow_log.flush();
    }
    ring.push(std::move(rec));
  }

  void pump(Conn& c) {
    if (c.dead) return;
    resolve_slots(c);
    flush(c);
    if (c.dead) return;
    if (c.slots.empty() && c.outbuf.empty() &&
        (c.peer_eof || c.saw_shutdown || draining)) {
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

  void reap_dead() {
    for (auto it = conns.begin(); it != conns.end();) {
      Conn& c = *it->second;
      if (!c.dead) {
        ++it;
        continue;
      }
      for (const Slot& s : c.slots) {
        if (s.counts_as_work) queued_work--;
        counters.dropped_responses++;
        m_dropped.inc();
      }
      loop.remove(c.fd.get());
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
      outbuf_total += c->outbuf.size();
      depth_max = std::max(depth_max, c->slots.size());
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
      auto conn = std::make_unique<Conn>();
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
    // in an inbuf, and an unterminated request was never accepted.
  }

  void aux_main() {
    while (true) {
      AuxJob job;
      {
        std::unique_lock<std::mutex> l(aux_mu);
        aux_cv.wait(l, [&] { return aux_stop || !aux_jobs.empty(); });
        if (aux_jobs.empty()) return;  // stop requested and queue drained
        job = std::move(aux_jobs.front());
        aux_jobs.pop_front();
      }
      std::string line;
      try {
        line = serve::control_response(service, job.req, /*quiesce=*/false)
                   .dump();
      } catch (const std::exception& e) {  // control_response shouldn't
        line = serve::error_response(e.what(), job.req.id).dump();  // throw,
      }                                                             // but belt
      job.result->line = std::move(line);
      job.result->done.store(true, std::memory_order_release);
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
  return rc;
}

}  // namespace ramp::net
