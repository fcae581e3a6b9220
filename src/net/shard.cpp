#include "net/shard.hpp"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/hash_ring.hpp"
#include "pipeline/stage_graph.hpp"
#include "serve/json.hpp"
#include "serve/metrics_merge.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::net {

namespace {

/// One accepted client request at the front: filled in (from a shard, or by
/// the front itself) and delivered strictly in the client's request order.
struct Entry {
  bool ready = false;
  std::string response;  ///< serialized line, no newline
};
using EntryPtr = std::shared_ptr<Entry>;

struct Client {
  OwnedFd fd;
  std::string inbuf;
  std::string outbuf;
  std::deque<EntryPtr> entries;
  std::uint32_t mask = 0;
  bool discarding = false;
  bool peer_eof = false;
  bool saw_shutdown = false;
  bool dead = false;
};

struct Upstream {
  OwnedFd fd;
  std::string inbuf;
  std::string outbuf;
  /// Forward k's response is upstream line k (per-connection ordering is a
  /// net::Server guarantee); expired entries belonged to dead clients.
  std::deque<std::weak_ptr<Entry>> fifo;
  std::uint32_t mask = 0;
  bool connected = false;
};

/// One client request answered by *all* shards: the front forwards a copy
/// to every worker, holds the client's slot until each part lands, then
/// merges. Used for `metrics` (histogram/counter merge across shards) and
/// `metrics_reset` (one coherent ack once every shard has reset).
struct Fanout {
  EntryPtr client;              ///< the client's reserved in-order slot
  std::vector<EntryPtr> parts;  ///< one per shard, in shard order
  serve::Op op = serve::Op::kMetrics;
  std::string id;      ///< client's request id, echoed on the merged line
  std::string format;  ///< "prometheus" (default) or "json"
};

struct Front {
  const ShardFrontOptions& opts;
  const std::vector<std::uint16_t>& shard_ports;
  HashRing ring;
  EventLoop loop;
  OwnedFd listener;
  std::map<int, std::unique_ptr<Client>> clients;
  std::vector<Upstream> upstreams;
  std::vector<Fanout> fanouts;
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  std::uint64_t accepted_total = 0;
  bool draining = false;

  Front(const ShardFrontOptions& o, const std::vector<std::uint16_t>& ports)
      : opts(o),
        shard_ports(ports),
        ring(o.shards, o.vnodes),
        upstreams(o.shards) {}

  // ---- upstream side -------------------------------------------------------

  Upstream& upstream(std::size_t shard) {
    Upstream& u = upstreams[shard];
    if (u.connected) return u;
    u.fd = connect_tcp("127.0.0.1", shard_ports[shard]);
    set_nonblocking(u.fd.get());
    u.connected = true;
    u.mask = EPOLLIN;
    loop.add(u.fd.get(), EPOLLIN, [this, shard](std::uint32_t events) {
      on_upstream_event(shard, events);
    });
    return u;
  }

  void update_upstream_mask(Upstream& u) {
    if (!u.connected) return;
    const std::uint32_t want =
        EPOLLIN | (u.outbuf.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    if (want == u.mask) return;
    loop.modify(u.fd.get(), want);
    u.mask = want;
  }

  void flush_upstream(Upstream& u) {
    while (!u.outbuf.empty()) {
      const ssize_t n =
          ::write(u.fd.get(), u.outbuf.data(), u.outbuf.size());
      if (n > 0) {
        u.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      fail_upstream(u);
      return;
    }
    update_upstream_mask(u);
  }

  /// A worker died mid-conversation: every outstanding forward gets an
  /// explicit error instead of a hang.
  void fail_upstream(Upstream& u) {
    for (auto& weak : u.fifo) {
      if (EntryPtr e = weak.lock()) {
        e->response =
            serve::error_response("shard connection lost").dump();
        e->ready = true;
      }
    }
    u.fifo.clear();
    if (u.connected) loop.remove(u.fd.get());
    u.fd.reset();
    u.connected = false;
    u.mask = 0;
    u.inbuf.clear();
    u.outbuf.clear();
  }

  void on_upstream_event(std::size_t shard, std::uint32_t events) {
    Upstream& u = upstreams[shard];
    if (events & EPOLLERR) {
      fail_upstream(u);
      return;
    }
    if (events & (EPOLLIN | EPOLLHUP)) {
      while (true) {
        char buf[65536];
        const ssize_t n = ::read(u.fd.get(), buf, sizeof buf);
        if (n > 0) {
          u.inbuf.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        // EOF/reset with forwards outstanding is a worker failure.
        std::size_t start = 0;
        attribute_lines(u, start);
        u.inbuf.erase(0, start);
        fail_upstream(u);
        return;
      }
      std::size_t start = 0;
      attribute_lines(u, start);
      u.inbuf.erase(0, start);
    }
    if (events & EPOLLOUT) flush_upstream(u);
  }

  void attribute_lines(Upstream& u, std::size_t& start) {
    while (true) {
      const std::size_t nl = u.inbuf.find('\n', start);
      if (nl == std::string::npos) return;
      if (!u.fifo.empty()) {  // front-of-FIFO owns this response
        if (EntryPtr e = u.fifo.front().lock()) {
          e->response = u.inbuf.substr(start, nl - start);
          e->ready = true;
        }
        u.fifo.pop_front();
      }
      start = nl + 1;
    }
  }

  // ---- client side ---------------------------------------------------------

  void update_client_mask(Client& c) {
    const std::uint32_t want =
        ((c.peer_eof || c.saw_shutdown || draining)
             ? 0u
             : static_cast<std::uint32_t>(EPOLLIN)) |
        (c.outbuf.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
    if (want == c.mask) return;
    loop.modify(c.fd.get(), want);
    c.mask = want;
  }

  void answer(Client& c, std::string line) {
    auto e = std::make_shared<Entry>();
    e->response = std::move(line);
    e->ready = true;
    c.entries.push_back(std::move(e));
  }

  void handle_line(Client& c, const std::string& line) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) return;
    if (line.size() > serve::kMaxRequestLine) {
      answer(c, serve::error_response(serve::oversize_line_message()).dump());
      return;
    }

    serve::EvalRequest req;
    try {
      req = serve::parse_request(line);
    } catch (const std::exception& e) {
      answer(c, serve::error_response(e.what()).dump());
      return;
    }

    if (req.op == serve::Op::kShutdown) {
      answer(c, serve::shutdown_response(req).dump());
      c.saw_shutdown = true;
      draining = true;  // whole-front drain; workers shut down afterwards
      return;
    }
    if (req.op == serve::Op::kHealth) {
      // Per-transport state lives here, not in any one worker.
      serve::HealthInfo info;
      info.mode = "front";
      info.uptime_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
      info.accepted_connections = accepted_total;
      info.active_connections = clients.size();
      info.draining = draining;
      info.shards = opts.shards;
      answer(c, serve::health_response(req, info).dump());
      return;
    }
    if (req.op == serve::Op::kMetrics || req.op == serve::Op::kMetricsReset) {
      // One shard's registry is a keyspace slice, not the fleet: both ops
      // go to *every* worker, and the client's slot settles on the merge.
      start_fanout(c, req);
      return;
    }

    // Evals route by their trace-stage key (app, effective trace length,
    // seed), so an app's 180 nm base and the sims its nodes share live on
    // one shard; ops without a key route by a stable line hash.
    const std::size_t shard =
        req.op == serve::Op::kEval
            ? ring.shard_for(eval_route_key(req, opts.base_config))
            : ring.shard_for(line);

    auto e = std::make_shared<Entry>();
    c.entries.push_back(e);
    Upstream& u = upstream(shard);
    u.fifo.push_back(e);
    u.outbuf += line;
    u.outbuf += '\n';
    flush_upstream(u);
  }

  // ---- whole-fleet fan-out (metrics / metrics_reset) -----------------------

  void start_fanout(Client& c, const serve::EvalRequest& req) {
    Fanout f;
    f.op = req.op;
    f.id = req.id;
    f.format = req.metrics_format;
    f.client = std::make_shared<Entry>();
    c.entries.push_back(f.client);
    // Workers always report the mergeable JSON snapshot; the client's
    // requested format is applied to the *merged* result at the front.
    const std::string fwd = req.op == serve::Op::kMetrics
                                ? "{\"op\":\"metrics\",\"format\":\"json\"}"
                                : "{\"op\":\"metrics_reset\"}";
    for (std::size_t s = 0; s < opts.shards; ++s) {
      auto part = std::make_shared<Entry>();
      Upstream& u = upstream(s);
      u.fifo.push_back(part);
      u.outbuf += fwd;
      u.outbuf += '\n';
      f.parts.push_back(std::move(part));
      flush_upstream(u);
    }
    fanouts.push_back(std::move(f));
  }

  /// Resolves every fan-out whose parts have all landed. Called each loop
  /// iteration; the client's slot stays un-ready (holding its response
  /// order) until the merge happens here.
  void settle_fanouts() {
    for (auto it = fanouts.begin(); it != fanouts.end();) {
      const bool done =
          std::all_of(it->parts.begin(), it->parts.end(),
                      [](const EntryPtr& p) { return p->ready; });
      if (!done) {
        ++it;
        continue;
      }
      it->client->response = merge_fanout(*it);
      it->client->ready = true;
      it = fanouts.erase(it);
    }
  }

  std::string merge_fanout(const Fanout& f) {
    std::vector<serve::Json> snaps;
    snaps.reserve(f.parts.size());
    for (std::size_t s = 0; s < f.parts.size(); ++s) {
      serve::Json part;
      try {
        part = serve::Json::parse(f.parts[s]->response);
      } catch (const std::exception&) {
        return serve::error_response("shard metrics fan-out: unparseable "
                                     "response from a worker",
                                     f.id)
            .dump();
      }
      const serve::Json* ok = part.find("ok");
      if (ok == nullptr || !ok->as_bool()) {
        // Typically "shard connection lost" stamped by fail_upstream.
        const serve::Json* err = part.find("error");
        return serve::error_response(
                   "shard metrics fan-out: " +
                       (err != nullptr ? err->as_string()
                                       : std::string("worker error")),
                   f.id)
            .dump();
      }
      if (f.op == serve::Op::kMetrics) {
        const serve::Json* snap = part.find("snapshot");
        if (snap == nullptr) {
          return serve::error_response(
                     "shard metrics fan-out: worker response lacks snapshot",
                     f.id)
              .dump();
        }
        snaps.push_back(*snap);
      }
    }

    serve::Json r = serve::Json::object();
    if (f.op == serve::Op::kMetricsReset) {
      r.set("ok", true).set("op", "metrics_reset");
      // f.id is the raw JSON of the request's "id" (string or number);
      // re-parse so it round-trips with its original type.
      if (!f.id.empty()) r.set("id", serve::Json::parse(f.id));
      return r.dump();
    }
    const serve::MergedMetrics merged = serve::merge_metrics_snapshots(snaps);
    r.set("ok", true).set("op", "metrics");
    if (!f.id.empty()) r.set("id", serve::Json::parse(f.id));
    if (f.format == "json") {
      r.set("snapshot", serve::Json::parse(serve::merged_ndjson(merged)));
    } else {
      r.set("prometheus", serve::merged_prometheus(merged));
    }
    return r.dump();
  }

  void process_inbuf(Client& c) {
    std::size_t start = 0;
    while (!c.saw_shutdown) {
      const std::size_t nl = c.inbuf.find('\n', start);
      if (nl == std::string::npos) break;
      if (c.discarding) {
        c.discarding = false;
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
      answer(c, serve::error_response(serve::oversize_line_message()).dump());
      c.inbuf.clear();
      c.discarding = true;
    } else if (c.discarding) {
      c.inbuf.clear();
    }
  }

  void pump_client(Client& c) {
    if (c.dead) return;
    while (!c.entries.empty() && c.entries.front()->ready) {
      c.outbuf += c.entries.front()->response;
      c.outbuf += '\n';
      c.entries.pop_front();
    }
    while (!c.outbuf.empty()) {
      const ssize_t n =
          ::write(c.fd.get(), c.outbuf.data(), c.outbuf.size());
      if (n > 0) {
        c.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      c.dead = true;  // client gone; its entries expire in upstream FIFOs
      return;
    }
    if (c.entries.empty() && c.outbuf.empty() &&
        (c.peer_eof || c.saw_shutdown || draining)) {
      c.dead = true;
      return;
    }
    update_client_mask(c);
  }

  void on_client_event(Client& c, std::uint32_t events) {
    if (events & EPOLLERR) {
      c.dead = true;
      return;
    }
    if (events & (EPOLLIN | EPOLLHUP)) {
      while (true) {
        char buf[65536];
        const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
        if (n == 0) {
          c.peer_eof = true;
          break;
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) c.dead = true;
          break;
        }
        c.inbuf.append(buf, static_cast<std::size_t>(n));
        process_inbuf(c);
        if ((events & EPOLLHUP) == 0) break;  // fairness: one read per event
      }
    }
    pump_client(c);
  }

  void on_accept() {
    while (true) {
      OwnedFd fd = accept_client(listener.get());
      if (!fd.valid()) return;
      if (draining) continue;
      if (clients.size() >= opts.max_connections) {
        const std::string line = serve::overloaded_response().dump() + "\n";
        [[maybe_unused]] ssize_t r =
            ::write(fd.get(), line.data(), line.size());
        continue;
      }
      auto client = std::make_unique<Client>();
      ++accepted_total;
      client->fd = std::move(fd);
      const int cfd = client->fd.get();
      Client* raw = client.get();
      client->mask = EPOLLIN;
      loop.add(cfd, EPOLLIN, [this, raw](std::uint32_t events) {
        on_client_event(*raw, events);
      });
      clients.emplace(cfd, std::move(client));
    }
  }

  int run() {
    listener = listen_tcp(opts.host, opts.port);
    if (opts.on_listening) opts.on_listening(local_port(listener.get()));
    loop.add(listener.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); });

    bool accepting = true;
    while (true) {
      if (serve::drain_requested(opts.drain_flag)) draining = true;
      if (draining && accepting) {
        loop.remove(listener.get());
        listener.reset();
        accepting = false;
      }
      settle_fanouts();
      for (auto& [fd, c] : clients) pump_client(*c);
      for (auto it = clients.begin(); it != clients.end();) {
        if (it->second->dead) {
          loop.remove(it->second->fd.get());
          it = clients.erase(it);
        } else {
          ++it;
        }
      }
      if (draining && clients.empty()) break;
      loop.run_once(/*timeout_ms=*/100);
    }
    return 0;
  }
};

}  // namespace

std::string eval_route_key(const serve::EvalRequest& req,
                           const pipeline::EvaluationConfig& base) {
  const workloads::Workload& w = workloads::workload(req.app);
  const pipeline::EvaluationConfig cfg = req.effective_config(base);
  return pipeline::trace_stage_key(
             {w.name, w.profile, cfg.trace_instructions, cfg.seed})
      .canonical;
}

int run_sharded_front(const ShardFrontOptions& opts,
                      const ShardMain& child_main) {
  RAMP_REQUIRE(opts.shards >= 1, "need at least one shard");

  // Bind every shard listener *before* forking, so the parent knows each
  // worker's port and a worker can serve the moment it starts.
  std::vector<OwnedFd> listeners;
  std::vector<std::uint16_t> ports;
  for (std::size_t s = 0; s < opts.shards; ++s) {
    listeners.push_back(listen_tcp("127.0.0.1", 0));
    ports.push_back(local_port(listeners.back().get()));
  }

  std::vector<pid_t> children;
  for (std::size_t s = 0; s < opts.shards; ++s) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (pid_t p : children) ::kill(p, SIGKILL);
      throw std::runtime_error("fork failed for shard worker");
    }
    if (pid == 0) {
      // Worker: keep only our own listener, then serve until `shutdown`.
      for (std::size_t o = 0; o < opts.shards; ++o) {
        if (o != s) listeners[o].reset();
      }
      int rc = 1;
      try {
        rc = child_main(s, std::move(listeners[s]));
      } catch (...) {
        rc = 1;
      }
      ::_exit(rc);
    }
    children.push_back(pid);
  }
  for (auto& l : listeners) l.reset();  // parent talks TCP, not fds

  int rc = 0;
  try {
    Front front(opts, ports);
    rc = front.run();
  } catch (...) {
    for (pid_t p : children) ::kill(p, SIGTERM);
    for (pid_t p : children) ::waitpid(p, nullptr, 0);
    throw;
  }

  // Drained: tell every worker to drain too, then collect them. A fresh
  // connection per worker keeps this independent of proxy state.
  for (std::size_t s = 0; s < opts.shards; ++s) {
    try {
      OwnedFd fd = connect_tcp("127.0.0.1", ports[s]);
      const std::string line = "{\"op\":\"shutdown\"}\n";
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t n =
            ::write(fd.get(), line.data() + off, line.size() - off);
        if (n > 0) {
          off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      char buf[256];  // wait for the shutdown ack (or EOF)
      while (::read(fd.get(), buf, sizeof buf) > 0) {}
    } catch (const std::exception&) {
      ::kill(children[s], SIGTERM);  // worker already gone or wedged
    }
  }
  for (pid_t p : children) {
    int status = 0;
    ::waitpid(p, &status, 0);
    if (rc == 0 && (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      rc = WIFEXITED(status) ? WEXITSTATUS(status) : 1;
    }
  }
  return rc;
}

}  // namespace ramp::net
