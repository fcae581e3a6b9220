// ramp_loadgen — open- and closed-loop NDJSON/TCP load generator for
// `ramp serve --listen`.
//
//   ramp_loadgen --port P [--host H] [--port-file FILE]
//                [--mode closed|open] [--connections N] [--rate RPS]
//                [--duration S] [--requests N] [--hot-frac F]
//                [--trace-len N] [--apps a,b,c] [--nodes n1,n2] [--seed N]
//
// Closed loop (default): each of N connections keeps exactly one request in
// flight — send, await, repeat — so offered load self-limits to service
// capacity; this measures latency at a concurrency level. Open loop:
// requests are sent on schedule at --rate requests/second spread over the
// connections regardless of completions — this is the honest way to find
// the saturation knee, because a slow server does not slow the offered
// load down (coordinated omission).
//
// Key skew: --hot-frac F sends fraction F of requests to ONE hot key (the
// first app x node) and the rest uniformly over the app x node pool.
// Hot-key traffic exercises the server's cross-client single-flight and
// cache path; uniform traffic exercises scheduling and the miss path.
//
// Output: one JSON summary on stdout —
//   {"mode":...,"connections":N,"offered_rps":...,"sent":...,
//    "completed":...,"ok":...,"errors":...,"overloaded":...,
//    "duration_s":...,"achieved_rps":...,"p50_ms":...,"p99_ms":...}
// Latency percentiles are over completed requests, send-to-response.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"

namespace {

using namespace ramp;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::string mode = "closed";
  std::size_t connections = 8;
  double rate = 200.0;       ///< open loop: total requests/second
  double duration_s = 5.0;
  std::uint64_t requests = 0;  ///< closed loop: per-conn cap (0 = by time)
  double hot_frac = 0.5;
  std::uint64_t trace_len = 20'000;
  std::vector<std::string> apps = {"gcc", "gzip", "twolf", "crafty"};
  std::vector<std::string> nodes = {"180", "130", "90", "65-1.0"};
  std::uint64_t seed = 42;
  bool trace = false;  ///< ask the server for a per-request phase breakdown
};

struct ThreadStats {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t overloaded = 0;
  std::vector<double> latencies_ms;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string make_request(const Config& cfg, std::mt19937_64& rng,
                         std::uint64_t id) {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::size_t ai = 0, ni = 0;
  if (coin(rng) >= cfg.hot_frac) {
    ai = rng() % cfg.apps.size();
    ni = rng() % cfg.nodes.size();
  }
  return "{\"op\":\"eval\",\"app\":\"" + cfg.apps[ai] + "\",\"node\":\"" +
         cfg.nodes[ni] + "\",\"trace_len\":" + std::to_string(cfg.trace_len) +
         ",\"id\":" + std::to_string(id) +
         (cfg.trace ? ",\"trace\":true" : "") + "}\n";
}

/// Reads whatever is available without blocking; returns false on EOF or
/// error. Complete lines land in `lines`.
bool drain_readable(int fd, std::string& inbuf,
                    std::vector<std::string>& lines) {
  while (true) {
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      inbuf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(inbuf.substr(start, nl - start));
    start = nl + 1;
  }
  inbuf.erase(0, start);
  return true;
}

void record_response(const std::string& line,
                     std::unordered_map<std::uint64_t, Clock::time_point>&
                         outstanding,
                     ThreadStats& st) {
  st.completed++;
  try {
    const serve::Json j = serve::Json::parse(line);
    if (const serve::Json* id = j.find("id")) {
      const auto key = static_cast<std::uint64_t>(id->as_number("id"));
      const auto it = outstanding.find(key);
      if (it != outstanding.end()) {
        st.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      it->second)
                .count());
        outstanding.erase(it);
      }
    }
    const serve::Json* ok = j.find("ok");
    if (ok != nullptr && ok->as_bool("ok")) {
      st.ok++;
    } else if (j.find("overloaded") != nullptr) {
      st.overloaded++;
    } else {
      st.errors++;
    }
  } catch (const std::exception&) {
    st.errors++;
  }
}

/// One connection's worth of load. Closed loop: lock-step request/response.
/// Open loop: sends on its schedule (total rate / connections), reads
/// whenever responses are ready, never waits for them to send.
ThreadStats run_connection(const Config& cfg, std::size_t index) {
  ThreadStats st;
  std::mt19937_64 rng(cfg.seed * 1000003 + index);
  net::OwnedFd fd = net::connect_tcp(cfg.host, cfg.port);
  net::set_nonblocking(fd.get());

  std::string inbuf;
  std::unordered_map<std::uint64_t, Clock::time_point> outstanding;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.duration_s));
  const bool open_loop = cfg.mode == "open";
  const double interval_s =
      open_loop ? static_cast<double>(cfg.connections) / cfg.rate : 0.0;
  auto next_send = start;
  std::uint64_t seq = index * 1'000'000'000ULL;  // ids unique per connection
  std::string pending_write;

  const auto send_one = [&] {
    const std::string req = make_request(cfg, rng, seq);
    outstanding.emplace(seq, Clock::now());
    ++seq;
    st.sent++;
    pending_write += req;
  };
  const auto flush_writes = [&]() -> bool {
    while (!pending_write.empty()) {
      const ssize_t n =
          ::write(fd.get(), pending_write.data(), pending_write.size());
      if (n > 0) {
        pending_write.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // server went away (e.g. drained)
    }
    return true;
  };

  bool alive = true;
  while (alive) {
    const auto now = Clock::now();
    const bool time_up = now >= deadline;
    const bool count_up = cfg.requests != 0 && st.sent >= cfg.requests;
    const bool sending_done = time_up || count_up;
    if (sending_done && outstanding.empty() && pending_write.empty()) break;

    if (!sending_done) {
      if (open_loop) {
        while (next_send <= Clock::now()) {
          send_one();
          next_send += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(interval_s));
        }
      } else if (outstanding.empty() && pending_write.empty()) {
        send_one();  // closed loop: exactly one in flight
      }
    }
    if (!flush_writes()) break;

    struct pollfd pfd{};
    pfd.fd = fd.get();
    pfd.events = static_cast<short>(POLLIN |
                                    (pending_write.empty() ? 0 : POLLOUT));
    int timeout_ms = 50;
    if (open_loop && !sending_done) {
      const double until =
          std::chrono::duration<double, std::milli>(next_send - Clock::now())
              .count();
      timeout_ms = std::max(0, std::min(50, static_cast<int>(until)));
    }
    if (sending_done) timeout_ms = 200;
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0 && errno != EINTR) break;
    if (pr > 0 && (pfd.revents & (POLLIN | POLLHUP))) {
      std::vector<std::string> lines;
      alive = drain_readable(fd.get(), inbuf, lines);
      for (const std::string& line : lines)
        record_response(line, outstanding, st);
    }
    // Give a drained/overloaded server 5s of grace after sending stops,
    // then count the remainder as lost.
    if (sending_done &&
        Clock::now() > deadline + std::chrono::seconds(5)) {
      break;
    }
  }
  return st;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ramp_loadgen --port P [--host H] [--port-file FILE]\n"
      "                    [--mode closed|open] [--connections N]\n"
      "                    [--rate RPS] [--duration S] [--requests N]\n"
      "                    [--hot-frac F] [--trace-len N]\n"
      "                    [--apps a,b,c] [--nodes n1,n2] [--seed N]\n"
      "                    [--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto take = [&](const char* flag) -> std::optional<std::string> {
    for (auto it = args.begin(); it != args.end(); ++it) {
      if (*it == flag && std::next(it) != args.end()) {
        std::string v = *std::next(it);
        args.erase(it, it + 2);
        return v;
      }
    }
    return std::nullopt;
  };
  try {
    if (const auto v = take("--host")) cfg.host = *v;
    if (const auto v = take("--port"))
      cfg.port = static_cast<std::uint16_t>(std::stoul(*v));
    if (const auto v = take("--port-file")) cfg.port_file = *v;
    if (const auto v = take("--mode")) cfg.mode = *v;
    if (const auto v = take("--connections"))
      cfg.connections = std::stoul(*v);
    if (const auto v = take("--rate")) cfg.rate = std::stod(*v);
    if (const auto v = take("--duration")) cfg.duration_s = std::stod(*v);
    if (const auto v = take("--requests")) cfg.requests = std::stoull(*v);
    if (const auto v = take("--hot-frac")) cfg.hot_frac = std::stod(*v);
    if (const auto v = take("--trace-len")) cfg.trace_len = std::stoull(*v);
    if (const auto v = take("--apps")) cfg.apps = split_csv(*v);
    if (const auto v = take("--nodes")) cfg.nodes = split_csv(*v);
    if (const auto v = take("--seed")) cfg.seed = std::stoull(*v);
    // Bare flag: every request opts into its own server-side breakdown.
    for (auto it = args.begin(); it != args.end(); ++it) {
      if (*it == "--trace") {
        cfg.trace = true;
        args.erase(it);
        break;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ramp_loadgen: bad flag value: %s\n", e.what());
    return 2;
  }
  if (!args.empty()) {
    std::fprintf(stderr, "ramp_loadgen: unknown argument '%s'\n",
                 args.front().c_str());
    return usage();
  }
  RAMP_REQUIRE(cfg.mode == "open" || cfg.mode == "closed",
               "--mode must be open or closed");
  RAMP_REQUIRE(cfg.connections >= 1, "--connections must be at least 1");
  RAMP_REQUIRE(cfg.hot_frac >= 0.0 && cfg.hot_frac <= 1.0,
               "--hot-frac must be in [0,1]");
  RAMP_REQUIRE(!cfg.apps.empty() && !cfg.nodes.empty(),
               "--apps/--nodes must be non-empty");

  if (!cfg.port_file.empty()) {
    // Wait (up to ~10s) for the server to report its bound port.
    for (int i = 0; i < 1000 && cfg.port == 0; ++i) {
      std::ifstream in(cfg.port_file);
      unsigned p = 0;
      if (in >> p && p > 0 && p <= 65535) {
        cfg.port = static_cast<std::uint16_t>(p);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (cfg.port == 0) {
    std::fprintf(stderr, "ramp_loadgen: no --port (or --port-file never "
                         "appeared)\n");
    return 2;
  }

  serve::ignore_sigpipe();  // a draining server closing on us is expected

  std::vector<std::thread> threads;
  std::vector<ThreadStats> stats(cfg.connections);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < cfg.connections; ++i) {
    threads.emplace_back([&cfg, &stats, i] {
      try {
        stats[i] = run_connection(cfg, i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ramp_loadgen: connection %zu: %s\n", i,
                     e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  ThreadStats total;
  for (const ThreadStats& s : stats) {
    total.sent += s.sent;
    total.completed += s.completed;
    total.ok += s.ok;
    total.errors += s.errors;
    total.overloaded += s.overloaded;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              s.latencies_ms.begin(), s.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const auto pct = [&](double q) {
    if (total.latencies_ms.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(total.latencies_ms.size() - 1));
    return total.latencies_ms[idx];
  };

  serve::Json out = serve::Json::object();
  out.set("mode", cfg.mode)
      .set("connections", static_cast<std::uint64_t>(cfg.connections))
      .set("offered_rps", cfg.mode == "open"
                              ? cfg.rate
                              : static_cast<double>(total.sent) / wall_s)
      .set("sent", total.sent)
      .set("completed", total.completed)
      .set("ok", total.ok)
      .set("errors", total.errors)
      .set("overloaded", total.overloaded)
      .set("duration_s", wall_s)
      .set("achieved_rps", static_cast<double>(total.completed) / wall_s)
      .set("p50_ms", pct(0.50))
      .set("p99_ms", pct(0.99));
  std::printf("%s\n", out.dump().c_str());
  return total.completed == total.sent ? 0 : 1;
}
