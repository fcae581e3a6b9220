// net::Server behavior tests over real sockets: the TCP front-end speaks
// exactly the stdio NDJSON dialect (eval responses byte-identical modulo
// cache-provenance flags), pipelined responses keep request order, bad
// input degrades to error responses (never a dropped connection), admission
// control sheds with explicit `overloaded` responses instead of queueing
// without bound, and graceful drain answers everything it accepted —
// counters prove nothing accepted is ever silently lost.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "net_tcp_client.hpp"
#include "obs/reqtrace.hpp"
#include "pipeline/evaluator.hpp"
#include "serve/eval_service.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"

namespace ramp::net {
namespace {

using testing::LineClient;

pipeline::EvaluationConfig tiny_config() {
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = 3'000;
  return cfg;
}

/// A server on its own thread; terminate() uses a throwaway client's
/// `shutdown` op, so every test also exercises the drain path.
struct RunningServer {
  explicit RunningServer(serve::EvalService& service,
                         ServerOptions opts = {}) {
    server = std::make_unique<Server>(service, std::move(opts));
    thread = std::thread([this] { rc = server->run(); });
  }
  ~RunningServer() {
    if (thread.joinable()) {
      terminate();
      thread.join();
    }
  }
  std::uint16_t port() const { return server->port(); }
  void terminate() {
    if (done) return;
    done = true;
    try {
      LineClient quit(port());
      quit.send(R"({"op":"shutdown"})");
      quit.recv_line();
    } catch (const std::exception&) {
      // already draining (another client's shutdown beat us): fine
    }
  }
  int join() {
    terminate();
    thread.join();
    return rc;
  }

  std::unique_ptr<Server> server;
  std::thread thread;
  int rc = -1;
  bool done = false;
};

/// Response with the cache-provenance flags (`cached`, `coalesced`) forced
/// false: those legitimately differ between a fresh stdio service and a TCP
/// server that already saw the key — everything else must match bytewise.
std::string normalized(const std::string& line) {
  const serve::Json parsed = serve::Json::parse(line);
  serve::Json out = serve::Json::object();
  for (const auto& [key, value] : parsed.items()) {
    if (key == "cached" || key == "coalesced") {
      out.set(key, serve::Json(false));
    } else {
      out.set(key, value);
    }
  }
  return out.dump();
}

/// The stdio answer for one request line, from a fresh service with the
/// same config — the reference the TCP path must reproduce.
std::string stdio_answer(const std::string& line) {
  serve::EvalService service(tiny_config(), {});
  std::istringstream in(line + "\n");
  std::ostringstream out;
  EXPECT_EQ(serve::serve_loop(in, out, service), 0);
  std::string text = out.str();
  EXPECT_FALSE(text.empty());
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

TEST(NetServerTest, EvalResponseIsByteIdenticalToStdio) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  const std::string req =
      R"({"op":"eval","app":"gcc","node":"90","id":7})";
  LineClient client(rs.port());
  ASSERT_TRUE(client.send(req));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(normalized(*reply), normalized(stdio_answer(req)));
}

TEST(NetServerTest, PipelinedResponsesKeepRequestOrder) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  const std::vector<std::string> apps = {"gcc", "gzip", "twolf", "crafty"};
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.send(R"({"op":"eval","app":")" + apps[i % 4] +
                            R"(","node":"130","id":)" + std::to_string(i) +
                            "}"));
  }
  for (int i = 0; i < kRequests; ++i) {
    const auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value()) << "response " << i << " missing";
    const serve::Json j = serve::Json::parse(*reply);
    ASSERT_NE(j.find("id"), nullptr);
    EXPECT_EQ(static_cast<int>(j.find("id")->as_number()), i)
        << "responses out of order";
    EXPECT_TRUE(j.find("ok")->as_bool());
  }
}

TEST(NetServerTest, ControlOpsInterleaveInOrderWithEvals) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  ASSERT_TRUE(client.send(R"({"op":"eval","app":"gcc","node":"90"})"));
  ASSERT_TRUE(client.send(R"({"op":"stats"})"));
  ASSERT_TRUE(client.send(R"({"op":"metrics"})"));

  const auto r1 = client.recv_line(), r2 = client.recv_line(),
             r3 = client.recv_line();
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(serve::Json::parse(*r1).find("op")->as_string(), "eval");
  EXPECT_EQ(serve::Json::parse(*r2).find("op")->as_string(), "stats");
  EXPECT_EQ(serve::Json::parse(*r3).find("op")->as_string(), "metrics");
  // The stats snapshot taken *after* the eval answered must have seen it.
  const serve::Json stats = serve::Json::parse(*r2);
  ASSERT_NE(stats.find("stats"), nullptr) << *r2;
  ASSERT_NE(stats.find("stats")->find("requests"), nullptr) << *r2;
  EXPECT_GE(stats.find("stats")->find("requests")->as_number(), 1.0);
}

TEST(NetServerTest, FleetOpRunsOverTcp) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  ASSERT_TRUE(client.send(
      R"({"op":"fleet","scenario":"baseline","chips":64,"years":6,"bin":2,"seed":1})"));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  const serve::Json j = serve::Json::parse(*reply);
  ASSERT_NE(j.find("ok"), nullptr) << *reply;
  EXPECT_TRUE(j.find("ok")->as_bool()) << *reply;
  EXPECT_EQ(j.find("op")->as_string(), "fleet");
  ASSERT_NE(j.find("summary"), nullptr);
  EXPECT_EQ(j.find("summary")->find("chips")->as_number(), 64.0);
  ASSERT_NE(j.find("curve"), nullptr);
  EXPECT_EQ(j.find("curve")->elements().size(), 3u);  // 6y / 2y bins
}

TEST(NetServerTest, ParseErrorAnswersButKeepsConnection) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  ASSERT_TRUE(client.send("{this is not json"));
  const auto err = client.recv_line();
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(serve::Json::parse(*err).find("ok")->as_bool());

  // The connection survives and serves real work afterwards.
  ASSERT_TRUE(client.send(R"({"op":"eval","app":"gcc","node":"180"})"));
  const auto good = client.recv_line();
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(serve::Json::parse(*good).find("ok")->as_bool());
}

TEST(NetServerTest, OversizeLineRejectedWithoutKillingConnection) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  // One byte past the cap; garbage content never reaches the parser.
  std::string huge(serve::kMaxRequestLine + 1, 'x');
  ASSERT_TRUE(client.send(huge));
  const auto err = client.recv_line();
  ASSERT_TRUE(err.has_value());
  const serve::Json j = serve::Json::parse(*err);
  EXPECT_FALSE(j.find("ok")->as_bool());
  EXPECT_NE(j.find("error")->as_string().find("exceeds"), std::string::npos)
      << *err;

  ASSERT_TRUE(client.send(R"({"op":"eval","app":"gzip","node":"130"})"));
  const auto good = client.recv_line();
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(serve::Json::parse(*good).find("ok")->as_bool());
}

TEST(NetServerTest, ConnectionCapRejectsWithOverloadedLine) {
  serve::EvalService service(tiny_config(), {});
  ServerOptions opts;
  opts.max_connections = 1;
  RunningServer rs(service, opts);

  LineClient first(rs.port());
  ASSERT_TRUE(first.send(R"({"op":"stats"})"));
  ASSERT_TRUE(first.recv_line().has_value());  // first client is in

  LineClient second(rs.port());
  const auto reply = second.recv_line();  // rejected: one line, then EOF
  ASSERT_TRUE(reply.has_value());
  const serve::Json j = serve::Json::parse(*reply);
  EXPECT_FALSE(j.find("ok")->as_bool());
  ASSERT_NE(j.find("overloaded"), nullptr);
  EXPECT_TRUE(j.find("overloaded")->as_bool());
  EXPECT_FALSE(second.recv_line().has_value());  // closed after the line

  // Shut down through the admitted client: a fresh terminate() client
  // would itself bounce off the 1-connection cap.
  ASSERT_TRUE(first.send(R"({"op":"shutdown"})"));
  first.recv_line();
  rs.done = true;
  rs.thread.join();
  EXPECT_GE(rs.server->counters().rejected_connections, 1u);
}

TEST(NetServerTest, QueueCapShedsWithOverloadedNotUnboundedQueue) {
  serve::EvalService::Options sopts;
  sopts.jobs = 1;
  serve::EvalService service(tiny_config(), sopts);
  ServerOptions opts;
  opts.max_queued_requests = 2;
  RunningServer rs(service, opts);

  LineClient client(rs.port());
  // Distinct keys (trace_len varies) so nothing coalesces or hits cache;
  // with a 2-deep queue most of these must shed.
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.send(
        R"({"op":"eval","app":"gcc","node":"90","trace_len":)" +
        std::to_string(2'000 + i) + R"(,"id":)" + std::to_string(i) + "}"));
  }
  int ok = 0, overloaded = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto reply = client.recv_line();
    ASSERT_TRUE(reply.has_value()) << "response " << i << " missing";
    const serve::Json j = serve::Json::parse(*reply);
    EXPECT_EQ(static_cast<int>(j.find("id")->as_number()), i);
    if (j.find("ok")->as_bool()) {
      ok++;
    } else {
      ASSERT_NE(j.find("overloaded"), nullptr) << *reply;
      overloaded++;
    }
  }
  EXPECT_GE(ok, 1) << "admission control must not shed everything";
  EXPECT_GE(overloaded, 1) << "a 2-deep queue cannot absorb 24 requests";
  EXPECT_EQ(ok + overloaded, kRequests) << "every request got an answer";

  rs.terminate();
  rs.thread.join();
  EXPECT_EQ(rs.server->counters().shed_requests,
            static_cast<std::uint64_t>(overloaded));
}

TEST(NetServerTest, ShutdownOpDrainsAndAccountsForEverything) {
  serve::EvalService service(tiny_config(), {});
  auto rs = std::make_unique<RunningServer>(service);

  LineClient client(rs->port());
  ASSERT_TRUE(client.send(R"({"op":"eval","app":"twolf","node":"65-1.0"})"));
  ASSERT_TRUE(client.send(R"({"op":"shutdown"})"));
  // Both answers arrive — the in-flight eval is not abandoned — then EOF.
  const auto eval = client.recv_line();
  ASSERT_TRUE(eval.has_value());
  EXPECT_TRUE(serve::Json::parse(*eval).find("ok")->as_bool());
  const auto bye = client.recv_line();
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(serve::Json::parse(*bye).find("op")->as_string(), "shutdown");
  EXPECT_FALSE(client.recv_line().has_value());

  rs->done = true;  // shutdown already sent
  rs->thread.join();
  EXPECT_EQ(rs->rc, 0);
  const ServerCounters& c = rs->server->counters();
  EXPECT_EQ(c.responses_sent + c.dropped_responses, c.accepted_requests);
  EXPECT_EQ(c.dropped_responses, 0u);
}

TEST(NetServerTest, DrainFlagStopsAnIdleServer) {
  static volatile std::sig_atomic_t flag;
  flag = 0;
  serve::EvalService service(tiny_config(), {});
  ServerOptions opts;
  opts.drain_flag = &flag;
  Server server(service, opts);
  std::thread t([&] { server.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  serve::request_drain(&flag);  // as the SIGTERM handler would
  t.join();  // run() noticed within its 100 ms poll tick
  SUCCEED();
}

TEST(NetServerTest, FireAndForgetClientStillHasRequestAccepted) {
  serve::EvalService service(tiny_config(), {});
  auto rs = std::make_unique<RunningServer>(service);

  {
    // Write a request and vanish without reading the answer: the server
    // must still read the socket to EOF and accept the buffered line.
    LineClient ephemeral(rs->port());
    ASSERT_TRUE(
        ephemeral.send(R"({"op":"eval","app":"gcc","node":"180"})"));
    ephemeral.close();
  }
  // Give the loop a beat to process the hangup before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  EXPECT_EQ(rs->join(), 0);
  const ServerCounters& c = rs->server->counters();
  EXPECT_GE(c.accepted_requests, 2u);  // the orphan + the shutdown
  // The orphan's answer either reached the kernel buffer of the dead
  // socket (sent) or the connection died first (dropped) — timing decides
  // which, but the accounting must balance either way.
  EXPECT_EQ(c.responses_sent + c.dropped_responses, c.accepted_requests);
}

TEST(NetServerTest, HealthReportsTransportState) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  ASSERT_TRUE(client.send(R"({"op":"health","id":"h1"})"));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  const serve::Json j = serve::Json::parse(*reply);
  EXPECT_TRUE(j.find("ok")->as_bool());
  EXPECT_EQ(j.find("op")->as_string(), "health");
  EXPECT_EQ(j.find("id")->as_string(), "h1");
  EXPECT_EQ(j.find("mode")->as_string(), "tcp");
  EXPECT_GE(j.find("uptime_s")->as_number(), 0.0);
  EXPECT_GE(j.find("accepted_connections")->as_number(), 1.0);
  EXPECT_GE(j.find("active_connections")->as_number(), 1.0);
  EXPECT_FALSE(j.find("draining")->as_bool());
  EXPECT_EQ(j.find("shards")->as_number(), 1.0);
}

TEST(NetServerTest, TraceFlagAttachesPhaseBreakdownToThatResponseOnly) {
  serve::EvalService service(tiny_config(), {});
  RunningServer rs(service);

  LineClient client(rs.port());
  // Untraced request: no trace object, even for the same key.
  ASSERT_TRUE(client.send(R"({"op":"eval","app":"gcc","node":"90","id":1})"));
  const auto plain = client.recv_line();
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(serve::Json::parse(*plain).find("trace"), nullptr);

  ASSERT_TRUE(client.send(
      R"({"op":"eval","app":"gcc","node":"90","id":2,"trace":true,)"
      R"("trace_id":"req-42"})"));
  const auto traced = client.recv_line();
  ASSERT_TRUE(traced.has_value());
  const serve::Json j = serve::Json::parse(*traced);
  EXPECT_TRUE(j.find("ok")->as_bool());
  const serve::Json* t = j.find("trace");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->find("trace_id")->as_string(), "req-42");
  EXPECT_EQ(t->find("op")->as_string(), "eval");
  EXPECT_EQ(t->find("label")->as_string(), "gcc@90");
  EXPECT_GT(t->find("total_ns")->as_number(), 0.0);
  EXPECT_TRUE(t->find("cached")->as_bool());  // id 1 warmed the key
  const serve::Json* phases = t->find("phases");
  ASSERT_NE(phases, nullptr);
  int n = 0;
  double sum = 0.0;
  for (const auto& [name, ns] : phases->items()) {
    (void)name;
    sum += ns.as_number();
    ++n;
  }
  EXPECT_EQ(n, obs::kNumPhases);
  EXPECT_GT(sum, 0.0);
  EXPECT_LE(sum, t->find("total_ns")->as_number());

  // The traced response is the plain one plus the trace object.
  serve::Json stripped = serve::Json::object();
  for (const auto& [key, value] : j.items()) {
    if (key != "trace" && key != "id" && key != "cached") {
      stripped.set(key, value);
    }
  }
  serve::Json reference = serve::Json::object();
  const serve::Json plain_doc = serve::Json::parse(*plain);
  for (const auto& [key, value] : plain_doc.items()) {
    if (key != "id" && key != "cached") reference.set(key, value);
  }
  EXPECT_EQ(stripped.dump(), reference.dump());
}

TEST(NetServerTest, TraceDumpReturnsRecentRequestsAsPerfetto) {
  serve::EvalService service(tiny_config(), {});
  ServerOptions opts;
  opts.request_trace = true;
  RunningServer rs(service, opts);

  LineClient client(rs.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send(R"({"op":"eval","app":"gzip","node":"130","id":)" +
                            std::to_string(i) + "}"));
    ASSERT_TRUE(client.recv_line().has_value());
  }
  ASSERT_TRUE(client.send(R"({"op":"trace_dump","id":"d"})"));
  const auto reply = client.recv_line();
  ASSERT_TRUE(reply.has_value());
  const serve::Json j = serve::Json::parse(*reply);
  EXPECT_TRUE(j.find("ok")->as_bool());
  EXPECT_EQ(j.find("op")->as_string(), "trace_dump");
  EXPECT_EQ(j.find("id")->as_string(), "d");
  EXPECT_GE(j.find("count")->as_number(), 3.0);
  EXPECT_EQ(j.find("capacity")->as_number(), 512.0);
  EXPECT_GE(j.find("total_traced")->as_number(), 3.0);
  const std::string perfetto = j.find("perfetto")->as_string();
  EXPECT_NE(perfetto.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(perfetto.find("requests-lane-0"), std::string::npos);
}

TEST(NetServerTest, SlowLogWithZeroThresholdCapturesEveryTracedRequest) {
  const std::string path =
      ::testing::TempDir() + "ramp_net_server_slow_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".ndjson";
  std::remove(path.c_str());
  {
    serve::EvalService service(tiny_config(), {});
    ServerOptions opts;
    opts.request_trace = true;
    opts.slow_log_path = path;
    opts.slow_ms = 0.0;
    RunningServer rs(service, opts);

    LineClient client(rs.port());
    ASSERT_TRUE(
        client.send(R"({"op":"eval","app":"crafty","node":"180","id":1})"));
    ASSERT_TRUE(client.recv_line().has_value());
    ASSERT_TRUE(
        client.send(R"({"op":"eval","app":"crafty","node":"180","id":2})"));
    ASSERT_TRUE(client.recv_line().has_value());
    EXPECT_EQ(rs.join(), 0);  // drain flushes the log
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    const serve::Json j = serve::Json::parse(line);
    EXPECT_EQ(j.find("op")->as_string(), "eval");
    EXPECT_EQ(j.find("label")->as_string(), "crafty@180");
    ASSERT_NE(j.find("phases"), nullptr);
    EXPECT_GE(j.find("total_ns")->as_number(), 0.0);
    ++lines;
  }
  EXPECT_GE(lines, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ramp::net
