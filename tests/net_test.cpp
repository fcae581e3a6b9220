// Unit tests for the net building blocks: consistent-hash ring placement
// (deterministic, balanced, stable under resize), epoll event loop
// semantics (dispatch, modify, safe removal mid-batch, cross-thread wake),
// and the socket helpers (ephemeral bind, connect/accept round trip).
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/hash_ring.hpp"
#include "net/shard.hpp"
#include "net/socket.hpp"
#include "serve/request.hpp"
#include "util/error.hpp"

namespace ramp::net {
namespace {

TEST(HashRingTest, PlacementIsDeterministic) {
  const HashRing a(4), b(4);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(a.shard_for(key), b.shard_for(key));
  }
}

TEST(HashRingTest, EveryShardOwnsAFairShare) {
  constexpr std::size_t kShards = 4;
  const HashRing ring(kShards);
  std::map<std::size_t, int> counts;
  constexpr int kKeys = 20'000;
  for (int i = 0; i < kKeys; ++i) {
    const std::size_t s = ring.shard_for("app=gcc|node=" + std::to_string(i));
    ASSERT_LT(s, kShards);
    counts[s]++;
  }
  // 64 vnodes per shard keeps shares near uniform; accept a 2x band.
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], kKeys / (2 * static_cast<int>(kShards)))
        << "shard " << s << " starved";
    EXPECT_LT(counts[s], kKeys / static_cast<int>(kShards) * 2)
        << "shard " << s << " overloaded";
  }
}

TEST(HashRingTest, ResizeMovesOnlyASliverOfTheKeyspace) {
  const HashRing before(4), after(5);
  constexpr int kKeys = 20'000;
  int moved = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if (before.shard_for(key) != after.shard_for(key)) moved++;
  }
  // Consistent hashing moves ~1/5 of keys on 4 -> 5; hash % N would move
  // ~4/5. The midpoint separates the two behaviors decisively.
  EXPECT_LT(moved, kKeys / 2);
  EXPECT_GT(moved, 0);
}

TEST(HashRingTest, SingleShardOwnsEverything) {
  const HashRing ring(1);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(ring.shard_for(std::to_string(i)), 0u);
}

TEST(HashRingTest, EvalsDifferingOnlyInNodeOrSinkShareAShard) {
  // The front routes by trace key: every cell of one (app, trace length,
  // seed) — the pinned 180 nm base included — lands on one shard.
  const HashRing ring(4);
  const pipeline::EvaluationConfig base;
  const auto shard_of = [&](const std::string& line) {
    return ring.shard_for(eval_route_key(serve::parse_request(line), base));
  };
  const std::size_t home =
      shard_of(R"({"op":"eval","app":"gcc","node":"180"})");
  for (const char* line :
       {R"({"op":"eval","app":"gcc","node":"90"})",
        R"({"op":"eval","app":"gcc","node":"65-1.0","sink_k":350})",
        R"({"op":"eval","app":"gcc","node":"130","pin_sink":false})",
        R"({"op":"eval","app":"gcc","node":"65-0.9","sink_k":341.5})"}) {
    EXPECT_EQ(shard_of(line), home) << line;
  }
  // The key still separates apps, trace lengths and seeds.
  const auto key = [&](const std::string& line) {
    return eval_route_key(serve::parse_request(line), base);
  };
  const std::string gcc = key(R"({"op":"eval","app":"gcc","node":"90"})");
  EXPECT_NE(key(R"({"op":"eval","app":"mesa","node":"90"})"), gcc);
  EXPECT_NE(key(R"({"op":"eval","app":"gcc","node":"90","seed":7})"), gcc);
  EXPECT_NE(key(R"({"op":"eval","app":"gcc","node":"90","trace_len":9})"),
            gcc);
  // An explicit trace length equal to the base config's is the same key.
  EXPECT_EQ(key(R"({"op":"eval","app":"gcc","node":"90","trace_len":300000})"),
            gcc);
}

TEST(EventLoopTest, DispatchesReadableFd) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int fired = 0;
  loop.add(fds[0], EPOLLIN, [&](std::uint32_t) { fired++; });
  EXPECT_EQ(loop.run_once(0), 0);  // nothing readable yet
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(loop.run_once(1000), 1);
  EXPECT_EQ(fired, 1);
  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, RemoveMidBatchSuppressesStaleDelivery) {
  EventLoop loop;
  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  int delivered = 0;
  // Whichever callback fires first removes BOTH fds; the sibling's already-
  // collected event must not be delivered to a dead registration.
  const auto nuke = [&](std::uint32_t) {
    delivered++;
    if (loop.watched(a[0])) loop.remove(a[0]);
    if (loop.watched(b[0])) loop.remove(b[0]);
  };
  loop.add(a[0], EPOLLIN, nuke);
  loop.add(b[0], EPOLLIN, nuke);
  ASSERT_EQ(::write(a[1], "x", 1), 1);
  ASSERT_EQ(::write(b[1], "x", 1), 1);
  loop.run_once(1000);
  EXPECT_EQ(delivered, 1);
  for (int fd : {a[0], a[1], b[0], b[1]}) ::close(fd);
}

TEST(EventLoopTest, WakeFromAnotherThreadInterruptsWait) {
  EventLoop loop;
  std::atomic<bool> woke{false};
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    woke.store(true);
    loop.wake();
  });
  // Without the wake this would block the full 10 s and the test would
  // time out; with it, run_once returns promptly after ~50 ms.
  loop.run_once(10'000);
  EXPECT_TRUE(woke.load());
  waker.join();
}

TEST(EventLoopTest, ModifySwitchesInterestSet) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int fired = 0;
  loop.add(fds[0], 0, [&](std::uint32_t) { fired++; });  // not watching IN
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(loop.run_once(0), 0);
  loop.modify(fds[0], EPOLLIN);
  EXPECT_EQ(loop.run_once(1000), 1);
  EXPECT_EQ(fired, 1);
  loop.remove(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketTest, EphemeralBindReportsRealPort) {
  const OwnedFd listener = listen_tcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.valid());
  EXPECT_GT(local_port(listener.get()), 0);
}

TEST(SocketTest, ConnectAcceptRoundTrip) {
  const OwnedFd listener = listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = local_port(listener.get());
  const OwnedFd client = connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());

  OwnedFd accepted;
  for (int i = 0; i < 100 && !accepted.valid(); ++i) {
    accepted = accept_client(listener.get());
    if (!accepted.valid())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(accepted.valid());

  ASSERT_EQ(::write(client.get(), "ping", 4), 4);
  char buf[8] = {};
  ssize_t n = -1;
  for (int i = 0; i < 100 && n < 0; ++i) {
    n = ::read(accepted.get(), buf, sizeof buf);  // non-blocking accept fd
    if (n < 0 && errno == EAGAIN)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(n, 4);
  EXPECT_EQ(std::string(buf, 4), "ping");
}

TEST(SocketTest, BadAddressThrowsInvalidArgument) {
  EXPECT_THROW(listen_tcp("not-an-address", 0), InvalidArgument);
}

TEST(SocketTest, OwnedFdMoveTransfersOwnership) {
  OwnedFd a = listen_tcp("127.0.0.1", 0);
  const int raw = a.get();
  OwnedFd b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), raw);
}

}  // namespace
}  // namespace ramp::net
