// Unit tests for the net building blocks: epoll event loop semantics
// (dispatch, modify, safe removal mid-batch, cross-thread wake), and the
// socket helpers (ephemeral bind, connect/accept round trip).
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "util/error.hpp"

namespace ramp::net {
namespace {

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
