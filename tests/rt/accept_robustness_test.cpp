// Regression tests for the accept-path bugs that used to kill endpoints
// under load:
//   1. any non-EINTR accept() failure ended the acceptor loop — one aborted
//      handshake or a moment of fd pressure permanently deafened the
//      endpoint while its port stayed bound (so not even the stale-binding
//      repair loop could notice);
//   2. the listen backlog was hardcoded to 64, so connect storms overflowed
//      the SYN queue regardless of configuration;
//   3. listeners never set SO_REUSEADDR, so a restarted endpoint could not
//      rebind a port still draining TIME_WAIT;
//   4. conn_fds/readers slots were never compacted, so connection churn on a
//      long-lived endpoint grew both vectors without bound.
// Bugs 1-3 run on EpollRuntime's reactor listeners; bug 4 on ProcessRuntime,
// the one runtime with an acceptor thread and per-connection reader slots.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "rt/epoll_runtime.hpp"
#include "rt/frame.hpp"
#include "rt/process_runtime.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {
namespace {

int ConnectLoopback(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (nonblocking) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class AcceptRobustnessTest : public ::testing::Test {
 protected:
  void MakeTopology(Runtime& rt) {
    auto j = rt.topology().add_jurisdiction("j");
    h1_ = rt.topology().add_host("h1", {j}, 1e9);
    h2_ = rt.topology().add_host("h2", {j}, 1e9);
  }

  HostId h1_, h2_;
};

// Bug 1: a connection arriving while the process is out of descriptors makes
// accept() fail with EMFILE. The listener must back off and retry — the
// queued connection is accepted once descriptors return, and the frame it
// carries is delivered. The old loop exited instead, deafening the endpoint
// forever.
TEST_F(AcceptRobustnessTest, AcceptorSurvivesFdExhaustion) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  // The raw client socket is created *before* descriptors run out (connect
  // on an existing fd needs no new descriptor in this process), but only
  // connected after, so the acceptor meets the pending handshake with
  // accept() returning EMFILE — not before.
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    fillers.push_back(fd);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(rt.port_of(sink));
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  // Give the reactor time to wake up on the pending connection and slam
  // into EMFILE at least once.
  const auto retry_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.metrics().counter("rt.tcp.accept_retries").value() == 0 &&
         std::chrono::steady_clock::now() < retry_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt.metrics().counter("rt.tcp.accept_retries").value(), 1u);

  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Descriptors are back: the re-armed listener picks the connection up
  // and a hand-rolled frame written on it reaches the endpoint's inbox.
  Envelope env{src, sink, DeliveryKind::kData, Buffer{}};
  std::uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(env, header);
  ASSERT_EQ(::send(client, header, sizeof header, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof header));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(sink).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(sink).received, 1u);
  ::close(client);
}

// Bug 2: the backlog really controls how many handshakes the kernel queues.
// A backlog-1 listener admits a couple of un-accepted connections; a deep
// one admits the whole burst.
TEST_F(AcceptRobustnessTest, ListenBacklogIsConfigurable) {
  constexpr int kBurst = 12;
  auto admitted = [](int backlog) {
    const ListenerSocket listener = CreateLoopbackListener(0, backlog);
    EXPECT_GE(listener.fd, 0);
    // Never accept: completed handshakes are exactly the queue the kernel
    // was willing to hold for us.
    std::vector<int> fds;
    for (int i = 0; i < kBurst; ++i) {
      const int fd = ConnectLoopback(listener.port, true);
      EXPECT_GE(fd, 0);
      fds.push_back(fd);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    int done = 0;
    for (int fd : fds) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 0) == 1 && (p.revents & POLLOUT) != 0) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) ++done;
      }
    }
    for (int fd : fds) ::close(fd);
    ::close(listener.fd);
    return done;
  };

  const int shallow = admitted(1);
  const int deep = admitted(kBurst * 2);
  EXPECT_EQ(deep, kBurst);
  EXPECT_LT(shallow, deep);

  // And the runtime actually carries the knob (the default is SOMAXCONN, not
  // the old hardcoded 64).
  EpollOptions options;
  options.tcp.listen_backlog = 7;
  EpollRuntime rt(options);
  EXPECT_EQ(rt.options().listen_backlog, 7);
  EXPECT_EQ(TcpOptions{}.listen_backlog, SOMAXCONN);
}

// Bug 3: closing the server side first leaves the bound port in TIME_WAIT;
// without SO_REUSEADDR the rebind fails with EADDRINUSE for minutes.
TEST_F(AcceptRobustnessTest, ReuseAddrAllowsImmediateRebindThroughTimeWait) {
  const ListenerSocket first = CreateLoopbackListener(0, 4);
  ASSERT_GE(first.fd, 0);
  const std::uint16_t port = first.port;

  const int client = ConnectLoopback(port, false);
  ASSERT_GE(client, 0);
  const int accepted = ::accept(first.fd, nullptr, nullptr);
  ASSERT_GE(accepted, 0);
  // Server closes first: the (loopback, port) pair enters TIME_WAIT.
  ::close(accepted);
  ::close(client);
  ::close(first.fd);

  const ListenerSocket second = CreateLoopbackListener(port, 4);
  EXPECT_GE(second.fd, 0) << "rebind through TIME_WAIT failed: "
                          << std::strerror(errno);
  EXPECT_EQ(second.port, port);
  if (second.fd >= 0) ::close(second.fd);
}

// Bug 4: every reconnect used to append a fresh conn_fds/readers slot; a
// long-lived endpoint whose peers churn (here: an aggressive idle reaper
// closing the pool side after every post) accumulated dead slots without
// bound. Slots must be reclaimed and reused.
TEST_F(AcceptRobustnessTest, ReaderSlotsAreReusedUnderConnectionChurn) {
  ProcessOptions options;
  // Reap after every post.
  options.tcp.idle_reap = std::chrono::microseconds(1);
  ProcessRuntime rt(options);
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  constexpr std::uint64_t kRounds = 20;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
    // Let the reaped connection's reader notice EOF and vacate its slot
    // before the next dial arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Each round redialed (the pool reaped the idle socket every time)...
  EXPECT_GE(rt.metrics().counter("rt.proc.pool.dials").value(), kRounds);
  // ...yet the server side cycled through a handful of reader slots, not
  // one per connection. (The bound is loose only for scheduling jitter —
  // the broken behavior is exactly kRounds slots.)
  EXPECT_LE(rt.metrics().counter("rt.proc.reader_slots").value(), kRounds / 2);
  EXPECT_GE(rt.metrics().counter("rt.proc.reader_slots").value(), 1u);
}

}  // namespace
}  // namespace legion::rt
