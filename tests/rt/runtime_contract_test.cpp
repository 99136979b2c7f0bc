// The rt::Runtime contract every real-clock kernel must keep: serviced
// endpoints run off the caller's thread, driver endpoints only under their
// owner's wait(), closed endpoints fail fast as stale bindings, concurrent
// senders all deliver, per-label stats aggregate, teardown with live
// endpoints does not hang, an endpoint may close itself from its own
// handler, now() advances, endpoints cost no threads, and only data frames
// are accepted from a socket. Typed over both real-clock runtimes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rt/conn_pool.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/frame.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {
namespace {

// A raw client socket to the listener `id` is served on: its host's
// loopback port, or its own Unix-domain socket.
int RawDial(EpollRuntime& rt, EndpointId id) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(rt.port_of(id));
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}
int RawDial(ProcessRuntime& rt, EndpointId id) {
  return DialUnix(ConnPool::UnixSocketPath(rt.socket_dir(), id.value));
}

// Writes `env` as one frame, its kind byte replaced by `kind`.
bool WriteFrame(int fd, Envelope env, std::uint8_t kind) {
  env.kind = static_cast<DeliveryKind>(kind);
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + env.payload.size());
  EncodeFrameHeader(env, frame.data());
  std::copy(env.payload.data(), env.payload.data() + env.payload.size(),
            frame.data() + kFrameHeaderBytes);
  return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(frame.size());
}

// True once the far end has closed the stream (EOF or reset).
bool ClosedByPeer(int fd) {
  pollfd p{fd, POLLIN, 0};
  if (::poll(&p, 1, 5'000) != 1) return false;
  char byte;
  return ::recv(fd, &byte, 1, 0) <= 0;
}

// The process's thread count, as the kernel reports it.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

template <typename RuntimeT>
class RuntimeContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = rt_.topology().add_jurisdiction("j");
    h1_ = rt_.topology().add_host("h1", {j});
    h2_ = rt_.topology().add_host("h2", {j});
  }

  static Envelope Msg(EndpointId src, EndpointId dst, std::string_view body) {
    return Envelope{src, dst, DeliveryKind::kData, Buffer::FromString(body)};
  }

  RuntimeT rt_;
  HostId h1_, h2_;
};

using RealClockRuntimes = ::testing::Types<EpollRuntime, ProcessRuntime>;
TYPED_TEST_SUITE(RuntimeContractTest, RealClockRuntimes);

TYPED_TEST(RuntimeContractTest, ServicedEndpointHandlesOffCallerThread) {
  auto& rt = this->rt_;
  std::atomic<int> hits{0};
  std::atomic<bool> different_thread{false};
  const auto main_id = std::this_thread::get_id();
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink",
      [&](Envelope&&) {
        different_thread = (std::this_thread::get_id() != main_id);
        ++hits;
      },
      ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);

  ASSERT_TRUE(rt.post(this->Msg(src, sink, "x")).ok());
  rt.wait(src, [&] { return hits.load() == 1; }, 2'000'000);
  EXPECT_EQ(hits.load(), 1);
  EXPECT_TRUE(different_thread.load());
}

TYPED_TEST(RuntimeContractTest, DriverEndpointPumpsFromOwningThread) {
  auto& rt = this->rt_;
  std::atomic<int> hits{0};
  const EndpointId driver = rt.create_endpoint(
      this->h1_, "driver", [&](Envelope&&) { ++hits; },
      ExecutionMode::kDriver);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);

  ASSERT_TRUE(rt.post(this->Msg(src, driver, "x")).ok());
  // Not handled until the owning thread pumps.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(hits.load(), 0);
  EXPECT_TRUE(rt.wait(driver, [&] { return hits.load() == 1; }, 2'000'000));
}

TYPED_TEST(RuntimeContractTest, PostToClosedEndpointFailsFast) {
  auto& rt = this->rt_;
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink", [](Envelope&&) {}, ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  rt.close_endpoint(sink);
  EXPECT_FALSE(rt.endpoint_alive(sink));
  EXPECT_EQ(rt.post(this->Msg(src, sink, "x")).code(),
            StatusCode::kStaleBinding);
}

TYPED_TEST(RuntimeContractTest, ManyConcurrentSendersAllDelivered) {
  auto& rt = this->rt_;
  std::atomic<int> hits{0};
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink", [&](Envelope&&) { ++hits; },
      ExecutionMode::kServiced);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> senders;
  std::vector<EndpointId> srcs;
  srcs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    srcs.push_back(
        rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver));
  }
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(rt.post(this->Msg(srcs[t], sink, "x")).ok());
      }
    });
  }
  for (auto& t : senders) t.join();
  const EndpointId waiter =
      rt.create_endpoint(this->h1_, "waiter", nullptr, ExecutionMode::kDriver);
  EXPECT_TRUE(rt.wait(
      waiter, [&] { return hits.load() == kThreads * kPerThread; },
      5'000'000));
  EXPECT_EQ(rt.endpoint_stats(sink).received,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TYPED_TEST(RuntimeContractTest, StatsAggregateByLabel) {
  auto& rt = this->rt_;
  std::atomic<int> hits{0};
  const EndpointId a = rt.create_endpoint(
      this->h1_, "worker", [&](Envelope&&) { ++hits; },
      ExecutionMode::kServiced);
  const EndpointId b = rt.create_endpoint(
      this->h2_, "worker", [&](Envelope&&) { ++hits; },
      ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  ASSERT_TRUE(rt.post(this->Msg(src, a, "1")).ok());
  ASSERT_TRUE(rt.post(this->Msg(src, b, "2")).ok());
  ASSERT_TRUE(rt.post(this->Msg(src, b, "3")).ok());
  rt.wait(src, [&] { return hits.load() == 3; }, 2'000'000);

  EXPECT_EQ(rt.received_by_label().at("worker"), 3u);
  EXPECT_EQ(rt.max_received_with_label("worker"), 2u);
}

TYPED_TEST(RuntimeContractTest, CleanShutdownWithBusyEndpoints) {
  // Destroying the runtime with serviced endpoints still alive must stop
  // them without deadlock.
  auto rt = std::make_unique<TypeParam>();
  auto j = rt->topology().add_jurisdiction("j");
  auto h = rt->topology().add_host("h", {j});
  for (int i = 0; i < 16; ++i) {
    rt->create_endpoint(h, "worker", [](Envelope&&) {},
                        ExecutionMode::kServiced);
  }
  rt.reset();  // must not hang
  SUCCEED();
}

TYPED_TEST(RuntimeContractTest,
           EndpointClosingItselfFromHandlerDoesNotDeadlock) {
  auto& rt = this->rt_;
  std::atomic<bool> closed{false};
  EndpointId self{};
  self = rt.create_endpoint(
      this->h1_, "ephemeral",
      [&](Envelope&&) {
        rt.close_endpoint(self);
        closed = true;
      },
      ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  ASSERT_TRUE(rt.post(this->Msg(src, self, "die")).ok());
  rt.wait(src, [&] { return closed.load(); }, 2'000'000);
  EXPECT_TRUE(closed.load());
  EXPECT_FALSE(rt.endpoint_alive(self));
}

TYPED_TEST(RuntimeContractTest, NowAdvancesMonotonically) {
  const SimTime a = this->rt_.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const SimTime b = this->rt_.now();
  EXPECT_GT(b, a);
}

// A frame a peer writes is a data frame or nothing: bounces are made
// locally (the sim, ProcessRuntime's reaper), so a peer that can connect
// must not be able to fail another endpoint's pending call by forging one.
// The reactor closes a stream on any other kind byte, as it does on an
// oversized length.
TYPED_TEST(RuntimeContractTest, ForgedBounceFramesAreNotDelivered) {
  auto& rt = this->rt_;
  std::atomic<bool> release{false};
  Messenger server(rt, this->h2_, "server", ExecutionMode::kServiced,
                   [&](ServerContext&, Reader&) -> Result<Buffer> {
                     const auto deadline = std::chrono::steady_clock::now() +
                                           std::chrono::seconds(5);
                     while (!release.load() &&
                            std::chrono::steady_clock::now() < deadline) {
                       std::this_thread::sleep_for(std::chrono::milliseconds(1));
                     }
                     return Buffer::FromString("real");
                   });
  Messenger client(rt, this->h1_, "client", ExecutionMode::kDriver, nullptr);
  Future<ReplyMsg> pending = client.invoke(server.endpoint(), "Slow",
                                           Buffer{}, EnvTriple::System());

  // Each forgery names the pending call: request prefix, call id 1 (the
  // client's first), as a real bounce would.
  Envelope forged{server.endpoint(), client.endpoint(), DeliveryKind::kData,
                  Buffer{}};
  Writer w(forged.payload);
  w.u8(1);
  w.u64(1);
  for (const std::uint8_t kind : {1, 2, 0xFF}) {
    const int fd = RawDial(rt, client.endpoint());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, forged, kind));
    EXPECT_TRUE(ClosedByPeer(fd)) << "kind byte " << int{kind};
    ::close(fd);
  }
  EXPECT_EQ(rt.endpoint_stats(client.endpoint()).received, 0u);

  release.store(true);
  Result<Buffer> reply = client.await(std::move(pending), 5'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(*reply, Buffer::FromString("real"));

  // A data frame on a fresh connection is still delivered.
  const int fd = RawDial(rt, client.endpoint());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteFrame(
      fd, Envelope{server.endpoint(), client.endpoint(), DeliveryKind::kData,
                   Buffer{}},
      static_cast<std::uint8_t>(DeliveryKind::kData)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.endpoint_stats(client.endpoint()).received < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(client.endpoint()).received, 2u);
  ::close(fd);
}

// Endpoints are mailboxes on one reactor and a fixed pool: 64 serviced
// endpoints that have each received a frame cost no more threads than one.
TYPED_TEST(RuntimeContractTest, ServicedEndpointsAddNoThreads) {
  auto& rt = this->rt_;
  std::atomic<int> hits{0};
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  auto serve_one = [&] {
    const EndpointId sink = rt.create_endpoint(
        this->h2_, "sink", [&](Envelope&&) { ++hits; },
        ExecutionMode::kServiced);
    const int want = hits.load() + 1;
    ASSERT_TRUE(rt.post(this->Msg(src, sink, "x")).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (hits.load() < want && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(hits.load(), want);
  };
  serve_one();
  const int threads_at_one = ProcessThreads();
  for (int i = 1; i < 64; ++i) serve_one();
  EXPECT_EQ(hits.load(), 64);
  EXPECT_EQ(ProcessThreads(), threads_at_one);
}

}  // namespace
}  // namespace legion::rt
