// The M:N event-driven runtime: per-host shared listeners, a fixed
// work-stealing worker pool with blocked-worker compensation, and frames
// demultiplexed by the reactor — a constant number of threads regardless
// of endpoint count.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"
#include "sim/sample_objects.hpp"

namespace legion::rt {
namespace {

class EpollRuntimeTest : public ::testing::Test {
 protected:
  void MakeTopology(Runtime& rt) {
    auto j = rt.topology().add_jurisdiction("j");
    h1_ = rt.topology().add_host("h1", {j}, 1e9);
    h2_ = rt.topology().add_host("h2", {j}, 1e9);
  }

  HostId h1_, h2_;
};

// Endpoints do not own sockets: they share their host's listener. This is
// what makes a million resident objects possible (ephemeral ports top out
// around 28k).
TEST_F(EpollRuntimeTest, EndpointsShareTheirHostListener) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId a = rt.create_endpoint(h1_, "a", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  const EndpointId b = rt.create_endpoint(h1_, "b", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  const EndpointId c = rt.create_endpoint(h2_, "c", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  EXPECT_NE(rt.port_of(a), 0);
  EXPECT_EQ(rt.port_of(a), rt.port_of(b));
  EXPECT_NE(rt.port_of(a), rt.port_of(c));
}

TEST_F(EpollRuntimeTest, MessengerRoundTripOverEpoll) {
  EpollRuntime rt;
  MakeTopology(rt);
  Messenger server(rt, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext& ctx, Reader& args) -> Result<Buffer> {
                     return Buffer::FromString(ctx.call.method + ":" +
                                               args.str());
                   });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.str("over-epoll");
  auto result = client.call(server.endpoint(), "Echo", std::move(args),
                            EnvTriple::System(), 5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "Echo:over-epoll");
}

// A worker whose handler blocks in a nested call must not wedge the pool:
// with a single worker, "outer calls inner" only completes because the pool
// notices the blocked worker and spawns a spare to service inner.
TEST_F(EpollRuntimeTest, NestedCallsCompensateBlockedWorkers) {
  EpollOptions options;
  options.workers = 1;
  EpollRuntime rt(options);
  MakeTopology(rt);
  Messenger inner(rt, h2_, "inner", ExecutionMode::kServiced,
                  [](ServerContext&, Reader&) -> Result<Buffer> {
                    return Buffer::FromString("pong");
                  });
  Messenger outer(rt, h2_, "outer", ExecutionMode::kServiced,
                  [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                    LEGION_ASSIGN_OR_RETURN(
                        Buffer reply,
                        ctx.messenger.call(inner.endpoint(), "Ping", Buffer{},
                                           ctx.call.env, 5'000'000));
                    return Buffer::FromString("outer+" + reply.as_string());
                  });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(outer.endpoint(), "Go", Buffer{},
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "outer+pong");
  EXPECT_GE(rt.metrics().counter("rt.epoll.spare_workers").value(), 1u);
}

// Exercises the reactor's incremental frame parser: payloads far larger
// than any single nonblocking read arrive intact.
TEST_F(EpollRuntimeTest, LargePayloadSurvivesFraming) {
  EpollRuntime rt;
  MakeTopology(rt);
  Buffer blob;
  for (int i = 0; i < 100'000; ++i) {
    const auto byte = static_cast<std::uint8_t>(i * 31);
    blob.append(&byte, 1);
  }
  Messenger server(rt, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader& args) -> Result<Buffer> {
                     return args.buffer();
                   });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.buffer(blob);
  auto result = client.call(server.endpoint(), "Blob", std::move(args),
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(*result, blob);
}

TEST_F(EpollRuntimeTest, ClosedEndpointIsStaleBinding) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId dead = rt.create_endpoint(h2_, "dead", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  rt.close_endpoint(dead);
  EXPECT_EQ(
      rt.post(Envelope{src, dead, DeliveryKind::kData, Buffer{}}).code(),
      StatusCode::kStaleBinding);
}

// The M:N invariant itself: ten thousand resident serviced endpoints, and
// the runtime's thread count stays workers + reactor. (Thread-per-object
// would need ten thousand threads.)
TEST_F(EpollRuntimeTest, ThousandsOfIdleEndpointsCostNoThreads) {
  EpollOptions options;
  options.workers = 2;
  EpollRuntime rt(options);
  MakeTopology(rt);

  constexpr int kEndpoints = 10'000;
  std::vector<EndpointId> eps;
  eps.reserve(kEndpoints);
  for (int i = 0; i < kEndpoints; ++i) {
    eps.push_back(rt.create_endpoint(h2_, "resident", [](Envelope&&) {},
                                     ExecutionMode::kServiced));
    ASSERT_TRUE(eps.back().valid());
  }
  EXPECT_EQ(rt.runtime_threads(), 3u);  // 2 workers + 1 reactor

  // The population is live, not decorative: any member delivers.
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  const EndpointId probe = eps[kEndpoints / 2];
  ASSERT_TRUE(
      rt.post(Envelope{src, probe, DeliveryKind::kData, Buffer{}}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(probe).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(probe).received, 1u);
  EXPECT_EQ(rt.runtime_threads(), 3u);  // plain delivery never blocks
}

// The fault plan is consulted on post: recovery and partition experiments
// run over real sockets.
TEST_F(EpollRuntimeTest, FaultPlanDropsPostsOverRealSockets) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  rt.faults().take_host_down(h2_);
  for (int i = 0; i < 5; ++i) {
    // Dropped in flight, not bounced: the sender cannot tell.
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
  }
  EXPECT_EQ(rt.stats().dropped, 5u);
  EXPECT_EQ(rt.endpoint_stats(sink).received, 0u);

  rt.faults().bring_host_up(h2_);
  ASSERT_TRUE(
      rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(sink).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(sink).received, 1u);
}

TEST_F(EpollRuntimeTest, ListenBacklogOptionIsPlumbed) {
  EpollOptions options;
  options.tcp.listen_backlog = 8;
  EpollRuntime rt(options);
  EXPECT_EQ(rt.options().listen_backlog, 8);
}

// The headline: the full Legion core bootstrapped over the M:N runtime.
TEST_F(EpollRuntimeTest, WholeLegionSystemBootsOverEpoll) {
  EpollRuntime rt;
  MakeTopology(rt);
  core::LegionSystem system(rt, core::SystemConfig{});
  ASSERT_TRUE(sim::RegisterSampleObjects(system.registry()).ok());
  const Status st = system.bootstrap();
  ASSERT_TRUE(st.ok()) << st.to_string();

  auto client = system.make_client(h1_);
  core::wire::DeriveRequest derive;
  derive.name = "Worker";
  derive.instance_impl = std::string(sim::WorkerImpl::kName);
  auto cls = client->derive(core::LegionObjectLoid(), derive);
  ASSERT_TRUE(cls.ok()) << cls.status().to_string();

  auto object = client->create(cls->loid, sim::WorkerInit(0, 0));
  ASSERT_TRUE(object.ok()) << object.status().to_string();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->ref(object->loid).call("Increment", Buffer{}).ok());
  }
  auto raw = client->ref(object->loid).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  Reader r(*raw);
  EXPECT_EQ(r.i64(), 3);
}

}  // namespace
}  // namespace legion::rt
