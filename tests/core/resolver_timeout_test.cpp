// Regression tests for the shared fan-out deadline (Section 4.3 replicated
// addresses): a 3-replica address with dead replicas must cost at most ONE
// caller timeout, and a live replica's reply must win immediately no matter
// where it sits in the element order. The old code awaited each replica
// future sequentially with the full timeout — 3 replicas, 2 dead, meant 2
// timeouts of dead waiting before the live reply was even looked at.
#include <gtest/gtest.h>

#include <chrono>

#include "core/comm.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t MsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               t0)
      .count();
}

class ResolverTimeoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = runtime_.topology().add_jurisdiction("j");
    host_ = runtime_.topology().add_host("h", {j});
    client_ = std::make_unique<rt::Messenger>(
        runtime_, host_, "client", rt::ExecutionMode::kDriver, nullptr);
    resolver_ =
        std::make_unique<Resolver>(*client_, SystemHandles{}, 16, Rng(3));
  }

  // A "dead" replica: an endpoint that accepts requests and never answers
  // (driver mode with nobody pumping — the silent-failure case, unlike a
  // closed endpoint whose bounce fails fast).
  EndpointId MakeSilentReplica() {
    return runtime_.create_endpoint(host_, "silent", [](rt::Envelope&&) {},
                                    rt::ExecutionMode::kDriver);
  }

  rt::EpollRuntime runtime_;
  HostId host_;
  std::unique_ptr<rt::Messenger> client_;
  std::unique_ptr<Resolver> resolver_;
};

TEST_F(ResolverTimeoutTest, LiveReplicaWinsWithoutWaitingOutDeadOnes) {
  // Element order puts BOTH dead replicas ahead of the live one, so the old
  // sequential-await code would burn 2 x timeout before looking at the live
  // reply. The fix awaits the whole fan-out at once.
  const EndpointId dead1 = MakeSilentReplica();
  const EndpointId dead2 = MakeSilentReplica();
  rt::Messenger live(runtime_, host_, "live", rt::ExecutionMode::kServiced,
                     [](rt::ServerContext&, Reader&) -> Result<Buffer> {
                       return Buffer::FromString("alive");
                     });

  Binding replicated{
      Loid{50, 1},
      ObjectAddress{{ObjectAddressElement::Sim(dead1),
                     ObjectAddressElement::Sim(dead2),
                     ObjectAddressElement::Sim(live.endpoint())},
                    AddressSemantic::kAll},
      kSimTimeNever};

  constexpr SimTime kTimeoutUs = 2'000'000;  // 2 s budget
  const auto t0 = Clock::now();
  auto reply = resolver_->call_binding(replicated, "M", Buffer{},
                                       rt::EnvTriple::System(), kTimeoutUs);
  const std::int64_t elapsed_ms = MsSince(t0);

  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->as_string(), "alive");
  // The reply is local loopback: milliseconds. Anything near a full timeout
  // (let alone two) means the fan-out waited on a dead replica first.
  EXPECT_LT(elapsed_ms, 1000) << "fan-out blocked behind dead replicas";
}

TEST_F(ResolverTimeoutTest, AllDeadReplicasCostOneSharedTimeoutNotThree) {
  const EndpointId dead1 = MakeSilentReplica();
  const EndpointId dead2 = MakeSilentReplica();
  const EndpointId dead3 = MakeSilentReplica();
  Binding replicated{Loid{50, 2},
                     ObjectAddress{{ObjectAddressElement::Sim(dead1),
                                    ObjectAddressElement::Sim(dead2),
                                    ObjectAddressElement::Sim(dead3)},
                                   AddressSemantic::kAll},
                     kSimTimeNever};

  constexpr SimTime kTimeoutUs = 400'000;  // 400 ms budget
  const auto t0 = Clock::now();
  auto reply = resolver_->call_binding(replicated, "M", Buffer{},
                                       rt::EnvTriple::System(), kTimeoutUs);
  const std::int64_t elapsed_ms = MsSince(t0);

  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  // One shared deadline: ~400 ms. The old per-future awaiting took ~1200 ms.
  EXPECT_GE(elapsed_ms, 350);
  EXPECT_LT(elapsed_ms, 1000) << "deadline was paid per replica, not shared";
}

TEST_F(ResolverTimeoutTest, SuccessStopsTheWaitEvenAfterEarlierFailures) {
  // First element bounces instantly (closed endpoint), second answers: the
  // failure must not consume the call's budget or mask the success.
  const EndpointId closed =
      runtime_.create_endpoint(host_, "gone", [](rt::Envelope&&) {},
                               rt::ExecutionMode::kDriver);
  runtime_.close_endpoint(closed);
  rt::Messenger live(runtime_, host_, "live", rt::ExecutionMode::kServiced,
                     [](rt::ServerContext&, Reader&) -> Result<Buffer> {
                       return Buffer::FromString("still-here");
                     });
  Binding mixed{Loid{50, 3},
                ObjectAddress{{ObjectAddressElement::Sim(closed),
                               ObjectAddressElement::Sim(live.endpoint())},
                              AddressSemantic::kAll},
                kSimTimeNever};

  const auto t0 = Clock::now();
  auto reply = resolver_->call_binding(mixed, "M", Buffer{},
                                       rt::EnvTriple::System(), 2'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->as_string(), "still-here");
  EXPECT_LT(MsSince(t0), 1000);
}

}  // namespace
}  // namespace legion::core
