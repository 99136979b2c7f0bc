// The rt::Runtime contract every real-clock kernel must keep: serviced
// endpoints run off the caller's thread, driver endpoints only under their
// owner's wait(), closed endpoints fail fast as stale bindings, concurrent
// senders all deliver, per-label stats aggregate, teardown with live
// endpoints does not hang, an endpoint may close itself from its own
// handler, and now() advances. Typed over both real-clock runtimes.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "rt/epoll_runtime.hpp"
#include "rt/process_runtime.hpp"

namespace legion::rt {
namespace {

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

}  // namespace
}  // namespace legion::rt
