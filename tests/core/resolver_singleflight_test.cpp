// Miss-stampede control on the Section 4.1.2 binding path: concurrent
// resolve() misses for one LOID share a single Binding-Agent consult
// (singleflight), and a NotFound verdict is negative-cached briefly so a
// storm of lookups for a dead LOID does not re-consult per caller. Run
// under TSan in CI. Typed over the runtimes whose Binding Agent runs
// concurrently with its callers: on EpollRuntime it is an actor mailbox on
// the M:N worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/wire.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

template <typename RuntimeT>
class ResolverSingleflightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = runtime_->topology().add_jurisdiction("j");
    host_ = runtime_->topology().add_host("h", {j});

    target_ = std::make_unique<rt::Messenger>(
        *runtime_, host_, "echo", rt::ExecutionMode::kServiced,
        [](rt::ServerContext&, Reader&) -> Result<Buffer> {
          return Buffer::FromString("A");
        });

    // A stub Binding Agent that is deliberately SLOW: the 100 ms consult
    // holds the flight open long enough that every concurrently-started
    // resolver thread attaches to it rather than racing past.
    ba_ = std::make_unique<rt::Messenger>(
        *runtime_, host_, "stub-ba", rt::ExecutionMode::kServiced,
        [this](rt::ServerContext& ctx, Reader& args) -> Result<Buffer> {
          if (ctx.call.method != std::string(methods::kGetBinding)) {
            return UnimplementedError("stub only binds");
          }
          auto req = wire::GetBindingRequest::Deserialize(args);
          if (!args.ok()) return InvalidArgumentError("bad args");
          consults_served_.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (req.loid == Loid{60, 1}) {
            return wire::BindingReply{
                Binding{req.loid,
                        ObjectAddress{
                            ObjectAddressElement::Sim(target_->endpoint())},
                        kSimTimeNever}}
                .to_buffer();
          }
          return NotFoundError("unknown loid");
        });

    SystemHandles handles;
    handles.default_binding_agent =
        Binding{Loid{kLegionBindingAgentClassId, 1},
                ObjectAddress{ObjectAddressElement::Sim(ba_->endpoint())},
                kSimTimeNever};
    client_ = std::make_unique<rt::Messenger>(
        *runtime_, host_, "client", rt::ExecutionMode::kDriver, nullptr);
    resolver_ = std::make_unique<Resolver>(*client_, handles, 16, Rng(7));
  }

  void TearDown() override {
    resolver_.reset();
    client_.reset();
    ba_.reset();
    target_.reset();
    runtime_.reset();
  }

  std::unique_ptr<RuntimeT> runtime_ = std::make_unique<RuntimeT>();
  HostId host_;
  std::unique_ptr<rt::Messenger> target_;
  std::unique_ptr<rt::Messenger> ba_;
  std::unique_ptr<rt::Messenger> client_;
  std::unique_ptr<Resolver> resolver_;
  std::atomic<std::uint64_t> consults_served_{0};
};

using SingleflightRuntimes = ::testing::Types<rt::EpollRuntime>;
TYPED_TEST_SUITE(ResolverSingleflightTest, SingleflightRuntimes);

TYPED_TEST(ResolverSingleflightTest, ColdMissStampedeConsultsOnce) {
  constexpr int kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      auto binding = this->resolver_->resolve(Loid{60, 1}, 5'000'000);
      EXPECT_TRUE(binding.ok()) << binding.status().to_string();
      if (binding.ok() && binding->valid()) ok.fetch_add(1);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(ok.load(), kThreads);
  // The hard guarantee: one cold LOID, N concurrent resolvers, exactly one
  // Binding-Agent consult — observed at both ends of the wire.
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 1u);
  EXPECT_EQ(this->consults_served_.load(), 1u);
  // Everyone else either rode the flight or (arriving after it landed) hit
  // the now-warm cache.
  EXPECT_GE(this->resolver_->stats().coalesced, 1u);
  EXPECT_EQ(this->resolver_->stats().coalesced +
                this->resolver_->cache().stats().hits,
            static_cast<std::uint64_t>(kThreads - 1));
}

TYPED_TEST(ResolverSingleflightTest, NotFoundStormIsAbsorbedByNegativeCache) {
  // Four concurrent resolvers for a dead LOID: one consult, shared verdict.
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      auto binding = this->resolver_->resolve(Loid{60, 9}, 5'000'000);
      EXPECT_EQ(binding.status().code(), StatusCode::kNotFound);
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 1u);

  // The storm after the verdict: short-TTL negative entries answer without
  // consulting again.
  for (int i = 0; i < 10; ++i) {
    auto binding = this->resolver_->resolve(Loid{60, 9}, 5'000'000);
    EXPECT_EQ(binding.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 1u);
  EXPECT_GE(this->resolver_->stats().negative_hits, 10u);

  // Real-clock runtimes use wall time: once the TTL lapses the verdict is
  // re-checked, so a recreated object becomes reachable again.
  std::this_thread::sleep_for(
      std::chrono::microseconds(Resolver::kNegativeTtlUs + 100'000));
  auto binding = this->resolver_->resolve(Loid{60, 9}, 5'000'000);
  EXPECT_EQ(binding.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 2u);
}

TYPED_TEST(ResolverSingleflightTest, RecreatedLoidSupersedesNegativeEntry) {
  ASSERT_EQ(this->resolver_->resolve(Loid{60, 9}, 5'000'000).status().code(),
            StatusCode::kNotFound);
  ASSERT_EQ(this->resolver_->resolve(Loid{60, 9}, 5'000'000).status().code(),
            StatusCode::kNotFound);  // negative-cached
  // The object comes back (an AddBinding analogue): the positive entry must
  // win immediately, without waiting out the TTL.
  this->resolver_->add_binding(Binding{
      Loid{60, 9},
      ObjectAddress{ObjectAddressElement::Sim(this->target_->endpoint())},
      kSimTimeNever});
  auto binding = this->resolver_->resolve(Loid{60, 9}, 5'000'000);
  ASSERT_TRUE(binding.ok()) << binding.status().to_string();
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 1u);
}

TYPED_TEST(ResolverSingleflightTest, FollowerTimesOutWithoutKillingTheFlight) {
  Result<Binding> leader_result = InternalError("unset");
  std::thread leader([&] {
    leader_result = this->resolver_->resolve(Loid{60, 1}, 5'000'000);
  });
  // Wait until the leader's consult is demonstrably in flight (the stub BA
  // has started serving it), then join it with a timeout far shorter than
  // the remaining ~100 ms of consult.
  while (this->consults_served_.load() == 0) std::this_thread::yield();
  auto follower = this->resolver_->resolve(Loid{60, 1}, 20'000);
  leader.join();

  ASSERT_TRUE(leader_result.ok()) << leader_result.status().to_string();
  if (!follower.ok()) {
    // The expected interleaving: the follower attached and gave up early;
    // the leader's consult was unaffected.
    EXPECT_EQ(follower.status().code(), StatusCode::kTimeout);
    EXPECT_EQ(this->resolver_->stats().coalesced, 1u);
  }
  EXPECT_EQ(this->resolver_->stats().binding_agent_consults, 1u);
}

}  // namespace
}  // namespace legion::core
