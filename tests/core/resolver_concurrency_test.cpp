// Concurrent call()s through ONE Resolver (Section 4.1.4 retry loop).
//
// The retry state — "which binding went stale for THIS call" — used to live
// in a Resolver member, so two concurrent calls that both hit the
// stale-binding path could refresh each other's binding and end up invoking
// the wrong object. The state is now local to each call; these tests drive
// two threads through the stale->refresh->retry path simultaneously and
// assert each call lands on its own target. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "core/comm.hpp"
#include "core/wire.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

class ResolverConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = runtime_.topology().add_jurisdiction("j");
    host_ = runtime_.topology().add_host("h", {j});

    target_a_ = MakeEcho("A");
    target_b_ = MakeEcho("B");

    // A stub Binding Agent answering both the by-LOID and the refresh forms
    // of GetBinding from one (read-only after setup) table.
    ba_ = std::make_unique<rt::Messenger>(
        runtime_, host_, "stub-ba", rt::ExecutionMode::kServiced,
        [this](rt::ServerContext& ctx, Reader& args) -> Result<Buffer> {
          if (ctx.call.method != std::string(methods::kGetBinding)) {
            return UnimplementedError("stub only binds");
          }
          auto req = wire::GetBindingRequest::Deserialize(args);
          if (!args.ok()) return InvalidArgumentError("bad args");
          if (req.loid == Loid{60, 1}) {
            return wire::BindingReply{LiveBinding(req.loid, *target_a_)}
                .to_buffer();
          }
          if (req.loid == Loid{60, 2}) {
            return wire::BindingReply{LiveBinding(req.loid, *target_b_)}
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
        runtime_, host_, "client", rt::ExecutionMode::kDriver, nullptr);
    resolver_ = std::make_unique<Resolver>(*client_, handles, 16, Rng(5));
  }

  std::unique_ptr<rt::Messenger> MakeEcho(std::string payload) {
    return std::make_unique<rt::Messenger>(
        runtime_, host_, "echo", rt::ExecutionMode::kServiced,
        [payload](rt::ServerContext&, Reader&) -> Result<Buffer> {
          return Buffer::FromString(payload);
        });
  }

  static Binding LiveBinding(const Loid& loid, const rt::Messenger& target) {
    return Binding{loid,
                   ObjectAddress{ObjectAddressElement::Sim(target.endpoint())},
                   kSimTimeNever};
  }

  // A binding whose endpoint was never created: posts bounce immediately
  // with kStaleBinding, driving the refresh path without waiting.
  Binding StaleBinding(const Loid& loid, std::uint64_t fake_endpoint) {
    return Binding{loid,
                   ObjectAddress{ObjectAddressElement::Sim(
                       EndpointId{fake_endpoint})},
                   kSimTimeNever};
  }

  rt::EpollRuntime runtime_;
  HostId host_;
  std::unique_ptr<rt::Messenger> target_a_;
  std::unique_ptr<rt::Messenger> target_b_;
  std::unique_ptr<rt::Messenger> ba_;
  std::unique_ptr<rt::Messenger> client_;
  std::unique_ptr<Resolver> resolver_;
};

TEST_F(ResolverConcurrencyTest, ConcurrentStaleRetriesKeepTheirOwnBinding) {
  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    // Both LOIDs start with stale cached bindings, so both calls take the
    // stale -> refresh -> retry path at the same time.
    resolver_->add_binding(StaleBinding(Loid{60, 1}, 900'001));
    resolver_->add_binding(StaleBinding(Loid{60, 2}, 900'002));

    std::atomic<bool> go{false};
    Result<Buffer> reply_a = InternalError("unset");
    Result<Buffer> reply_b = InternalError("unset");
    std::thread caller_a([&] {
      while (!go.load()) std::this_thread::yield();
      reply_a = resolver_->call(Loid{60, 1}, "M", Buffer{},
                                rt::EnvTriple::System(), 2'000'000);
    });
    std::thread caller_b([&] {
      while (!go.load()) std::this_thread::yield();
      reply_b = resolver_->call(Loid{60, 2}, "M", Buffer{},
                                rt::EnvTriple::System(), 2'000'000);
    });
    go.store(true);
    caller_a.join();
    caller_b.join();

    // With shared retry state one call refreshes the OTHER call's stale
    // binding and lands on the wrong object: reply "B" for LOID A.
    ASSERT_TRUE(reply_a.ok()) << "round " << round << ": "
                              << reply_a.status().to_string();
    ASSERT_TRUE(reply_b.ok()) << "round " << round << ": "
                              << reply_b.status().to_string();
    EXPECT_EQ(reply_a->as_string(), "A") << "round " << round;
    EXPECT_EQ(reply_b->as_string(), "B") << "round " << round;

    resolver_->invalidate(Loid{60, 1});
    resolver_->invalidate(Loid{60, 2});
  }
  EXPECT_GE(resolver_->stats().stale_retries, 2u * kRounds);
}

TEST_F(ResolverConcurrencyTest, StaleRetryStillConvergesSingleThreaded) {
  resolver_->add_binding(StaleBinding(Loid{60, 1}, 900'003));
  auto reply = resolver_->call(Loid{60, 1}, "M", Buffer{},
                               rt::EnvTriple::System(), 2'000'000);
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  EXPECT_EQ(reply->as_string(), "A");
  EXPECT_EQ(resolver_->stats().stale_retries, 1u);
  EXPECT_EQ(resolver_->stats().refreshes, 1u);
}

}  // namespace
}  // namespace legion::core
