#include "rt/messenger.hpp"

#include <gtest/gtest.h>

#include "rt/epoll_runtime.hpp"
#include "rt/sim_runtime.hpp"

namespace legion::rt {
namespace {

// An echo service: replies with "<method>(<args as string>)".
RequestDispatcher EchoDispatcher() {
  return [](ServerContext& ctx, Reader& args) -> Result<Buffer> {
    const std::string body = args.str();
    if (!args.ok()) return InvalidArgumentError("bad args");
    return Buffer::FromString(ctx.call.method + "(" + body + ")");
  };
}

Buffer StrArgs(std::string_view s) {
  Buffer b;
  Writer w(b);
  w.str(s);
  return b;
}

class MessengerSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = rt_.topology().add_jurisdiction("j");
    h1_ = rt_.topology().add_host("h1", {j});
    h2_ = rt_.topology().add_host("h2", {j});
  }

  SimRuntime rt_{7};
  HostId h1_, h2_;
};

TEST_F(MessengerSimTest, CallRoundTrips) {
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  auto result = client.call(server.endpoint(), "Ping", StrArgs("hi"),
                            EnvTriple::System(), Messenger::kDefaultTimeoutUs);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "Ping(hi)");
}

TEST_F(MessengerSimTest, InvokeIsNonBlocking) {
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  // Paper Section 2: "Method calls are non-blocking". Launch several calls
  // before awaiting any.
  std::vector<Future<ReplyMsg>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(client.invoke(server.endpoint(), "M",
                                    StrArgs(std::to_string(i)),
                                    EnvTriple::System()));
    EXPECT_FALSE(futures.back().ready());
  }
  for (int i = 0; i < 5; ++i) {
    auto r = client.await(std::move(futures[i]), Messenger::kDefaultTimeoutUs);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->as_string(), "M(" + std::to_string(i) + ")");
  }
}

TEST_F(MessengerSimTest, ServerStatusErrorsPropagate) {
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader&) -> Result<Buffer> {
                     return PermissionDeniedError("MayI said no");
                   });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  auto result = client.call(server.endpoint(), "Secret", Buffer{},
                            EnvTriple::System(), Messenger::kDefaultTimeoutUs);
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.status().message(), "MayI said no");
}

TEST_F(MessengerSimTest, NullDispatcherAnswersUnimplemented) {
  Messenger server(rt_, h2_, "pure-client", ExecutionMode::kServiced, nullptr);
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(server.endpoint(), "Anything", Buffer{},
                            EnvTriple::System(), Messenger::kDefaultTimeoutUs);
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(MessengerSimTest, CallToDeadEndpointReportsStaleBinding) {
  EndpointId dead;
  {
    Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                     EchoDispatcher());
    dead = server.endpoint();
  }
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(dead, "Ping", Buffer{}, EnvTriple::System(),
                            Messenger::kDefaultTimeoutUs);
  EXPECT_EQ(result.status().code(), StatusCode::kStaleBinding);
}

TEST_F(MessengerSimTest, InFlightRequestBouncesToStaleBinding) {
  auto server = std::make_unique<Messenger>(rt_, h2_, "server",
                                            ExecutionMode::kServiced,
                                            EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  auto future = client.invoke(server->endpoint(), "Ping", StrArgs("x"),
                              EnvTriple::System());
  server.reset();  // dies while the request is in flight
  auto result = client.await(std::move(future), Messenger::kDefaultTimeoutUs);
  EXPECT_EQ(result.status().code(), StatusCode::kStaleBinding);
}

TEST_F(MessengerSimTest, DroppedMessagesTimeOut) {
  rt_.faults().set_drop_probability(net::LatencyClass::kIntraJurisdiction, 1.0);
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(server.endpoint(), "Ping", Buffer{},
                            EnvTriple::System(), 50'000);
  // The drop empties the sim's event queue, so the messenger can *prove*
  // no reply is coming: Unavailable, not a mere deadline expiry.
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(MessengerSimTest, EnvTripleTravelsWithEveryCall) {
  EnvTriple seen;
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                     seen = ctx.call.env;
                     return Buffer{};
                   });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  EnvTriple env;
  env.responsible_agent = Loid{10, 1};
  env.security_agent = Loid{11, 2};
  env.calling_agent = Loid{12, 3};
  ASSERT_TRUE(client
                  .call(server.endpoint(), "M", Buffer{}, env,
                        Messenger::kDefaultTimeoutUs)
                  .ok());
  EXPECT_EQ(seen.responsible_agent, (Loid{10, 1}));
  EXPECT_EQ(seen.security_agent, (Loid{11, 2}));
  EXPECT_EQ(seen.calling_agent, (Loid{12, 3}));
}

TEST_F(MessengerSimTest, NestedCallsFromWithinHandler) {
  // A -> B, and B's handler calls C before replying: the chain class ->
  // magistrate -> host in the core model depends on this working.
  Messenger c(rt_, h2_, "c", ExecutionMode::kServiced, EchoDispatcher());
  Messenger b(rt_, h2_, "b", ExecutionMode::kServiced,
              [&](ServerContext& ctx, Reader& args) -> Result<Buffer> {
                LEGION_ASSIGN_OR_RETURN(
                    Buffer inner,
                    ctx.messenger.call(c.endpoint(), "Inner",
                                       StrArgs(args.str()), ctx.call.env,
                                       Messenger::kDefaultTimeoutUs));
                return Buffer::FromString("B[" + inner.as_string() + "]");
              });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);

  auto result = client.call(b.endpoint(), "Outer", StrArgs("x"),
                            EnvTriple::System(), Messenger::kDefaultTimeoutUs);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "B[Inner(x)]");
}

TEST_F(MessengerSimTest, ReentrantServiceWhileWaiting) {
  // While A waits for its own outbound call, it must keep serving inbound
  // requests ("methods may be accepted in any order"). B's handler calls
  // back into A before replying; without re-entrant service this deadlocks.
  Messenger* a_ptr = nullptr;
  Messenger b(rt_, h2_, "b", ExecutionMode::kServiced,
              [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                LEGION_ASSIGN_OR_RETURN(
                    Buffer echo,
                    ctx.messenger.call(a_ptr->endpoint(), "CallbackIntoA",
                                       Buffer{}, ctx.call.env,
                                       Messenger::kDefaultTimeoutUs));
                return Buffer::FromString("B-got-" + echo.as_string());
              });
  int a_served = 0;
  Messenger a(rt_, h1_, "a", ExecutionMode::kServiced,
              [&](ServerContext&, Reader&) -> Result<Buffer> {
                ++a_served;
                return Buffer::FromString("A-callback");
              });
  a_ptr = &a;

  auto result = a.call(b.endpoint(), "Cycle", Buffer{}, EnvTriple::System(),
                       Messenger::kDefaultTimeoutUs);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "B-got-A-callback");
  EXPECT_EQ(a_served, 1);
}

// The same behaviours must hold under real threads.
class MessengerThreadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = rt_.topology().add_jurisdiction("j");
    h1_ = rt_.topology().add_host("h1", {j});
    h2_ = rt_.topology().add_host("h2", {j});
  }

  EpollRuntime rt_;
  HostId h1_, h2_;
};

TEST_F(MessengerThreadTest, CallRoundTrips) {
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(server.endpoint(), "Ping", StrArgs("hi"),
                            EnvTriple::System(), 5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "Ping(hi)");
}

TEST_F(MessengerThreadTest, NestedCallsAcrossThreads) {
  Messenger c(rt_, h2_, "c", ExecutionMode::kServiced, EchoDispatcher());
  Messenger b(rt_, h2_, "b", ExecutionMode::kServiced,
              [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                LEGION_ASSIGN_OR_RETURN(
                    Buffer inner,
                    ctx.messenger.call(c.endpoint(), "Inner", StrArgs("y"),
                                       ctx.call.env, 5'000'000));
                return Buffer::FromString("B[" + inner.as_string() + "]");
              });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(b.endpoint(), "Outer", Buffer{},
                            EnvTriple::System(), 5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "B[Inner(y)]");
}

TEST_F(MessengerThreadTest, ReentrantCycleAcrossThreads) {
  Messenger* a_ptr = nullptr;
  Messenger b(rt_, h2_, "b", ExecutionMode::kServiced,
              [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                LEGION_ASSIGN_OR_RETURN(
                    Buffer echo, ctx.messenger.call(a_ptr->endpoint(), "CbA",
                                                    Buffer{}, ctx.call.env,
                                                    5'000'000));
                return Buffer::FromString("B-got-" + echo.as_string());
              });
  Messenger a(rt_, h1_, "a", ExecutionMode::kServiced,
              [&](ServerContext&, Reader&) -> Result<Buffer> {
                return Buffer::FromString("A-callback");
              });
  a_ptr = &a;
  auto result = a.call(b.endpoint(), "Cycle", Buffer{}, EnvTriple::System(),
                       5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "B-got-A-callback");
}

TEST_F(MessengerThreadTest, TimeoutOnSilentPeer) {
  rt_.faults().set_drop_probability(net::LatencyClass::kIntraJurisdiction, 1.0);
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   EchoDispatcher());
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(server.endpoint(), "Ping", Buffer{},
                            EnvTriple::System(), 30'000);
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

}  // namespace
}  // namespace legion::rt
