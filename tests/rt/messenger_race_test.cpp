// Messenger::close() racing in-flight invoke()s: every pending future must
// resolve exactly once — with the reply if it won the race, with kAborted if
// close() got there first — and never hang or double-fulfil (Promise::set
// asserts on a second fulfilment). Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"

namespace legion::rt {
namespace {

class MessengerRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = runtime_.topology().add_jurisdiction("j");
    host_ = runtime_.topology().add_host("h", {j});
  }

  EpollRuntime runtime_;
  HostId host_;
};

TEST_F(MessengerRaceTest, CloseFailsInFlightInvokesExactlyOnce) {
  Messenger server(runtime_, host_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader&) -> Result<Buffer> {
                     std::this_thread::sleep_for(std::chrono::microseconds(200));
                     return Buffer::FromString("ok");
                   });

  // Sweep the close point across the invoke stream: early rounds close
  // almost immediately (most invokes lose), later rounds close late (most
  // replies win). Every future must still resolve exactly once.
  for (int round = 0; round < 16; ++round) {
    auto client = std::make_unique<Messenger>(
        runtime_, host_, "client", ExecutionMode::kDriver, nullptr);
    std::vector<Future<ReplyMsg>> futures;
    std::mutex futures_mutex;
    std::atomic<bool> go{false};

    std::thread invoker([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 64; ++i) {
        auto f = client->invoke(server.endpoint(), "M", Buffer{},
                                EnvTriple::System());
        std::lock_guard lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });

    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    client->close();
    invoker.join();

    // close() resolves everything that was pending synchronously; invokes
    // issued after close resolve at return. Replies that raced in earlier
    // resolved on delivery. Nothing may still be pending.
    std::lock_guard lock(futures_mutex);
    EXPECT_EQ(futures.size(), 64u);
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      ASSERT_TRUE(f.ready());
      ReplyMsg msg = f.take();
      if (!msg.status.ok()) {
        const StatusCode code = msg.status.code();
        EXPECT_TRUE(code == StatusCode::kAborted ||
                    code == StatusCode::kStaleBinding ||
                    code == StatusCode::kInternal)
            << msg.status.to_string();
      }
    }
  }
}

TEST_F(MessengerRaceTest, InvokeAfterCloseResolvesAbortedImmediately) {
  Messenger server(runtime_, host_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader&) -> Result<Buffer> {
                     return Buffer{};
                   });
  auto client = std::make_unique<Messenger>(runtime_, host_, "client",
                                            ExecutionMode::kDriver, nullptr);
  client->close();
  auto f = client->invoke(server.endpoint(), "M", Buffer{},
                          EnvTriple::System());
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.take().status.code(), StatusCode::kAborted);
}

TEST_F(MessengerRaceTest, ConcurrentClosersCloseOnce) {
  for (int round = 0; round < 8; ++round) {
    auto client = std::make_unique<Messenger>(
        runtime_, host_, "client", ExecutionMode::kDriver, nullptr);
    std::atomic<bool> go{false};
    std::vector<std::thread> closers;
    closers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        client->close();
      });
    }
    go.store(true);
    for (auto& t : closers) t.join();
  }
}

}  // namespace
}  // namespace legion::rt
