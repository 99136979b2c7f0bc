// The full object model under real concurrency: bootstrap and workloads on
// EpollRuntime (every active object an actor mailbox on the worker pool).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/test_support.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

using testing::CounterImpl;
using testing::CounterInit;
using testing::ReadI64;

class ThreadSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<rt::EpollRuntime>();
    j1_ = runtime_->topology().add_jurisdiction("j1");
    j2_ = runtime_->topology().add_jurisdiction("j2");
    h1_ = runtime_->topology().add_host("h1", {j1_}, 16.0);
    h2_ = runtime_->topology().add_host("h2", {j1_}, 16.0);
    h3_ = runtime_->topology().add_host("h3", {j2_}, 16.0);

    system_ = std::make_unique<LegionSystem>(*runtime_, SystemConfig{});
    ASSERT_TRUE(system_->registry()
                    .add(std::string(CounterImpl::kName),
                         [] { return std::make_unique<CounterImpl>(); })
                    .ok());
    const Status st = system_->bootstrap();
    ASSERT_TRUE(st.ok()) << st.to_string();

    client_ = system_->make_client(h1_);
    wire::DeriveRequest req;
    req.name = "Counter";
    req.instance_impl = std::string(CounterImpl::kName);
    auto reply = client_->derive(LegionObjectLoid(), req);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    counter_class_ = reply->loid;
  }

  void TearDown() override {
    client_.reset();
    system_.reset();
    runtime_.reset();
  }

  std::unique_ptr<rt::EpollRuntime> runtime_;
  std::unique_ptr<LegionSystem> system_;
  std::unique_ptr<Client> client_;
  JurisdictionId j1_, j2_;
  HostId h1_, h2_, h3_;
  Loid counter_class_;
};

TEST_F(ThreadSystemTest, BootstrapAndPing) {
  EXPECT_TRUE(
      client_->ref(LegionClassLoid()).call(methods::kPing, Buffer{}).ok());
  EXPECT_TRUE(client_->ref(system_->magistrate_of(j2_))
                  .call(methods::kPing, Buffer{})
                  .ok());
}

TEST_F(ThreadSystemTest, CreateAndInvoke) {
  auto reply = client_->create(counter_class_, CounterInit(100));
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  auto raw = client_->ref(reply->loid).call("Increment", Buffer{});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(ReadI64(*raw), 101);
}

TEST_F(ThreadSystemTest, ConcurrentClientsHammerOneObject) {
  auto reply = client_->create(counter_class_, CounterInit(0));
  ASSERT_TRUE(reply.ok());
  const Loid counter = reply->loid;

  constexpr int kThreads = 6;
  constexpr int kPerThread = 50;
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(
        system_->make_client(t % 2 == 0 ? h2_ : h3_, "hammer"));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (!clients[t]->ref(counter).call("Increment", Buffer{}).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto raw = client_->ref(counter).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok());
  // Every increment serialized through the object's single mailbox thread.
  EXPECT_EQ(ReadI64(*raw), kThreads * kPerThread);
}

TEST_F(ThreadSystemTest, ConcurrentCreationsYieldUniqueLoids) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(system_->make_client(h2_, "creator"));
  }
  std::vector<std::vector<Loid>> created(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto reply = clients[t]->create(counter_class_, CounterInit(0));
        if (reply.ok()) created[t].push_back(reply->loid);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::set<std::uint64_t> seqs;
  int total = 0;
  for (const auto& batch : created) {
    for (const Loid& loid : batch) {
      EXPECT_EQ(loid.class_id(), counter_class_.class_id());
      seqs.insert(loid.class_specific());
      ++total;
    }
  }
  EXPECT_EQ(total, kThreads * kPerThread);
  // The class object serializes Create() calls, so LOIDs never collide.
  EXPECT_EQ(seqs.size(), static_cast<std::size_t>(total));
}

TEST_F(ThreadSystemTest, DeactivateReactivateUnderThreads) {
  auto reply = client_->create(counter_class_, CounterInit(5),
                               {system_->magistrate_of(j1_)});
  ASSERT_TRUE(reply.ok());
  wire::LoidRequest req{reply->loid};
  ASSERT_TRUE(client_->ref(system_->magistrate_of(j1_))
                  .call(methods::kDeactivate, req.to_buffer())
                  .ok());
  auto raw = client_->ref(reply->loid).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  EXPECT_EQ(ReadI64(*raw), 5);
}

TEST_F(ThreadSystemTest, CrossJurisdictionMigrationUnderThreads) {
  auto reply = client_->create(counter_class_, CounterInit(9),
                               {system_->magistrate_of(j1_)});
  ASSERT_TRUE(reply.ok());
  wire::TransferRequest move{reply->loid, system_->magistrate_of(j2_)};
  ASSERT_TRUE(client_->ref(system_->magistrate_of(j1_))
                  .call(methods::kMove, move.to_buffer())
                  .ok());
  auto raw = client_->ref(reply->loid).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  EXPECT_EQ(ReadI64(*raw), 9);
}

}  // namespace
}  // namespace legion::core
