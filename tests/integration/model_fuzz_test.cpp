// Model-based randomized testing: drive the whole system with a random
// sequence of lifecycle operations and check it against a trivial oracle.
//
// The oracle tracks, per object: expected counter value and liveness. After
// every operation the system must agree — regardless of how the operation
// sequence interleaved creations, invocations, deactivations, migrations,
// copies, and deletions. Seeds are swept via TEST_P; each run is
// deterministic.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/test_support.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

using testing::CounterInit;
using testing::ReadI64;

struct ModelObject {
  std::int64_t count = 0;
  int jurisdiction = 0;  // which magistrate manages it (0 = uva, 1 = doe)
  bool alive = true;
};

enum class Kernel { kSim = 0, kEpoll = 1 };

class ModelFuzzTest
    : public ::testing::TestWithParam<std::tuple<Kernel, std::uint64_t>> {
 protected:
  static std::uint64_t Seed() { return std::get<1>(GetParam()); }

  void SetUp() override {
    if (std::get<0>(GetParam()) == Kernel::kSim) {
      runtime_ = std::make_unique<rt::SimRuntime>(Seed());
    } else {
      rt::EpollOptions options;
      options.seed = Seed();
      runtime_ = std::make_unique<rt::EpollRuntime>(options);
    }
    uva_ = runtime_->topology().add_jurisdiction("uva");
    doe_ = runtime_->topology().add_jurisdiction("doe");
    hosts_[0] = runtime_->topology().add_host("uva-1", {uva_}, 1e9);
    runtime_->topology().add_host("uva-2", {uva_}, 1e9);
    hosts_[1] = runtime_->topology().add_host("doe-1", {doe_}, 1e9);
    runtime_->topology().add_host("doe-2", {doe_}, 1e9);

    system_ = std::make_unique<LegionSystem>(*runtime_, SystemConfig{});
    ASSERT_TRUE(system_->registry()
                    .add(std::string(testing::CounterImpl::kName),
                         [] {
                           return std::make_unique<testing::CounterImpl>();
                         })
                    .ok());
    ASSERT_TRUE(system_->bootstrap().ok());
    client_ = system_->make_client(hosts_[0]);

    wire::DeriveRequest req;
    req.name = "Counter";
    req.instance_impl = std::string(testing::CounterImpl::kName);
    auto reply = client_->derive(LegionObjectLoid(), req);
    ASSERT_TRUE(reply.ok());
    counter_class_ = reply->loid;
    magistrates_[0] = system_->magistrate_of(uva_);
    magistrates_[1] = system_->magistrate_of(doe_);
  }

  Loid RandomLive(Rng& rng) {
    std::vector<Loid> live;
    for (const auto& [loid, m] : model_) {
      if (m.alive) live.push_back(loid);
    }
    if (live.empty()) return Loid{};
    return live[rng.below(live.size())];
  }

  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<LegionSystem> system_;
  std::unique_ptr<Client> client_;
  JurisdictionId uva_, doe_;
  HostId hosts_[2];
  Loid magistrates_[2];
  Loid counter_class_;
  std::map<Loid, ModelObject> model_;
};

TEST_P(ModelFuzzTest, RandomLifecycleSequencesAgreeWithOracle) {
  Rng rng(Seed() ^ 0xF00D);
  constexpr int kSteps = 160;

  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 25 || model_.empty()) {
      // Create in a random jurisdiction.
      const int j = static_cast<int>(rng.below(2));
      const auto start = rng.between(-50, 50);
      auto reply = client_->create(counter_class_, CounterInit(start),
                                   {magistrates_[j]});
      ASSERT_TRUE(reply.ok()) << reply.status().to_string();
      model_[reply->loid] = ModelObject{start, j, true};
    } else if (op < 55) {
      // Increment a live object.
      const Loid target = RandomLive(rng);
      if (!target.valid()) continue;
      auto raw = client_->ref(target).call("Increment", Buffer{});
      ASSERT_TRUE(raw.ok()) << raw.status().to_string();
      model_[target].count += 1;
      ASSERT_EQ(ReadI64(*raw), model_[target].count);
    } else if (op < 70) {
      // Deactivate (idempotent if already inert).
      const Loid target = RandomLive(rng);
      if (!target.valid()) continue;
      wire::LoidRequest req{target};
      ASSERT_TRUE(client_->ref(magistrates_[model_[target].jurisdiction])
                      .call(methods::kDeactivate, req.to_buffer())
                      .ok());
    } else if (op < 85) {
      // Move to the other jurisdiction.
      const Loid target = RandomLive(rng);
      if (!target.valid()) continue;
      const int from = model_[target].jurisdiction;
      wire::TransferRequest req{target, magistrates_[1 - from]};
      ASSERT_TRUE(client_->ref(magistrates_[from])
                      .call(methods::kMove, req.to_buffer())
                      .ok())
          << "step " << step;
      model_[target].jurisdiction = 1 - from;
    } else {
      // Delete.
      const Loid target = RandomLive(rng);
      if (!target.valid()) continue;
      ASSERT_TRUE(client_->delete_object(counter_class_, target).ok());
      model_[target].alive = false;
    }
  }

  // Final audit: every live object answers with the oracle's count; every
  // deleted object is unreachable.
  for (const auto& [loid, m] : model_) {
    auto raw = client_->ref(loid).call("Get", Buffer{});
    if (m.alive) {
      ASSERT_TRUE(raw.ok()) << loid.to_string() << ": "
                            << raw.status().to_string();
      EXPECT_EQ(ReadI64(*raw), m.count) << loid.to_string();
    } else {
      EXPECT_FALSE(raw.ok()) << loid.to_string() << " should be deleted";
    }
  }

  // Management-plane invariant: every live object is managed by exactly the
  // magistrate the model says, and by no other.
  MagistrateImpl* impls[2] = {system_->magistrate_impl(uva_),
                              system_->magistrate_impl(doe_)};
  for (const auto& [loid, m] : model_) {
    if (!m.alive) {
      EXPECT_FALSE(impls[0]->manages(loid));
      EXPECT_FALSE(impls[1]->manages(loid));
    } else {
      EXPECT_TRUE(impls[m.jurisdiction]->manages(loid)) << loid.to_string();
      EXPECT_FALSE(impls[1 - m.jurisdiction]->manages(loid))
          << loid.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ModelFuzzTest,
    ::testing::Combine(::testing::Values(Kernel::kSim, Kernel::kEpoll),
                       ::testing::Values(1ULL, 42ULL, 1995ULL, 0xC0FFEEULL,
                                         987654321ULL)));

}  // namespace
}  // namespace legion::core
