// Concurrency tests for the service layer and the shared enforcer
// registry. The suite names (ServiceStress*, RangeEnforcerConcurrency*)
// are matched by the TSan CI job's -R filter, so every test here must be
// race-free under ThreadSanitizer.
//
// The headline assertion: a concurrent mixed-tenant run releases values
// bit-identical to a sequential single-client replay under the same seeds.
// That holds because (a) each tenant's requests execute FIFO, (b) each
// dataset here is owned by one client, so its request order is the
// client's submission order, and (c) every source of randomness is keyed
// by the request seed — never by thread identity or wall clock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"
#include "upa/simple_query.h"

namespace upa::service {
namespace {

constexpr int kClients = 8;
constexpr int kQueriesPerClient = 3;

engine::ExecContext& Ctx() {
  static engine::ExecContext ctx(
      engine::ExecConfig{.threads = 4, .default_partitions = 4});
  return ctx;
}

core::QueryInstance SumQuery(size_t n, uint64_t salt,
                             const std::string& name,
                             engine::ExecContext& ctx = Ctx()) {
  core::SimpleQuerySpec<double> spec;
  spec.name = name;
  spec.ctx = &ctx;
  auto values = std::make_shared<std::vector<double>>();
  values->reserve(n);
  Rng rng(salt * 7919 + 13);
  for (size_t i = 0; i < n; ++i) values->push_back(rng.UniformDouble(0.0, 1.0));
  spec.records = values;
  spec.map_record = [](const double& v) { return core::Vec{v}; };
  spec.sample_domain = [](Rng& rng2) { return rng2.UniformDouble(0.0, 1.0); };
  return core::MakeSimpleQuery(std::move(spec));
}

ServiceConfig StressConfig() {
  ServiceConfig config;
  config.upa.sample_n = 64;
  config.budget_per_dataset = 10.0;
  config.max_in_flight = 4;
  return config;
}

QueryRequest ClientRequest(int client, int j) {
  // Tenants are shared between clients (i % 3); datasets are per-client,
  // so each dataset's request order is one client's submission order.
  QueryRequest request;
  request.tenant = "t" + std::to_string(client % 3);
  request.dataset_id = "d" + std::to_string(client);
  request.query = SumQuery(1500 + 100 * static_cast<size_t>(client),
                           static_cast<uint64_t>(client),
                           "sum-" + std::to_string(client));
  request.epsilon = 0.1;
  request.seed = static_cast<uint64_t>(client * 100 + j + 1);
  return request;
}

TEST(ServiceStressTest, ConcurrentMixedTenantsBitIdenticalToSequential) {
  // Noise stays ON: bit-identity must cover the full release (clamp +
  // Laplace), not just the deterministic prefix.
  std::vector<std::vector<double>> concurrent(
      kClients, std::vector<double>(kQueriesPerClient, 0.0));
  {
    UpaService service(&Ctx(), StressConfig());
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&service, &concurrent, i] {
        for (int j = 0; j < kQueriesPerClient; ++j) {
          auto result = service.Execute(ClientRequest(i, j));
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          concurrent[i][j] = result.value().released;
        }
      });
    }
    for (auto& client : clients) client.join();
  }

  // Sequential replay: one client at a time on a fresh service, same
  // requests and seeds, same per-dataset submission order.
  UpaService reference(&Ctx(), StressConfig());
  for (int i = 0; i < kClients; ++i) {
    for (int j = 0; j < kQueriesPerClient; ++j) {
      auto result = reference.Execute(ClientRequest(i, j));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(concurrent[i][j], result.value().released)
          << "client " << i << " query " << j;
    }
  }
}

TEST(ServiceStressTest, SharedDatasetHammerStaysConsistent) {
  // 8 tenants hammer ONE dataset with the same repeated query. Their
  // interleaving is nondeterministic, but the shared registry must stay
  // coherent: every run after the first collides with a prior (same query,
  // same data → same partition outputs), so the enforcer must flag it.
  UpaService service(&Ctx(), StressConfig());
  std::atomic<int> attacks{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&service, &attacks, &completed, i] {
      for (int j = 0; j < kQueriesPerClient; ++j) {
        QueryRequest request;
        request.tenant = "t" + std::to_string(i);
        request.dataset_id = "shared";
        request.query = SumQuery(2000, 42, "repeat");
        request.epsilon = 0.1;
        request.seed = 5;  // identical runs → identical partition outputs
        auto result = service.Execute(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ++completed;
        if (result.value().attack_suspected) ++attacks;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(completed.load(), kClients * kQueriesPerClient);
  // Every run but the very first saw a colliding prior in the registry.
  EXPECT_EQ(attacks.load(), kClients * kQueriesPerClient - 1);
  EXPECT_NEAR(service.accountant().Spent("shared"),
              0.1 * kClients * kQueriesPerClient, 1e-9);
}

TEST(ServiceStressTest, StatsReportDuringEnforcerRemovals) {
  // Regression for a lock-order deadlock. A release used to call the
  // engine pool while holding its dataset's registry lock (the enforcer's
  // recompute of partition outputs). A thread waiting on the pool runs
  // queued tasks, so it could pick up another request's run and block on
  // the service's dataset-map lock, which StatsReport holds while it waits
  // for that same registry. Every repeat after the first collides with a
  // prior, so each later release runs the enforcer's removal loop. The
  // interleaving is a race, so the scenario runs in several rounds. The
  // deadline turns a hang into a failure; on timeout the service, its
  // context and the reader thread are leaked, since they cannot be joined.
  constexpr int kRounds = 3;
  constexpr int kDatasets = 8;
  constexpr int kRepeats = 20;
  constexpr int kReleases = kDatasets * kRepeats;
  struct Progress {
    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
    int failed = 0;
    std::atomic<bool> stop{false};
  };
  for (int round = 0; round < kRounds; ++round) {
    auto progress = std::make_shared<Progress>();
    // The requests' queries run on the service's own two-thread pool, so a
    // pool waiter can pick up the next request's run.
    auto ctx = std::make_unique<engine::ExecContext>(
        engine::ExecConfig{.threads = 2, .default_partitions = 2});
    ServiceConfig config = StressConfig();
    config.max_in_flight = 8;
    auto service = std::make_unique<UpaService>(ctx.get(), config);

    std::thread reader([svc = service.get(), progress] {
      while (!progress->stop.load()) (void)svc->StatsReport();
    });
    for (int r = 0; r < kRepeats; ++r) {
      for (int d = 0; d < kDatasets; ++d) {
        QueryRequest request;
        request.tenant = "t" + std::to_string(d);
        request.dataset_id = "d" + std::to_string(d);
        request.query = SumQuery(2000, 42, "repeat", *ctx);
        request.epsilon = 0.1;
        request.seed = 5;  // identical runs → identical partition outputs
        service->SubmitAsync(std::move(request),
                             [progress](Result<QueryResponse> result) {
                               std::lock_guard<std::mutex> lock(progress->mu);
                               ++progress->done;
                               if (!result.ok()) ++progress->failed;
                               progress->cv.notify_all();
                             });
      }
    }

    int done = 0;
    {
      std::unique_lock<std::mutex> lock(progress->mu);
      progress->cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return progress->done == kReleases; });
      done = progress->done;
    }
    progress->stop = true;
    if (done != kReleases) {
      reader.detach();
      (void)service.release();
      (void)ctx.release();
      FAIL() << "round " << round << " deadlocked: " << done << " of "
             << kReleases << " releases completed before the deadline";
    }
    reader.join();
    service.reset();
    EXPECT_EQ(progress->failed, 0) << "round " << round;
  }
}

TEST(RangeEnforcerConcurrencyTest, ParallelSessionsRegisterEveryRun) {
  // Many threads share one registry and run the Enforce → Register window
  // under a Session each, with non-colliding outputs: the registry must
  // end up with exactly one entry per run and no decision may suspect an
  // attack.
  core::RangeEnforcer enforcer;
  constexpr int kThreads = 8;
  constexpr int kRuns = 16;
  std::atomic<int> suspected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&enforcer, &suspected, t] {
      for (int r = 0; r < kRuns; ++r) {
        double base = t * 1000.0 + r * 10.0;
        std::vector<double> outputs{base, base + 5.0};
        core::RangeEnforcer::Session session(enforcer);
        auto decision = session.Enforce(
            outputs, [&](size_t removed) {
              return std::vector<double>{base + removed, base + removed + 5.0};
            });
        if (decision.attack_suspected) ++suspected;
        session.Register(outputs);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(enforcer.registry_size(),
            static_cast<size_t>(kThreads * kRuns));
  EXPECT_EQ(suspected.load(), 0);
}

TEST(RangeEnforcerConcurrencyTest, CollidingSessionsSeparateUnderContention) {
  // All threads submit the SAME outputs. Whoever wins the race registers
  // {10, 20}; every later session must detect the collision and remove
  // records until its outputs separate — concurrently, via Session locks.
  core::RangeEnforcer enforcer;
  constexpr int kThreads = 8;
  std::atomic<int> suspected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&enforcer, &suspected, t] {
      std::vector<double> outputs{10.0, 20.0};
      core::RangeEnforcer::Session session(enforcer);
      auto decision = session.Enforce(outputs, [&](size_t removed) {
        // Separate into a per-thread band so later threads don't re-collide.
        double base = 100.0 * (t + 1) + removed;
        return std::vector<double>{base, base + 50.0};
      });
      if (decision.attack_suspected) ++suspected;
      session.Register(outputs);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(enforcer.registry_size(), static_cast<size_t>(kThreads));
  // Exactly one thread found an empty registry (or one whose entries all
  // differed); all others collided with the first registration.
  EXPECT_EQ(suspected.load(), kThreads - 1);
}

}  // namespace
}  // namespace upa::service
