// Stress: hammer the ConvolutionService with concurrent mixed-size requests
// under deliberately tiny queue / cache budgets, so admission rejection,
// LRU eviction churn, arena recycling, and wave batching all race each
// other. Run under -DLC_SANITIZE=thread in CI; any lock ordering or shared
// mutable state bug in the runtime shows up here first.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "green/gaussian.hpp"
#include "runtime/service.hpp"

namespace lc::runtime {
namespace {

RealField varied_input(const Grid3& g, int salt) {
  RealField f(g, 0.0);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = std::sin(0.31 * static_cast<double>(i) + salt) +
           0.05 * static_cast<double>((i + static_cast<std::size_t>(salt)) % 13);
  }
  return f;
}

ConvolutionRequest mixed_request(int salt) {
  // Two problem shapes and two kernels interleave, so engines, plans,
  // octrees, and results all contend for the (tiny) cache budget.
  const bool big = (salt % 2) == 0;
  const Grid3 g = Grid3::cube(big ? 32 : 16);
  ConvolutionRequest req;
  req.input = varied_input(g, salt % 5);
  req.kernel =
      std::make_shared<green::GaussianSpectrum>(g, (salt % 3) ? 1.5 : 2.0);
  req.params.subdomain = big ? 16 : 8;
  req.params.far_rate = 4;
  req.params.dense_halo = 2;
  req.params.batch = 256;
  if (salt % 7 == 0) {
    req.subdomain = static_cast<std::size_t>(salt % 8);
  }
  return req;
}

TEST(StressService, ConcurrentMixedRequestsUnderTinyBudgets) {
  ServiceConfig cfg;
  cfg.queue_capacity = 8;          // force QueueFull under pressure
  cfg.cache_budget_bytes = 1 << 20;  // force eviction churn
  cfg.arena_retain_bytes = 1 << 20;
  cfg.max_wave = 3;
  ConvolutionService service(cfg);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 12;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> completed{0};
  // Each client keeps its completed (salt, response) pairs for the
  // bit-for-bit check after the load phase.
  std::vector<std::vector<std::pair<int, ConvolutionResponse>>> answers(
      kThreads);

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int salt = t * kPerThread + i;
        try {
          auto future = service.submit(mixed_request(salt));
          accepted.fetch_add(1);
          ConvolutionResponse response = future.get();
          completed.fetch_add(1);
          EXPECT_FALSE(response.result.output.empty());
          EXPECT_GT(response.result.compressed_samples, 0u);
          answers[static_cast<std::size_t>(t)].emplace_back(
              salt, std::move(response));
        } catch (const QueueFull&) {
          rejected.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  service.wait_idle();

  // Every accepted request resolved; nothing hung or vanished.
  EXPECT_EQ(completed.load(), accepted.load());
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(stats.completed + stats.failed,
            static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected_queue_full,
            static_cast<std::size_t>(rejected.load()));
  EXPECT_EQ(stats.arena.outstanding_bytes, 0u);
  // The budget must have held: resident cache bytes never exceed it.
  EXPECT_LE(stats.cache.bytes, cfg.cache_budget_bytes);
  // ...and it was tight enough to evict under the load.
  EXPECT_GT(stats.cache.evictions, 0u);

  // Every completed response must equal, bit for bit, the same request
  // answered by a service whose default budget never evicts: an eviction
  // that handed a request the wrong plan, octree, spectrum, or engine shows
  // up here. The reference service's result cache computes each distinct
  // request once.
  ConvolutionService reference;
  for (const auto& client : answers) {
    for (const auto& [salt, response] : client) {
      const ConvolutionResponse want = reference.run(mixed_request(salt));
      EXPECT_TRUE(response.result.output == want.result.output)
          << "salt " << salt;
      EXPECT_EQ(response.result.compressed_samples,
                want.result.compressed_samples)
          << "salt " << salt;
      EXPECT_EQ(response.result.exchanged_bytes, want.result.exchanged_bytes)
          << "salt " << salt;
    }
  }
  EXPECT_EQ(reference.stats().cache.evictions, 0u);
}

TEST(StressService, RepeatedIdenticalRequestsStayConsistent) {
  // A hot result-cache entry read by many threads while other keys churn
  // the LRU around it: hits must return the identical field every time.
  ServiceConfig cfg;
  cfg.cache_budget_bytes = 8 << 20;
  ConvolutionService service(cfg);

  const Grid3 g = Grid3::cube(16);
  auto make = [&] {
    ConvolutionRequest req;
    req.input = varied_input(g, 1);
    req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
    req.params.subdomain = 8;
    req.params.far_rate = 4;
    req.params.batch = 256;
    return req;
  };
  const ConvolutionResponse reference = service.run(make());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const ConvolutionResponse r = service.run(make());
        if (!(r.result.output == reference.result.output)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.stats().result_hits, 0u);
}

TEST(StressService, PauseResumeChurnWhileClientsSubmit) {
  // Flip dispatch on and off while clients submit; no request may be lost
  // and the service must drain completely afterwards.
  ServiceConfig cfg;
  cfg.queue_capacity = 64;
  ConvolutionService service(cfg);

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load()) {
      service.pause();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      service.resume();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    service.resume();
  });

  const Grid3 g = Grid3::cube(16);
  std::vector<std::future<ConvolutionResponse>> futures;
  for (int i = 0; i < 24; ++i) {
    ConvolutionRequest req;
    req.input = varied_input(g, i % 3);
    req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
    req.params.subdomain = 8;
    req.params.far_rate = 4;
    req.params.batch = 256;
    futures.push_back(service.submit(std::move(req)));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().result.output.grid(), g);
  }
  stop.store(true);
  flipper.join();
  service.wait_idle();
  EXPECT_EQ(service.stats().completed, 24u);
}

}  // namespace
}  // namespace lc::runtime
