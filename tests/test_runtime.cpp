// Tests for the serving runtime: BufferArena recycling, ResourceCache LRU
// and byte accounting, and the ConvolutionService end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "core/accumulator.hpp"
#include "green/gaussian.hpp"
#include "obs/metrics.hpp"
#include "runtime/service.hpp"

namespace lc::runtime {
namespace {

// --- BufferArena -------------------------------------------------------------

TEST(BufferArena, ReusesReleasedBuffers) {
  BufferArena arena;
  {
    auto lease = arena.acquire(1 << 20);
    EXPECT_EQ(lease.size_bytes(), std::size_t{1} << 20);
    lease.as<double>()[0] = 1.0;  // storage is writable
  }
  auto stats = arena.stats();
  EXPECT_EQ(stats.acquires, 1u);
  EXPECT_EQ(stats.reuses, 0u);
  EXPECT_GE(stats.retained_bytes, std::size_t{1} << 20);

  // Same-size request comes from the pool, not malloc.
  auto again = arena.acquire(1 << 20);
  stats = arena.stats();
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.bytes_reused, std::size_t{1} << 20);
  EXPECT_EQ(stats.retained_bytes, 0u);
  EXPECT_GE(stats.outstanding_bytes, std::size_t{1} << 20);
}

TEST(BufferArena, RejectsOversizedPoolMatches) {
  BufferArena arena;
  { auto big = arena.acquire(1 << 20); }
  // A tiny request must NOT be served by the 1 MB pooled buffer (capacity
  // more than 2x the request would waste the slab on a pencil).
  auto tiny = arena.acquire(1024);
  EXPECT_EQ(arena.stats().reuses, 0u);
}

TEST(BufferArena, RetainLimitFreesExcess) {
  BufferArena arena(/*retain_limit_bytes=*/4096);
  { auto lease = arena.acquire(1 << 20); }
  // Released buffer exceeded the retain budget: freed, not pooled.
  EXPECT_EQ(arena.stats().retained_bytes, 0u);
  { auto lease = arena.acquire(1024); }
  EXPECT_GE(arena.stats().retained_bytes, 1024u);
}

TEST(BufferArena, TrimFreesIdleBuffers) {
  BufferArena arena;
  { auto lease = arena.acquire(1 << 16); }
  EXPECT_GT(arena.stats().retained_bytes, 0u);
  arena.trim();
  EXPECT_EQ(arena.stats().retained_bytes, 0u);
}

TEST(BufferArena, UnpooledLeaseHasSameInterface) {
  auto lease = BufferArena::unpooled(4096);
  EXPECT_EQ(lease.size_bytes(), 4096u);
  auto span = lease.as<double>();
  EXPECT_EQ(span.size(), 4096u / sizeof(double));
  span[0] = 2.5;
  EXPECT_EQ(span[0], 2.5);
  lease.release();
  EXPECT_TRUE(lease.empty());
}

TEST(BufferArena, ByteHookMirrorsFootprintExactly) {
  // The hook sees every growth/shrink of (retained + outstanding); wired to
  // a DeviceContext it must balance to zero when the arena dies.
  device::DeviceContext ctx({"mirror", 1ull << 30});
  {
    BufferArena arena(/*retain_limit_bytes=*/1ull << 30,
                      [&ctx](std::ptrdiff_t delta) {
                        if (delta > 0) {
                          ctx.register_alloc(static_cast<std::size_t>(delta));
                        } else {
                          ctx.register_free(static_cast<std::size_t>(-delta));
                        }
                      });
    auto a = arena.acquire(1 << 20);
    EXPECT_GE(ctx.used_bytes(), std::size_t{1} << 20);
    a.release();
    // Pooled, still resident: the mirror keeps counting it.
    EXPECT_GE(ctx.used_bytes(), std::size_t{1} << 20);
    auto b = arena.acquire(1 << 20);  // reuse: no new device bytes
    const std::size_t during = ctx.used_bytes();
    b.release();
    EXPECT_EQ(ctx.used_bytes(), during);
    arena.trim();
    EXPECT_EQ(ctx.used_bytes(), 0u);
  }
  EXPECT_EQ(ctx.used_bytes(), 0u);
}

TEST(BufferArena, ConcurrentAcquireReleaseIsConsistent) {
  BufferArena arena;
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena, t] {
      for (int i = 0; i < kIters; ++i) {
        auto lease = arena.acquire(
            static_cast<std::size_t>(1024 * (1 + (t + i) % 4)));
        lease.as<std::byte>()[0] = std::byte{1};
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = arena.stats();
  EXPECT_EQ(stats.acquires, static_cast<std::size_t>(kThreads * kIters));
  EXPECT_EQ(stats.outstanding_bytes, 0u);
}

// --- ResourceCache -----------------------------------------------------------

std::shared_ptr<const int> make_int(int v) {
  return std::make_shared<const int>(v);
}

TEST(ResourceCache, BuildsOnceThenHits) {
  ResourceCache cache;
  int builds = 0;
  const std::function<std::shared_ptr<const int>()> build = [&] {
    ++builds;
    return make_int(7);
  };
  auto a = cache.get_or_build<int>("k", 100, build);
  auto b = cache.get_or_build<int>("k", 100, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(ResourceCache, EvictsLeastRecentlyUsedFirst) {
  ResourceCache::Config cfg;
  cfg.byte_budget = 300;
  ResourceCache cache(cfg);
  (void)cache.get_or_build<int>("a", 100, [] { return make_int(1); });
  (void)cache.get_or_build<int>("b", 100, [] { return make_int(2); });
  (void)cache.get_or_build<int>("c", 100, [] { return make_int(3); });
  // Touch "a" so "b" becomes the coldest entry.
  EXPECT_NE(cache.peek("a"), nullptr);
  // Inserting "d" must evict exactly "b".
  (void)cache.get_or_build<int>("d", 100, [] { return make_int(4); });
  EXPECT_NE(cache.peek("a"), nullptr);
  EXPECT_EQ(cache.peek("b"), nullptr);
  EXPECT_NE(cache.peek("c"), nullptr);
  EXPECT_NE(cache.peek("d"), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, 300u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ResourceCache, OversizedEntriesAreServedUncached) {
  ResourceCache::Config cfg;
  cfg.byte_budget = 100;
  ResourceCache cache(cfg);
  int builds = 0;
  const std::function<std::shared_ptr<const int>()> build = [&] {
    ++builds;
    return make_int(9);
  };
  auto a = cache.get_or_build<int>("big", 1000, build);
  auto b = cache.get_or_build<int>("big", 1000, build);
  EXPECT_EQ(*a, 9);
  EXPECT_EQ(builds, 2);  // never retained, so built per call
  const auto stats = cache.stats();
  EXPECT_EQ(stats.uncacheable, 2u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResourceCache, MirrorsBytesIntoDeviceExactly) {
  device::DeviceContext ctx({"cache-mirror", 1ull << 20});
  ResourceCache::Config cfg;
  cfg.byte_budget = 300;
  cfg.device = &ctx;
  {
    ResourceCache cache(cfg);
    (void)cache.get_or_build<int>("a", 120, [] { return make_int(1); });
    (void)cache.get_or_build<int>("b", 130, [] { return make_int(2); });
    EXPECT_EQ(ctx.used_bytes(), 250u);
    // "c" forces "a" out: 250 - 120 + 100 = 230.
    (void)cache.get_or_build<int>("c", 100, [] { return make_int(3); });
    EXPECT_EQ(ctx.used_bytes(), 230u);
    EXPECT_EQ(ctx.used_bytes(), cache.stats().bytes);
    cache.clear();
    EXPECT_EQ(ctx.used_bytes(), 0u);
  }
  EXPECT_EQ(ctx.used_bytes(), 0u);
}

TEST(ResourceCache, ConcurrentMissesBuildEachKeyOnce) {
  ResourceCache cache;
  constexpr int kKeys = 8;
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &builds] {
      for (int k = 0; k < kKeys; ++k) {
        auto v = cache.get_or_build<int>(
            "key" + std::to_string(k), 10,
            [&builds, k]() -> std::shared_ptr<const int> {
              builds.fetch_add(1);
              return make_int(k);
            });
        EXPECT_EQ(*v, k);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), kKeys);
}

// --- ConvolutionService ------------------------------------------------------

RealField test_input(const Grid3& g) {
  RealField f(g, 0.0);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = std::sin(0.37 * static_cast<double>(i)) +
           0.1 * static_cast<double>(i % 17);
  }
  return f;
}

core::LowCommParams small_params() {
  core::LowCommParams p;
  p.subdomain = 8;
  p.far_rate = 4;
  p.dense_halo = 2;
  p.batch = 256;
  return p;
}

ConvolutionRequest small_request(const Grid3& g) {
  ConvolutionRequest req;
  req.input = test_input(g);
  req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  req.params = small_params();
  return req;
}

TEST(ConvolutionService, MatchesDirectEngineAndHitsResultCache) {
  const Grid3 g = Grid3::cube(32);
  ConvolutionService service;

  // Ground truth from a directly driven engine.
  auto req = small_request(g);
  core::LocalConvolverConfig cfg;
  cfg.batch = req.params.batch;
  cfg.pool = nullptr;
  const core::LowCommConvolution direct(g, req.kernel, req.params, cfg);
  const core::LowCommResult expected = direct.convolve(req.input);

  const ConvolutionResponse cold = service.run(small_request(g));
  EXPECT_FALSE(cold.stats.result_cache_hit);
  EXPECT_EQ(cold.result.output.grid(), g);
  EXPECT_EQ(cold.result.compressed_samples, expected.compressed_samples);
  for (std::size_t i = 0; i < expected.output.size(); ++i) {
    ASSERT_DOUBLE_EQ(cold.result.output[i], expected.output[i]) << i;
  }

  const ConvolutionResponse warm = service.run(small_request(g));
  EXPECT_TRUE(warm.stats.result_cache_hit);
  for (std::size_t i = 0; i < expected.output.size(); ++i) {
    ASSERT_DOUBLE_EQ(warm.result.output[i], expected.output[i]) << i;
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_GE(stats.waves, 1u);
}

TEST(ConvolutionService, ReportsCodecAwareExchangedBytes) {
  // A q16 request must report the engine's encoded payload bytes (2 B per
  // sample plus an 8 B scale per octree cell), not the raw fp64 bytes —
  // cold and cached responses alike.
  const Grid3 g = Grid3::cube(32);
  ConvolutionService service;

  auto req = small_request(g);
  req.params.wire = comm::WireCodec::kQ16;
  core::LocalConvolverConfig cfg;
  cfg.batch = req.params.batch;
  cfg.pool = nullptr;
  const core::LowCommConvolution direct(g, req.kernel, req.params, cfg);
  const core::LowCommResult expected = direct.convolve(req.input);
  ASSERT_LT(expected.exchanged_bytes, expected.compressed_samples * 8);

  const ConvolutionResponse cold = service.run(ConvolutionRequest(req));
  EXPECT_FALSE(cold.stats.result_cache_hit);
  EXPECT_EQ(cold.result.compressed_samples, expected.compressed_samples);
  EXPECT_EQ(cold.result.exchanged_bytes, expected.exchanged_bytes);
  for (std::size_t i = 0; i < expected.output.size(); ++i) {
    ASSERT_DOUBLE_EQ(cold.result.output[i], expected.output[i]) << i;
  }

  const ConvolutionResponse warm = service.run(std::move(req));
  EXPECT_TRUE(warm.stats.result_cache_hit);
  EXPECT_EQ(warm.result.exchanged_bytes, expected.exchanged_bytes);
}

TEST(ConvolutionService, EngineCacheHitWithoutResultCache) {
  const Grid3 g = Grid3::cube(32);
  ServiceConfig cfg;
  cfg.cache_results = false;
  ConvolutionService service(cfg);

  const ConvolutionResponse first = service.run(small_request(g));
  EXPECT_FALSE(first.stats.engine_cache_hit);
  const ConvolutionResponse second = service.run(small_request(g));
  EXPECT_TRUE(second.stats.engine_cache_hit);
  EXPECT_FALSE(second.stats.result_cache_hit);
  for (std::size_t i = 0; i < first.result.output.size(); ++i) {
    ASSERT_DOUBLE_EQ(second.result.output[i], first.result.output[i]) << i;
  }
  EXPECT_EQ(service.stats().result_hits, 0u);
}

TEST(ConvolutionService, HermitianKernelCachesHalfSpectrum) {
  const Grid3 g = Grid3::cube(32);
  auto& saved =
      obs::Registry::global().counter("spectrum.half_bytes_saved");

  ServiceConfig cfg;
  cfg.materialize_spectra = true;

  // The Gaussian kernel is Hermitian, so the engine materialises the half
  // spectrum and books the bytes it saved.
  const auto before_on = saved.value();
  ConvolutionService on_service(cfg);
  (void)on_service.run(small_request(g));
  EXPECT_GT(saved.value(), before_on);
}

TEST(ConvolutionService, SubdomainScopedRequestReturnsTile) {
  const Grid3 g = Grid3::cube(32);
  auto req = small_request(g);

  core::LocalConvolverConfig cfg;
  cfg.batch = req.params.batch;
  cfg.pool = nullptr;
  const core::LowCommConvolution direct(g, req.kernel, req.params, cfg);
  const std::size_t d = 3;
  std::vector<sampling::CompressedField> one;
  one.push_back(direct.convolve_one(req.input, d));
  const Box3& box = direct.decomposition().subdomain(d);
  const RealField expected =
      core::accumulate_region(one, box, req.params.interpolation);

  ConvolutionService service;
  auto scoped = small_request(g);
  scoped.subdomain = d;
  const ConvolutionResponse response = service.run(std::move(scoped));
  EXPECT_EQ(response.stats.subdomains, 1u);
  EXPECT_EQ(response.result.output.grid(), box.extents());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_DOUBLE_EQ(response.result.output[i], expected[i]) << i;
  }
}

TEST(ConvolutionService, QueueFullRejectsDeterministically) {
  const Grid3 g = Grid3::cube(16);
  ServiceConfig cfg;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;
  ConvolutionService service(cfg);

  auto p = small_params();
  auto make = [&] {
    ConvolutionRequest req;
    req.input = test_input(g);
    req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
    req.params = p;
    return req;
  };
  auto f1 = service.submit(make());
  auto f2 = service.submit(make());
  EXPECT_THROW((void)service.submit(make()), QueueFull);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);

  service.resume();
  EXPECT_EQ(f1.get().result.output.grid(), g);
  EXPECT_EQ(f2.get().result.output.grid(), g);
}

TEST(ConvolutionService, QueueDeadlineRejectsStaleRequests) {
  const Grid3 g = Grid3::cube(16);
  ServiceConfig cfg;
  cfg.start_paused = true;
  ConvolutionService service(cfg);

  ConvolutionRequest req;
  req.input = test_input(g);
  req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  req.params = small_params();
  req.queue_deadline_seconds = 0.01;
  auto future = service.submit(std::move(req));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.resume();
  EXPECT_THROW((void)future.get(), DeadlineExceeded);
  EXPECT_EQ(service.stats().rejected_deadline, 1u);
}

TEST(ConvolutionService, InvalidRequestFailsViaFuture) {
  const Grid3 g = Grid3::cube(16);
  ConvolutionService service;
  ConvolutionRequest req;
  req.input = test_input(g);
  req.kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  req.params = small_params();
  req.subdomain = 1000;  // out of range for a 16³ grid of 8³ sub-domains
  auto future = service.submit(std::move(req));
  EXPECT_THROW((void)future.get(), InvalidArgument);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(ConvolutionService, ClearCachesForcesColdRebuild) {
  const Grid3 g = Grid3::cube(32);
  ConvolutionService service;
  (void)service.run(small_request(g));
  service.clear_caches();
  EXPECT_EQ(service.stats().cache.entries, 0u);
  const ConvolutionResponse again = service.run(small_request(g));
  EXPECT_FALSE(again.stats.result_cache_hit);
  EXPECT_FALSE(again.stats.engine_cache_hit);
}

TEST(ConvolutionService, StatsTableRendersEveryCounter) {
  const Grid3 g = Grid3::cube(16);
  ConvolutionService service;
  (void)service.run(small_request(g));
  const std::string rendered = service.stats_table().str();
  EXPECT_NE(rendered.find("submitted"), std::string::npos);
  EXPECT_NE(rendered.find("result-cache hits"), std::string::npos);
  EXPECT_NE(rendered.find("latency p95"), std::string::npos);
}

TEST(ConvolutionService, WaveBatchesQueuedRequests) {
  const Grid3 g = Grid3::cube(16);
  ServiceConfig cfg;
  cfg.start_paused = true;
  cfg.cache_results = false;  // force real work for every request
  ConvolutionService service(cfg);
  std::vector<std::future<ConvolutionResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(small_request(g)));
  }
  service.resume();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().result.output.grid(), g);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 4u);
  // All four requests fit one wave (max_wave default is 8), so the service
  // must have batched them instead of running four separate dispatches.
  EXPECT_LE(stats.waves, 2u);
  EXPECT_EQ(stats.wave_tasks, 4u * 8u);  // 16³ grid / 8³ sub-domains = 8 each
}

}  // namespace
}  // namespace lc::runtime
