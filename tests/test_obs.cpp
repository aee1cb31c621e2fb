// Observability layer (DESIGN.md §13): log-bucketed histogram vs a
// sorted-vector oracle, trace export + nesting under concurrent emitters,
// and the measured-vs-model communication-volume accounting.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/sim_cluster.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "device/memory_model.hpp"
#include "green/gaussian.hpp"
#include "obs/comm_volume.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/service.hpp"

namespace {

using namespace lc;

// Nearest-rank quantile over the raw samples: the exact digest the
// histogram approximates (one bucket is 2^(1/8) wide, so the bucket
// midpoint is within ~4.5% of any sample inside it).
double oracle_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// --- Histogram vs sorted-vector oracle -----------------------------------

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
  obs::Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.quantile(0.99), 0.0);
}

TEST(ObsHistogram, SingleSampleIsExactAtEveryQuantile) {
  obs::Histogram h;
  h.record(3.7);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.sum, 3.7);
  // min == max == 3.7, and quantiles clamp to [min, max].
  for (const double q : {0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), 3.7) << "q=" << q;
  }
}

TEST(ObsHistogram, QuantilesMatchSortedVectorOracle) {
  obs::Histogram h;
  std::vector<double> samples;
  SplitMix64 rng(42);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~7 decades: the latency-like regime the log
    // bucketing is designed for.
    const double v = std::pow(10.0, rng.uniform(-6.0, 1.0));
    samples.push_back(v);
    h.record(v);
  }
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, samples.size());
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double want = oracle_quantile(samples, q);
    const double got = s.quantile(q);
    EXPECT_NEAR(got / want, 1.0, 0.06) << "q=" << q << " oracle=" << want
                                       << " histogram=" << got;
  }
  EXPECT_NEAR(s.mean(),
              std::accumulate(samples.begin(), samples.end(), 0.0) /
                  static_cast<double>(samples.size()),
              1e-9);
}

TEST(ObsHistogram, ExtremesLandInOverflowBucketsAndClamp) {
  obs::Histogram h;
  h.record(-1.0);     // non-positive → underflow bucket
  h.record(1e-300);   // below 2^-40 → underflow bucket
  h.record(1e300);    // above 2^40 → overflow bucket
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, -1.0);
  EXPECT_DOUBLE_EQ(s.max, 1e300);
  // Quantiles in the extreme buckets report the exact extremes instead of
  // a meaningless bucket midpoint.
  EXPECT_DOUBLE_EQ(s.quantile(0.01), -1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1e300);
}

TEST(ObsHistogram, TracksCountSumMinMax) {
  obs::Histogram h;
  for (const double v : {0.25, 4.0, 1.0}) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 5.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, ReferencesStayValidAcrossReset) {
  auto& reg = obs::Registry::global();
  obs::Counter& c = reg.counter("obs_test.stable_counter");
  c.add(5);
  EXPECT_EQ(&c, &reg.counter("obs_test.stable_counter"));
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // the cached reference still feeds the same counter
  EXPECT_EQ(reg.counter("obs_test.stable_counter").value(), 2u);
}

TEST(ObsRegistry, RendersJsonAndPrometheus) {
  auto& reg = obs::Registry::global();
  reg.counter("obs_test.render_counter").add(7);
  reg.gauge("obs_test.render_gauge").set(1.5);
  reg.histogram("obs_test.render_hist").record(0.125);
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"obs_test.render_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.render_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.render_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string prom = reg.render_prometheus();
  EXPECT_NE(prom.find("lc_obs_test_render_counter 7"), std::string::npos);
  EXPECT_NE(prom.find("lc_obs_test_render_hist{quantile=\"0.99\"}"),
            std::string::npos);
}

// --- Tracer ---------------------------------------------------------------

TEST(ObsTrace, DisabledTracerRecordsNothingViaMacro) {
  obs::Tracer& tracer = obs::Tracer::global();
  ASSERT_FALSE(tracer.enabled());
  const std::size_t before = tracer.event_count();
  { LC_TRACE("obs_test.disabled_span"); }
  EXPECT_EQ(tracer.event_count(), before);
}

TEST(ObsTrace, ScopedSpanRecordsWhenEnabled) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::size_t before = tracer.event_count();
  tracer.enable();
  { LC_TRACE("obs_test.enabled_span"); }
  tracer.disable();
  EXPECT_GE(tracer.event_count(), before + 1);
}

TEST(ObsTrace, FullBufferDropsAndCounts) {
  obs::Tracer tracer;  // local instance: does not pollute the global one
  const auto capacity = obs::Tracer::kBufferCapacity;
  for (std::size_t i = 0; i < capacity + 100; ++i) {
    tracer.record("obs_test.flood", static_cast<std::int64_t>(i), 1);
  }
  EXPECT_EQ(tracer.event_count(), capacity);
  EXPECT_EQ(tracer.dropped(), 100u);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// True when the spans of one thread form a properly nested forest (every
// pair of spans is either disjoint or one contains the other).
bool properly_nested(std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.start_ns + a.dur_ns > b.start_ns + b.dur_ns;
            });
  std::vector<std::int64_t> open_ends;
  for (const auto& ev : events) {
    const std::int64_t end = ev.start_ns + ev.dur_ns;
    while (!open_ends.empty() && ev.start_ns >= open_ends.back()) {
      open_ends.pop_back();
    }
    if (!open_ends.empty() && end > open_ends.back()) return false;
    open_ends.push_back(end);
  }
  return true;
}

TEST(ObsTrace, ConcurrentEmittersNestPerThreadAndExportValidJson) {
  obs::Tracer tracer;
  constexpr int kThreads = 4;
  constexpr int kOuter = 50;
  constexpr int kInner = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kOuter; ++i) {
        const std::int64_t outer_start = tracer.now_ns();
        for (int j = 0; j < kInner; ++j) {
          const std::int64_t inner_start = tracer.now_ns();
          tracer.record("inner", inner_start,
                        tracer.now_ns() - inner_start);
        }
        tracer.record("outer", outer_start, tracer.now_ns() - outer_start);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto per_thread = tracer.snapshot();
  ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
  std::size_t total = 0;
  for (const auto& te : per_thread) {
    EXPECT_EQ(te.events.size(),
              static_cast<std::size_t>(kOuter * (kInner + 1)));
    EXPECT_TRUE(properly_nested(te.events)) << "tid=" << te.tid;
    total += te.events.size();
  }
  EXPECT_EQ(total, tracer.event_count());
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string json = tracer.render_chrome_trace();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Every event became exactly one line; the JSON closes cleanly.
  std::size_t lines = 0;
  for (std::string::size_type p = json.find("\"name\":");
       p != std::string::npos; p = json.find("\"name\":", p + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, total);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
}

// --- ScopedTimer ----------------------------------------------------------

TEST(ObsScopedTimer, RecordsIntoSinkOnDestruction) {
  SecondsAccumulator acc;
  {
    ScopedTimer timer(acc);
    double spin = 0.0;
    for (int i = 0; i < 1000; ++i) spin += static_cast<double>(i);
    volatile double sink = spin;
    (void)sink;
  }
  EXPECT_GT(acc.seconds, 0.0);

  obs::Histogram hist;
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist.snapshot().count, 1u);
}

// --- Communication volume vs the paper's model ----------------------------

core::LowCommParams uniform_params(i64 k, i64 r) {
  core::LowCommParams params;
  params.subdomain = k;
  params.far_rate = r;
  params.uniform_rate = r;  // uniform exterior → Eqn 6 applies exactly
  params.dense_halo = 0;
  params.batch = 512;
  return params;
}

TEST(ObsCommVolume, InteriorLatticeEqualsEqn6ForUniformRate) {
  const Grid3 grid = Grid3::cube(64);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  core::LowCommConvolution engine(grid, kernel, uniform_params(16, 2));
  const obs::CommVolumeReport rep = obs::measure_comm_volume(engine, 4);
  EXPECT_EQ(rep.n, 64);
  EXPECT_EQ(rep.k, 16);
  EXPECT_DOUBLE_EQ(rep.r, 2.0);
  EXPECT_NEAR(rep.unique_over_model(), 1.0, 1e-12);
}

TEST(ObsCommVolume, PayloadCarriesOnlyFaceOverheadAtSmallGrid) {
  const Grid3 grid = Grid3::cube(64);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  core::LowCommConvolution engine(grid, kernel, uniform_params(16, 2));
  const obs::CommVolumeReport rep = obs::measure_comm_volume(engine, 4);
  // Edge-inclusive octree faces cost (s/r+1)³ vs (s/r)³ per cell: the
  // measured payload must exceed the model, but by a bounded margin.
  EXPECT_GT(rep.measured_over_model(), 1.0);
  EXPECT_LT(rep.measured_over_model(), 1.35);
  EXPECT_GT(rep.dense_bytes, 0.0);
}

TEST(ObsCommVolume, AcceptanceConfigAgreesWithModelWithinTenPercent) {
  // The PR's acceptance configuration: N = 128, k = 32, uniform r = 2.
  const Grid3 grid = Grid3::cube(128);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  core::LowCommConvolution engine(grid, kernel, uniform_params(32, 2));
  const obs::CommVolumeReport rep = obs::measure_comm_volume(engine, 4);
  EXPECT_TRUE(rep.within(0.10))
      << "measured/model = " << rep.measured_over_model();
  EXPECT_GT(rep.reduction_vs_dense(), 0.0);
}

TEST(ObsCommVolume, WireBytesMatchSimClusterMeasurement) {
  const Grid3 grid = Grid3::cube(32);
  const int ranks = 2;
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  const core::LowCommParams params = uniform_params(16, 2);

  RealField input(grid);
  SplitMix64 rng(11);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  comm::SimCluster cluster(ranks);
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params);
  const std::size_t measured = cluster.stats().bytes_sent.load();

  core::LowCommConvolution engine(grid, kernel, params);
  EXPECT_EQ(measured, core::lowcomm_exchange_bytes(grid, params, ranks));

  const obs::CommVolumeReport rep =
      obs::measure_comm_volume(engine, ranks, measured);
  EXPECT_EQ(rep.wire_bytes, measured);
}

TEST(ObsCommVolume, HierarchicalExchangeCountersMatchLevelTraffic) {
  // The composed exchange classifies every send it issues into the global
  // exchange.inter_node_bytes / exchange.intra_node_bytes counters; their
  // deltas must equal both the static traffic mirror and the per-level
  // bytes the cluster actually accounted.
  const Grid3 grid = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  const core::LowCommParams params = uniform_params(16, 2);

  RealField input(grid);
  SplitMix64 rng(14);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  auto& reg = obs::Registry::global();
  const auto inter_before = reg.counter("exchange.inter_node_bytes").value();
  const auto intra_before = reg.counter("exchange.intra_node_bytes").value();

  const comm::Topology topo = comm::Topology::grouped(4, 2);
  comm::SimCluster cluster(topo);
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params,
                                           core::ExchangeRoute::kHierarchical);

  const auto inter_delta =
      reg.counter("exchange.inter_node_bytes").value() - inter_before;
  const auto intra_delta =
      reg.counter("exchange.intra_node_bytes").value() - intra_before;
  EXPECT_GT(inter_delta, 0u);
  EXPECT_GT(intra_delta, 0u);

  const comm::LevelTraffic mirror = core::lowcomm_exchange_traffic(
      grid, params, topo, core::ExchangeRoute::kHierarchical);
  EXPECT_EQ(inter_delta, mirror.inter_bytes);
  EXPECT_EQ(intra_delta, mirror.intra_bytes);

  const comm::LevelTraffic executed = cluster.stats().level_traffic();
  EXPECT_EQ(inter_delta, executed.inter_bytes);
  EXPECT_EQ(intra_delta, executed.intra_bytes);
}

TEST(ObsRankStats, PerRankCountersSumToAggregate) {
  const Grid3 grid = Grid3::cube(32);
  const int ranks = 4;
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);

  RealField input(grid);
  SplitMix64 rng(12);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  comm::SimCluster cluster(ranks);
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           uniform_params(16, 2));

  std::size_t bytes_sent = 0, bytes_received = 0;
  std::size_t messages_sent = 0, messages_received = 0;
  for (int rank = 0; rank < ranks; ++rank) {
    const comm::RankCommStats rs = cluster.rank_stats(rank);
    bytes_sent += rs.bytes_sent;
    bytes_received += rs.bytes_received;
    messages_sent += rs.messages_sent;
    messages_received += rs.messages_received;
    EXPECT_GE(rs.barrier_wait_seconds, 0.0);
  }
  EXPECT_EQ(bytes_sent, cluster.stats().bytes_sent.load());
  EXPECT_EQ(bytes_sent, bytes_received);  // every send has one receiver
  EXPECT_EQ(messages_sent, cluster.stats().messages.load());
  EXPECT_EQ(messages_sent, messages_received);
}

// --- Service digests now come from the shared histogram -------------------

TEST(ObsService, LatencyDigestsComeFromHistogram) {
  runtime::ServiceConfig config;
  config.cache_results = true;
  runtime::ConvolutionService service(config);

  const Grid3 grid = Grid3::cube(32);
  RealField input(grid);
  SplitMix64 rng(13);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  for (int i = 0; i < 3; ++i) {
    runtime::ConvolutionRequest req;
    req.input = input;
    req.kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
    req.params = uniform_params(16, 2);
    req.subdomain = 0;
    (void)service.run(std::move(req));
  }

  const runtime::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GT(stats.latency_p50_seconds, 0.0);
  EXPECT_LE(stats.latency_p50_seconds, stats.latency_p95_seconds);
  EXPECT_LE(stats.latency_p95_seconds, stats.latency_p99_seconds);
  EXPECT_GE(stats.queue_p99_seconds, stats.queue_p50_seconds);
}

// --- Flow events, thread labels, dropped-event surfacing -------------------

TEST(ObsTrace, FlowPairRendersAsStitchableSendRecvArrow) {
  obs::Tracer tracer;  // local instance: does not pollute the global one
  tracer.record_flow("comm.msg.intra", 0xabcdULL, 4096, /*finish=*/false);
  tracer.record_flow("comm.msg.intra", 0xabcdULL, 4096, /*finish=*/true);

  const auto per_thread = tracer.snapshot();
  ASSERT_EQ(per_thread.size(), 1u);
  ASSERT_EQ(per_thread[0].events.size(), 2u);
  EXPECT_EQ(per_thread[0].events[0].phase, 's');
  EXPECT_EQ(per_thread[0].events[1].phase, 'f');
  EXPECT_EQ(per_thread[0].events[0].flow_id, 0xabcdULL);
  EXPECT_EQ(per_thread[0].events[0].bytes, 4096u);
  EXPECT_EQ(per_thread[0].events[0].dur_ns, 0);

  const std::string json = tracer.render_chrome_trace();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Both halves carry the shared hex id and the payload size; the finish
  // additionally binds to the enclosing slice so Perfetto draws the arrow.
  EXPECT_NE(json.find("\"id\":\"0xabcd\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":4096}"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

TEST(ObsTrace, ThreadLabelExportsThreadNameMetadata) {
  obs::Tracer tracer;
  tracer.set_thread_label("rank 7");
  tracer.record("obs_test.labeled_span", tracer.now_ns(), 10);

  const auto per_thread = tracer.snapshot();
  ASSERT_EQ(per_thread.size(), 1u);
  EXPECT_EQ(per_thread[0].label, "rank 7");

  const std::string json = tracer.render_chrome_trace();
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 7\"}"), std::string::npos);
}

TEST(ObsTrace, DroppedEventsSurfaceInExportSnapshotAndCounter) {
  auto& counter = obs::Registry::global().counter("trace.dropped_events");
  const std::uint64_t counter_before = counter.value();

  obs::Tracer tracer;
  for (std::size_t i = 0; i < obs::Tracer::kBufferCapacity + 3; ++i) {
    tracer.record("obs_test.flood", static_cast<std::int64_t>(i), 1);
  }
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(counter.value() - counter_before, 3u);

  const auto per_thread = tracer.snapshot();
  ASSERT_EQ(per_thread.size(), 1u);
  EXPECT_EQ(per_thread[0].dropped, 3u);  // per-thread attribution survives

  // The loss is visible from the artifact alone.
  const std::string json = tracer.render_chrome_trace();
  EXPECT_NE(json.find("\"droppedEvents\":3,"), std::string::npos);
}

// Completed spans named `name` in the global tracer so far.
std::size_t span_count(const char* name) {
  std::size_t n = 0;
  for (const auto& thread : obs::Tracer::global().snapshot()) {
    for (const auto& ev : thread.events) {
      if (ev.phase == 'X' && std::strcmp(ev.name, name) == 0) ++n;
    }
  }
  return n;
}

TEST(ObsTrace, ConvolveRecordsEveryStageSpan) {
  // One convolve call records one span per stage and one sample in each
  // stage histogram — the stage items tools/check_obs_outputs.py requires
  // of a run.
  const Grid3 grid = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  const i64 k = 8;
  const Index3 corner{8, 8, 8};
  RealField chunk(Grid3::cube(k));
  SplitMix64 rng(17);
  for (auto& v : chunk.span()) v = rng.uniform(-1.0, 1.0);
  auto tree = std::make_shared<sampling::Octree>(
      grid, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));

  const char* const spans[] = {"convolver.stage1_xy", "convolver.stage2_z",
                               "convolver.stage3_planes"};
  const char* const histograms[] = {"convolver.stage1_seconds",
                                    "convolver.stage2_seconds",
                                    "convolver.stage3_seconds"};
  const auto counts = [&] {
    std::vector<std::size_t> c;
    for (const char* name : spans) c.push_back(span_count(name));
    for (const char* name : histograms) {
      c.push_back(obs::Registry::global().histogram(name).count());
    }
    return c;
  };

  core::LocalConvolverConfig cfg;
  cfg.pool = nullptr;
  const core::LocalConvolver engine(grid, kernel, cfg);
  const std::vector<std::size_t> before = counts();
  obs::Tracer::global().enable();
  (void)engine.convolve_subdomain(chunk, corner, tree);
  obs::Tracer::global().disable();
  std::vector<std::size_t> delta = counts();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
  EXPECT_EQ(delta, std::vector<std::size_t>(6, 1));
}

// --- Prometheus: real cumulative histogram next to the summary -------------

TEST(ObsRegistry, PrometheusEmitsCumulativeHistogramBuckets) {
  auto& reg = obs::Registry::global();
  obs::Histogram& h = reg.histogram("obs_test.bucket_hist");
  // Four samples across distinct log buckets plus a repeat: cumulative
  // counts must be monotone and end at the total.
  for (const double v : {0.001, 0.1, 0.1, 10.0, 1000.0}) h.record(v);

  const std::string prom = reg.render_prometheus();
  const std::string base = "lc_obs_test_bucket_hist";

  // The summary family is untouched (existing dashboards keep working).
  EXPECT_NE(prom.find("# TYPE " + base + " summary"), std::string::npos);
  EXPECT_NE(prom.find(base + "{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(prom.find(base + "_count 5"), std::string::npos);

  // The sibling _hist family is a real histogram with le-labeled buckets.
  EXPECT_NE(prom.find("# TYPE " + base + "_hist histogram"),
            std::string::npos);
  EXPECT_NE(prom.find(base + "_hist_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find(base + "_hist_count 5"), std::string::npos);
  EXPECT_NE(prom.find(base + "_hist_sum "), std::string::npos);

  // Walk every bucket line: upper bounds strictly increasing, cumulative
  // counts non-decreasing, and the last finite bucket holds all 5 samples.
  const std::string prefix = base + "_hist_bucket{le=\"";
  double prev_upper = -1.0;
  unsigned long long prev_cum = 0;
  std::size_t bucket_lines = 0;
  for (std::string::size_type p = prom.find(prefix); p != std::string::npos;
       p = prom.find(prefix, p + 1)) {
    const char* s = prom.c_str() + p + prefix.size();
    if (std::strncmp(s, "+Inf", 4) == 0) continue;
    double upper = 0.0;
    unsigned long long cum = 0;
    ASSERT_EQ(std::sscanf(s, "%lf\"} %llu", &upper, &cum), 2);
    EXPECT_GT(upper, prev_upper);
    EXPECT_GE(cum, prev_cum);
    prev_upper = upper;
    prev_cum = cum;
    ++bucket_lines;
  }
  EXPECT_GE(bucket_lines, 4u);  // >= one line per distinct sample bucket
  EXPECT_EQ(prev_cum, 5u);
}

// --- Plan-vs-actual telemetry (DESIGN.md §18) ------------------------------

obs::PlanOutcome distinctive_outcome() {
  obs::PlanOutcome o;
  o.source = "pipeline";
  o.aborted = true;
  o.n = 128;
  o.ranks = 8;
  o.nodes = 2;
  o.k = 32;
  o.far_rate = 4;
  o.schedule = "banded";
  o.route = "hierarchical";
  o.wire = "quant12";
  o.batch = 256;
  o.pred_compute_s = 1.25;
  o.pred_point_passes = 2.5e8;
  o.pred_rate_pps = 2e8;
  o.pred_wire_s = 0.5;
  o.pred_intra_s = 0.125;
  o.pred_inter_s = 0.375;
  o.pred_bytes = 123456789;
  o.pred_intra_bytes = 23456789;
  o.pred_inter_bytes = 100000000;
  o.pred_intra_msgs = 96;
  o.pred_inter_msgs = 14;
  o.pred_memory_b = 1 << 30;
  o.pred_rel_error = 1.5e-3;
  o.meas_wall_s = 2.0;
  o.meas_compute_s = 1.5;
  o.meas_wire_s = 0.75;
  o.meas_intra_wire_s = 0.25;
  o.meas_inter_wire_s = 0.5;
  o.meas_bytes = 123456789;
  o.meas_intra_bytes = 23456789;
  o.meas_inter_bytes = 100000000;
  o.meas_intra_msgs = 96;
  o.meas_inter_msgs = 14;
  o.meas_memory_peak_b = (1 << 30) + 512;
  o.meas_max_quant_error = 7.5e-4;
  o.meas_barrier_wait_s = 0.0625;
  o.meas_recv_wait_s = 0.03125;
  return o;
}

TEST(ObsTelemetry, JsonLineRoundTripsEveryField) {
  const obs::PlanOutcome o = distinctive_outcome();
  const std::string line = obs::to_json_line(o);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single JSONL line

  obs::PlanOutcome r;
  ASSERT_TRUE(obs::parse_plan_outcome(line, r));
  EXPECT_EQ(r.v, o.v);
  EXPECT_EQ(r.source, o.source);
  EXPECT_EQ(r.aborted, o.aborted);
  EXPECT_EQ(r.n, o.n);
  EXPECT_EQ(r.ranks, o.ranks);
  EXPECT_EQ(r.nodes, o.nodes);
  EXPECT_EQ(r.k, o.k);
  EXPECT_EQ(r.far_rate, o.far_rate);
  EXPECT_EQ(r.schedule, o.schedule);
  EXPECT_EQ(r.route, o.route);
  EXPECT_EQ(r.wire, o.wire);
  EXPECT_EQ(r.batch, o.batch);
  EXPECT_DOUBLE_EQ(r.pred_compute_s, o.pred_compute_s);
  EXPECT_DOUBLE_EQ(r.pred_point_passes, o.pred_point_passes);
  EXPECT_DOUBLE_EQ(r.pred_rate_pps, o.pred_rate_pps);
  EXPECT_DOUBLE_EQ(r.pred_wire_s, o.pred_wire_s);
  EXPECT_DOUBLE_EQ(r.pred_intra_s, o.pred_intra_s);
  EXPECT_DOUBLE_EQ(r.pred_inter_s, o.pred_inter_s);
  EXPECT_EQ(r.pred_bytes, o.pred_bytes);
  EXPECT_EQ(r.pred_intra_bytes, o.pred_intra_bytes);
  EXPECT_EQ(r.pred_inter_bytes, o.pred_inter_bytes);
  EXPECT_EQ(r.pred_intra_msgs, o.pred_intra_msgs);
  EXPECT_EQ(r.pred_inter_msgs, o.pred_inter_msgs);
  EXPECT_EQ(r.pred_memory_b, o.pred_memory_b);
  EXPECT_DOUBLE_EQ(r.pred_rel_error, o.pred_rel_error);
  EXPECT_DOUBLE_EQ(r.meas_wall_s, o.meas_wall_s);
  EXPECT_DOUBLE_EQ(r.meas_compute_s, o.meas_compute_s);
  EXPECT_DOUBLE_EQ(r.meas_wire_s, o.meas_wire_s);
  EXPECT_DOUBLE_EQ(r.meas_intra_wire_s, o.meas_intra_wire_s);
  EXPECT_DOUBLE_EQ(r.meas_inter_wire_s, o.meas_inter_wire_s);
  EXPECT_EQ(r.meas_bytes, o.meas_bytes);
  EXPECT_EQ(r.meas_intra_bytes, o.meas_intra_bytes);
  EXPECT_EQ(r.meas_inter_bytes, o.meas_inter_bytes);
  EXPECT_EQ(r.meas_intra_msgs, o.meas_intra_msgs);
  EXPECT_EQ(r.meas_inter_msgs, o.meas_inter_msgs);
  EXPECT_EQ(r.meas_memory_peak_b, o.meas_memory_peak_b);
  EXPECT_DOUBLE_EQ(r.meas_max_quant_error, o.meas_max_quant_error);
  EXPECT_DOUBLE_EQ(r.meas_barrier_wait_s, o.meas_barrier_wait_s);
  EXPECT_DOUBLE_EQ(r.meas_recv_wait_s, o.meas_recv_wait_s);
}

// Repoint the global sink for one test, restoring the previous path on exit.
class ScopedTelemetryPath {
 public:
  explicit ScopedTelemetryPath(const std::string& path)
      : previous_(obs::TelemetrySink::global().path()) {
    obs::TelemetrySink::global().set_path(path);
    std::remove(path.c_str());  // each test starts with a fresh history
  }
  ~ScopedTelemetryPath() { obs::TelemetrySink::global().set_path(previous_); }

 private:
  std::string previous_;
};

TEST(ObsTelemetry, SinkAppendsLinesAndReaderSkipsGarbage) {
  const std::string path = testing::TempDir() + "lc_obs_telemetry_sink.jsonl";
  ScopedTelemetryPath scoped(path);
  ASSERT_TRUE(obs::telemetry_enabled());

  obs::record_plan_outcome(distinctive_outcome());
  obs::PlanOutcome second = distinctive_outcome();
  second.source = "service";
  second.aborted = false;
  obs::record_plan_outcome(second);
  {  // a torn / foreign line must be skipped by the reader, not fatal
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"v\":1,\"source\":\"pipeline\",\"aborted\":fal", f);
    std::fclose(f);
  }

  const auto records = obs::read_plan_outcomes(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].source, "pipeline");
  EXPECT_TRUE(records[0].aborted);
  EXPECT_EQ(records[1].source, "service");
  EXPECT_FALSE(records[1].aborted);

  // The drift gauges updated as a side effect: pred/meas = 1.25/1.5.
  EXPECT_NEAR(obs::Registry::global()
                  .gauge("planner.pred_over_actual_compute")
                  .value(),
              1.25 / 1.5, 1e-12);
}

TEST(ObsTelemetry, DistributedConvolveEmitsOnePlanOutcome) {
  const std::string path =
      testing::TempDir() + "lc_obs_telemetry_pipeline.jsonl";
  ScopedTelemetryPath scoped(path);

  const Grid3 grid = Grid3::cube(32);
  const int ranks = 2;
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  RealField input(grid);
  SplitMix64 rng(15);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  auto params = uniform_params(16, 2);
  params.wire = comm::WireCodec::kOff;

  comm::SimCluster cluster(ranks);
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params);

  const auto records = obs::read_plan_outcomes(path);
  ASSERT_EQ(records.size(), 1u);
  const obs::PlanOutcome& rec = records[0];
  EXPECT_EQ(rec.source, "pipeline");
  EXPECT_FALSE(rec.aborted);
  EXPECT_EQ(rec.n, 32);
  EXPECT_EQ(rec.k, 16);
  EXPECT_EQ(rec.ranks, ranks);
  EXPECT_EQ(rec.route, "flat");
  // The byte prediction is an exact mirror of the executed exchange.
  EXPECT_GT(rec.meas_bytes, 0);
  EXPECT_EQ(rec.pred_bytes, rec.meas_bytes);
  EXPECT_EQ(rec.meas_bytes,
            static_cast<std::int64_t>(cluster.stats().bytes_sent.load()));
  EXPECT_GT(rec.meas_compute_s, 0.0);
  EXPECT_GT(rec.pred_rate_pps, 0.0);

  // The predictions are the ones a per-call octree walk gives: the flat
  // exchange's pinned volume, and per rank one group — its z-layer of the
  // 2×2×2 decomposition, 32×32×16 — priced by the compute formula over a
  // freshly built group octree and by the group's pipeline plan, which
  // must equal the measured per-rank allocation peak exactly.
  EXPECT_EQ(rec.pred_bytes, 46656);
  EXPECT_EQ(rec.pred_intra_bytes, 0);
  EXPECT_EQ(rec.pred_inter_bytes, 46656);
  EXPECT_EQ(rec.pred_intra_msgs, 0);
  EXPECT_EQ(rec.pred_inter_msgs, 2);
  const core::DomainDecomposition decomp(grid, 16);
  double passes = 0.0;
  std::int64_t memory = 0;
  for (int r = 0; r < ranks; ++r) {
    const auto groups = decomp.groups_of(r, ranks);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], (Box3{{0, 0, 16 * r}, {32, 32, 16 * r + 16}}));
    const sampling::Octree tree(grid, groups[0], params.make_policy());
    passes = std::max(passes, obs::modeled_point_passes(
                                  32, 16, tree.retained_z_planes().size()));
    memory = std::max(
        memory, static_cast<std::int64_t>(
                    device::plan_local_pipeline(32, groups[0],
                                                params.make_policy(),
                                                params.batch)
                        .actual_total()));
  }
  EXPECT_EQ(rec.pred_point_passes, passes);
  EXPECT_EQ(rec.pred_memory_b, memory);
  EXPECT_GT(rec.meas_memory_peak_b, 0);
  EXPECT_EQ(rec.pred_memory_b, rec.meas_memory_peak_b);

  // A second call on the same cluster reuses its exchange plan; every
  // prediction must come out the same.
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params);
  const auto again = obs::read_plan_outcomes(path);
  ASSERT_EQ(again.size(), 2u);
  const obs::PlanOutcome& second = again[1];
  EXPECT_EQ(second.pred_bytes, rec.pred_bytes);
  EXPECT_EQ(second.pred_intra_bytes, rec.pred_intra_bytes);
  EXPECT_EQ(second.pred_inter_bytes, rec.pred_inter_bytes);
  EXPECT_EQ(second.pred_intra_msgs, rec.pred_intra_msgs);
  EXPECT_EQ(second.pred_inter_msgs, rec.pred_inter_msgs);
  EXPECT_EQ(second.pred_wire_s, rec.pred_wire_s);
  EXPECT_EQ(second.pred_intra_s, rec.pred_intra_s);
  EXPECT_EQ(second.pred_inter_s, rec.pred_inter_s);
  EXPECT_EQ(second.pred_point_passes, rec.pred_point_passes);
  EXPECT_EQ(second.pred_compute_s, rec.pred_compute_s);
  EXPECT_EQ(second.pred_memory_b, rec.pred_memory_b);
  EXPECT_EQ(second.pred_bytes, second.meas_bytes);
}

TEST(ObsTelemetry, MaxQuantErrorIsMeasuredPerCall) {
  // Each record carries its own call's codec error: an off-codec call after
  // a q16 call on the same cluster records exactly 0, although the
  // process-wide exchange.max_quant_error gauge still holds the q16 value.
  const std::string path =
      testing::TempDir() + "lc_obs_telemetry_quant_error.jsonl";
  ScopedTelemetryPath scoped(path);

  const Grid3 grid = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  RealField input(grid);
  SplitMix64 rng(16);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  comm::SimCluster cluster(2);
  auto params = uniform_params(16, 2);
  params.wire = comm::WireCodec::kQ16;
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params);
  params.wire = comm::WireCodec::kOff;
  (void)core::distributed_lowcomm_convolve(cluster, input, grid, kernel,
                                           params);

  const auto records = obs::read_plan_outcomes(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].wire, "q16");
  EXPECT_GT(records[0].meas_max_quant_error, 0.0);
  EXPECT_EQ(records[1].wire, "off");
  EXPECT_EQ(records[1].meas_max_quant_error, 0.0);
  EXPECT_GT(obs::Registry::global().gauge("exchange.max_quant_error").value(),
            0.0);
}

// The recorder frames the shape from (source, n, ranks, nodes, params,
// route), diffs the cluster counters, and marks a record emitted while its
// scope unwinds as aborted — exactly one record per scope either way.
TEST(ObsTelemetry, RecorderFramesShapeAndMarksUnwindingAborted) {
  const std::string path =
      testing::TempDir() + "lc_obs_telemetry_recorder.jsonl";
  ScopedTelemetryPath scoped(path);

  auto params = uniform_params(16, 4);
  params.wire = comm::WireCodec::kQ16;
  params.batch = 128;
  comm::SimCluster cluster(2);
  {
    obs::PlanOutcomeRecorder recorder("pipeline", 64, 2, 1, params, "flat",
                                      &cluster);
    recorder.outcome().pred_bytes = 42;
    cluster.run([](comm::Rank& rank) {
      std::vector<double> payload(4, 1.0);
      if (rank.id() == 0) rank.send(1, payload);
      if (rank.id() == 1) (void)rank.recv(0);
    });
  }
  try {
    obs::PlanOutcomeRecorder recorder("service", 32, 1, 1,
                                      uniform_params(8, 2), "local");
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }

  const auto records = obs::read_plan_outcomes(path);
  ASSERT_EQ(records.size(), 2u);
  const obs::PlanOutcome& ok = records[0];
  EXPECT_FALSE(ok.aborted);
  EXPECT_EQ(ok.source, "pipeline");
  EXPECT_EQ(ok.n, 64);
  EXPECT_EQ(ok.ranks, 2);
  EXPECT_EQ(ok.nodes, 1);
  EXPECT_EQ(ok.k, 16);
  EXPECT_EQ(ok.far_rate, 4);
  EXPECT_EQ(ok.schedule, "uniform");
  EXPECT_EQ(ok.route, "flat");
  EXPECT_EQ(ok.wire, "q16");
  EXPECT_EQ(ok.batch, 128);
  EXPECT_EQ(ok.pred_bytes, 42);
  EXPECT_EQ(ok.meas_bytes,
            static_cast<std::int64_t>(cluster.stats().bytes_sent.load()));
  EXPECT_EQ(ok.meas_bytes, 4 * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_GT(ok.meas_wall_s, 0.0);
  const obs::PlanOutcome& unwound = records[1];
  EXPECT_TRUE(unwound.aborted);
  EXPECT_EQ(unwound.source, "service");
  EXPECT_EQ(unwound.route, "local");
  EXPECT_EQ(unwound.meas_bytes, 0);
}

// A service record leaves the memory peak unset: wave-mates share the
// service's device, so its lifetime peak (which the first, larger request
// set) is no measure of a later request's own footprint.
TEST(ObsTelemetry, ServiceRecordsLeaveMemoryPeakUnset) {
  const std::string path =
      testing::TempDir() + "lc_obs_telemetry_service_memory.jsonl";
  ScopedTelemetryPath scoped(path);
  runtime::ConvolutionService service;
  for (const i64 n : {i64{32}, i64{16}}) {
    const Grid3 grid = Grid3::cube(n);
    RealField input(grid);
    SplitMix64 rng(17);
    for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);
    runtime::ConvolutionRequest req;
    req.input = input;
    req.kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
    req.params = uniform_params(8, 2);
    (void)service.run(std::move(req));
  }
  EXPECT_GT(service.device().peak_bytes(), 0u);
  const auto records = obs::read_plan_outcomes(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].source, "service");
  EXPECT_EQ(records[1].n, 16);
  EXPECT_EQ(records[1].meas_memory_peak_b, 0);
  EXPECT_GT(records[1].pred_memory_b, 0);
}

TEST(ObsService, DriftStatsPairPredictedWithMeasuredSeconds) {
  ScopedTelemetryPath scoped("");  // keep this test off any ambient sink
  runtime::ConvolutionService service;

  const Grid3 grid = Grid3::cube(32);
  RealField input(grid);
  SplitMix64 rng(16);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  runtime::ConvolutionRequest req;
  req.input = input;
  req.kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  req.params = uniform_params(16, 2);
  req.subdomain = 0;
  const auto response = service.run(std::move(req));

  EXPECT_GT(response.stats.predicted_seconds, 0.0);
  EXPECT_GT(response.stats.measured_seconds, 0.0);
  EXPECT_GT(response.stats.pred_over_actual(), 0.0);

  const runtime::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.planned, 1u);
  EXPECT_GT(stats.drift_p50_ratio, 0.0);
  EXPECT_GE(stats.drift_p95_ratio, stats.drift_p50_ratio);
}

}  // namespace
