// Tests for the execution planner (src/planner): the Eqn 6 volume and
// accuracy heuristics it prices with, agreement between its per-level wire
// predictions and executed cluster stats, the planner-vs-exhaustive oracle,
// plan caching in the runtime ResourceCache, and the Mode::kOff
// bit-for-bit escape hatch through ConvolutionService.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "comm/cost_model.hpp"
#include "comm/sim_cluster.hpp"
#include "common/rng.hpp"
#include "green/gaussian.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "planner/calibration.hpp"
#include "planner/planner.hpp"
#include "runtime/plan_provider.hpp"
#include "runtime/service.hpp"
#include "sampling/octree.hpp"

namespace lc::planner {
namespace {

RealField random_field(const Grid3& g, std::uint64_t seed) {
  RealField f(g);
  SplitMix64 rng(seed);
  for (auto& v : f.span()) v = rng.uniform(-1.0, 1.0);
  return f;
}

core::LowCommParams params_of(i64 k, i64 rate) {
  core::LowCommParams p;
  p.subdomain = k;
  p.far_rate = rate;
  p.uniform_rate = rate;
  p.batch = 256;
  return p;
}

// --- Eqn 6 volume monotonicity ---------------------------------------------

TEST(PlannerModel, Eqn6VolumeFallsMonotonicallyWithRate) {
  // Closed form: k³ + (N³−k³)/r³ strictly decreases in r (N > k).
  const i64 n = 128, k = 32;
  double prev = std::numeric_limits<double>::infinity();
  for (const double r : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double pts = comm::lowcomm_exchange_points(n, k, r);
    EXPECT_LT(pts, prev) << "not strictly decreasing at r=" << r;
    prev = pts;
  }
}

TEST(PlannerModel, MeasuredOctreeSamplesFallMonotonicallyWithRate) {
  // The executable counterpart: real octree payload is non-increasing in
  // the uniform exterior rate (the dense k³ core is rate-independent).
  const Grid3 g = Grid3::cube(64);
  const i64 k = 16;
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (const i64 r : {i64{2}, i64{4}, i64{8}, i64{16}}) {
    const sampling::Octree tree(g, Box3::cube_at({0, 0, 0}, k),
                                sampling::SamplingPolicy::uniform(r));
    EXPECT_LE(tree.total_samples(), prev) << "grew at r=" << r;
    EXPECT_GE(tree.total_samples(),
              static_cast<std::size_t>(k * k * k));  // dense core floor
    prev = tree.total_samples();
  }
}

TEST(PlannerModel, PredictedErrorMonotoneInRateAndBounded) {
  double prev = -1.0;
  for (const i64 r : {i64{1}, i64{2}, i64{4}, i64{8}, i64{16}, i64{32}}) {
    const double e = predicted_rel_error(128, 32, r, RateSchedule::kBanded);
    EXPECT_GT(e, prev);
    prev = e;
  }
  // Banded schedules keep the near field denser → lower predicted error
  // than uniform at equal exterior rate.
  EXPECT_LT(predicted_rel_error(128, 32, 16, RateSchedule::kBanded),
            predicted_rel_error(128, 32, 16, RateSchedule::kUniform));
  // Calibration anchor: the paper's defaults stay inside its ≤3% regime.
  EXPECT_LE(predicted_rel_error(128, 32, 4, RateSchedule::kBanded), 0.03);
}

// --- Wire-time prediction vs executed stats --------------------------------

class PlannerWire : public ::testing::TestWithParam<bool> {};

TEST_P(PlannerWire, PredictedTimesMatchExecutedModeledNanos) {
  // predict_exchange_times over the static traffic mirror must agree with
  // the modeled_nanos a real cluster accumulates while executing the same
  // exchange — on the flat AND the grouped topology. The only slack is the
  // per-message nanosecond rounding of the executed counter.
  const bool grouped = GetParam();
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const auto p = params_of(16, 2);
  const comm::Topology topo = grouped ? comm::Topology::grouped(4, 2)
                                      : comm::Topology::flat(4);
  const comm::HierarchicalLinkModel links{};  // defaults: intra ≪ inter

  const RealField input = random_field(g, 7);
  comm::SimCluster cluster(topo, links);
  (void)core::distributed_lowcomm_convolve(cluster, input, g, kernel, p);

  const comm::LevelTraffic traffic =
      core::lowcomm_exchange_traffic(g, p, topo);
  const comm::LevelTimes want = comm::predict_exchange_times(traffic, links);
  const double got = cluster.stats().modeled_seconds();
  const double slack =
      static_cast<double>(traffic.total_messages() + 1) * 2e-9;
  EXPECT_NEAR(got, want.total_seconds(), slack)
      << (grouped ? "grouped" : "flat") << " topology disagrees";
}

INSTANTIATE_TEST_SUITE_P(Topologies, PlannerWire, ::testing::Bool());

// --- Enumeration and pricing -----------------------------------------------

PlanRequest small_request() {
  PlanRequest req;
  req.n = 32;
  req.ranks = 8;
  req.topology = comm::Topology::grouped(8, 4);
  return req;
}

TEST(Planner, EnumerationCoversDivisorsSchedulesAndRoutes) {
  const Planner planner;
  const auto ranked = planner.enumerate(small_request());
  ASSERT_FALSE(ranked.empty());
  bool saw_banded = false, saw_uniform = false, saw_hier = false,
       saw_slab = false, saw_pencil = false;
  for (const auto& rc : ranked) {
    if (rc.candidate.kind == DecompKind::kSlab) saw_slab = true;
    if (rc.candidate.kind == DecompKind::kPencil) saw_pencil = true;
    if (rc.candidate.kind != DecompKind::kBlock) continue;
    EXPECT_EQ(32 % rc.candidate.params.subdomain, 0)
        << "enumerated k must divide N";
    if (rc.candidate.schedule == RateSchedule::kBanded) saw_banded = true;
    if (rc.candidate.schedule == RateSchedule::kUniform) saw_uniform = true;
    if (rc.candidate.route == core::ExchangeRoute::kHierarchical) {
      saw_hier = true;
    }
  }
  EXPECT_TRUE(saw_banded && saw_uniform && saw_hier && saw_slab && saw_pencil);
  // Ranking invariant: feasible candidates strictly precede infeasible
  // ones, and are sorted by modeled total.
  double prev = 0.0;
  bool seen_infeasible = false;
  for (const auto& rc : ranked) {
    if (!rc.cost.feasible) {
      seen_infeasible = true;
      continue;
    }
    EXPECT_FALSE(seen_infeasible) << "feasible candidate after infeasible";
    EXPECT_GE(rc.cost.total_seconds(), prev);
    prev = rc.cost.total_seconds();
  }
}

TEST(Planner, NeverSelectsMemoryInfeasiblePlan) {
  PlanRequest req = small_request();
  // ~25 MB: enough for small-k pipelines at N=32, too small for k=32.
  req.device = device::DeviceSpec{"small", 25u << 20};
  const Planner planner;
  const ExecutionPlan plan = planner.plan(req);
  EXPECT_TRUE(plan.cost.feasible);
  EXPECT_LE(plan.cost.memory_bytes, req.device.capacity_bytes);
  for (const auto& rc : plan.ranked) {
    if (rc.candidate.kind != DecompKind::kBlock || rc.cost.feasible) continue;
    EXPECT_FALSE(rc.cost.infeasible_reason.empty());
  }
}

TEST(Planner, ThrowsWithClearMessageWhenNothingFits) {
  PlanRequest req = small_request();
  req.device = device::DeviceSpec{"hopeless", 1024};
  const Planner planner;
  try {
    (void)planner.plan(req);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hopeless"), std::string::npos);
    EXPECT_NE(what.find("32"), std::string::npos);
  }
}

TEST(Planner, PickWithinTenPercentOfExhaustiveExactSweep) {
  // Oracle: exact-reprice EVERY feasible block candidate with the real
  // octree traffic walk (the planner only exact-prices its closed-form
  // shortlist) and demand the planner's pick lands within 10% of the best
  // exact-priced total. This is what makes the closed-form screening
  // trustworthy.
  const PlanRequest req = small_request();
  const Planner planner;
  const ExecutionPlan plan = planner.plan(req);

  const Grid3 g = Grid3::cube(req.n);
  const auto exact_total = [&](const RankedCandidate& rc) {
    const auto traffic = core::lowcomm_exchange_traffic(
        g, rc.candidate.params, req.topology, rc.candidate.route);
    return rc.cost.compute_seconds +
           comm::predict_exchange_times(traffic, req.links).total_seconds();
  };

  double best = std::numeric_limits<double>::infinity();
  for (const auto& rc : plan.ranked) {
    if (rc.candidate.kind != DecompKind::kBlock || !rc.cost.feasible) continue;
    best = std::min(best, exact_total(rc));
  }
  ASSERT_TRUE(std::isfinite(best));

  RankedCandidate picked;
  picked.candidate = plan.choice;
  picked.cost = plan.cost;
  EXPECT_LE(exact_total(picked), 1.10 * best)
      << "planner pick " << plan.choice.name()
      << " more than 10% above the exhaustive exact sweep";
}

TEST(Planner, PinnedModeRepairsIllegalSubdomain) {
  PlanRequest req = small_request();
  core::LowCommParams p = params_of(12, 4);  // 12 does not divide 32
  req.pinned = p;
  const Planner planner;
  const ExecutionPlan plan = planner.plan(req);
  EXPECT_EQ(plan.params().subdomain, 8);  // largest divisor <= 12
  EXPECT_EQ(32 % plan.params().subdomain, 0);
  // Everything the caller pinned that IS legal passes through untouched.
  EXPECT_EQ(plan.params().far_rate, 4);
  EXPECT_EQ(plan.params().uniform_rate, std::optional<i64>{4});
  EXPECT_EQ(plan.params().batch, 256u);
}

TEST(Planner, EnumerationSpansCodecGridAndPricesIt) {
  // The planner searches the codec dimension: the same
  // (k, schedule, r, route) shape appears once per grid codec, lossy codecs
  // carry their quantization term in the accuracy screen, and 2-byte codecs
  // price at a fraction of the fp64 wire bytes.
  PlannerConfig cfg;
  cfg.exact_top = 0;  // keep every price closed-form → comparable pairs
  const Planner planner(cfg);
  ASSERT_EQ(planner.config().codec_grid.size(), 4u);
  const auto ranked = planner.enumerate(small_request());

  const auto find = [&](comm::WireCodec codec) -> const RankedCandidate* {
    for (const auto& rc : ranked) {
      if (rc.candidate.kind == DecompKind::kBlock &&
          rc.candidate.params.wire == codec &&
          rc.candidate.params.subdomain == 8 &&
          rc.candidate.schedule == RateSchedule::kUniform &&
          rc.candidate.params.uniform_rate == i64{2} &&
          rc.candidate.route == core::ExchangeRoute::kFlat) {
        return &rc;
      }
    }
    return nullptr;
  };
  const RankedCandidate* off = find(comm::WireCodec::kOff);
  const RankedCandidate* q16 = find(comm::WireCodec::kQ16);
  ASSERT_NE(off, nullptr);
  ASSERT_NE(q16, nullptr);
  EXPECT_NEAR(q16->cost.predicted_rel_error - off->cost.predicted_rel_error,
              comm::codec_rel_error(comm::WireCodec::kQ16), 1e-12);
  EXPECT_LT(q16->cost.exchange_bytes, 0.5 * off->cost.exchange_bytes);
  EXPECT_NE(q16->candidate.name().find("wire=q16"), std::string::npos);
  EXPECT_EQ(off->candidate.name().find("wire="), std::string::npos);
}

TEST(Planner, CodecGridPinsTheSearchedCodec) {
  // The default grid spans the useful codecs; a one-codec grid pins the
  // wire format, so every block candidate and the pick carry that codec.
  EXPECT_EQ(PlannerConfig{}.codec_grid,
            (std::vector<comm::WireCodec>{
                comm::WireCodec::kOff, comm::WireCodec::kFp32,
                comm::WireCodec::kBf16, comm::WireCodec::kQ16}));
  PlannerConfig cfg;
  cfg.codec_grid = {comm::WireCodec::kBf16};
  const Planner planner(cfg);
  for (const auto& rc : planner.enumerate(small_request())) {
    if (rc.candidate.kind == DecompKind::kBlock) {
      EXPECT_EQ(rc.candidate.params.wire, comm::WireCodec::kBf16);
    }
  }
  EXPECT_EQ(planner.plan(small_request()).params().wire,
            comm::WireCodec::kBf16);
}

// --- Plan caching through the runtime ResourceCache ------------------------

TEST(PlanProvider, WarmLookupSkipsEnumeration) {
  runtime::ResourceCache cache(
      runtime::ResourceCache::Config{64u << 20, nullptr, 4});
  const Planner planner;
  PlanRequest req = small_request();

  auto& hits = obs::Registry::global().counter("planner.cache_hits");
  auto& misses = obs::Registry::global().counter("planner.cache_misses");
  auto& plans = obs::Registry::global().counter("planner.plans");
  const auto h0 = hits.value(), m0 = misses.value(), p0 = plans.value();

  bool hit = true;
  const auto a = runtime::plan_cached(cache, planner, req, &hit);
  EXPECT_FALSE(hit);
  const auto b = runtime::plan_cached(cache, planner, req, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), b.get());  // same resident plan object
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);
  // The planner itself ran exactly once — the warm lookup did not
  // re-enumerate.
  EXPECT_EQ(plans.value(), p0 + 1);

  // A different shape is a different key.
  req.n = 64;
  (void)runtime::plan_cached(cache, planner, req, &hit);
  EXPECT_FALSE(hit);
}

TEST(PlanProvider, CacheKeySeparatesShapeTopologyDeviceAndPin) {
  PlanRequest req = small_request();
  const std::string base = cache_key(req, Mode::kAnalytic);
  EXPECT_EQ(base.rfind("execplan/", 0), 0u);  // planner namespace prefix

  PlanRequest other = req;
  other.n = 64;
  EXPECT_NE(cache_key(other, Mode::kAnalytic), base);
  other = req;
  other.topology = comm::Topology::flat(8);
  EXPECT_NE(cache_key(other, Mode::kAnalytic), base);
  other = req;
  other.device = device::DeviceSpec::v100_16gb();
  EXPECT_NE(cache_key(other, Mode::kAnalytic), base);
  other = req;
  other.pinned = params_of(8, 4);
  EXPECT_NE(cache_key(other, Mode::kAnalytic), base);
  EXPECT_NE(cache_key(req, Mode::kOff), base);
  // The wire codec seeds the candidate grid, so it salts the key too —
  // both the base codec and a pinned-params codec.
  other = req;
  other.base.wire = comm::WireCodec::kQ16;
  EXPECT_NE(cache_key(other, Mode::kAnalytic), base);
  other = req;
  other.pinned = params_of(8, 4);
  const std::string pinned_off = cache_key(other, Mode::kAnalytic);
  other.pinned->wire = comm::WireCodec::kBf16;
  EXPECT_NE(cache_key(other, Mode::kAnalytic), pinned_off);
}

// --- Service integration ---------------------------------------------------

TEST(ServicePlanner, OffModeMatchesPlannedPinnedRunBitForBit) {
  // Mode::kOff must reproduce the pre-planner service behaviour
  // exactly; with legal pinned params the planner changes nothing, so the
  // two runs must agree bit for bit.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 11);

  const auto run_with = [&](planner::Mode mode) {
    runtime::ServiceConfig config;
    config.planner_mode = mode;
    config.pool = nullptr;
    runtime::ConvolutionService service(config);
    runtime::ConvolutionRequest request{input, kernel, params_of(16, 2), {}, {}};
    return service.run(std::move(request));
  };

  const auto off = run_with(Mode::kOff);
  const auto analytic = run_with(Mode::kAnalytic);
  const auto off_span = off.result.output.span();
  const auto on_span = analytic.result.output.span();
  ASSERT_EQ(off_span.size(), on_span.size());
  for (std::size_t i = 0; i < off_span.size(); ++i) {
    ASSERT_EQ(off_span[i], on_span[i]) << "bit drift at " << i;
  }
  EXPECT_EQ(off.result.exchanged_bytes, analytic.result.exchanged_bytes);
}

TEST(ServicePlanner, AutoPlansWhenSubdomainUnset) {
  // params.subdomain == 0 asks the service for a full auto-tuned plan; the
  // planner must hand back a legal k and the request must succeed.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 13);

  runtime::ServiceConfig config;
  config.planner_mode = Mode::kAnalytic;
  config.pool = nullptr;
  runtime::ConvolutionService service(config);

  core::LowCommParams p;
  p.subdomain = 0;  // sentinel: plan for me
  auto first = service.run(
      runtime::ConvolutionRequest{input, kernel, p, {}, {}});
  EXPECT_FALSE(first.stats.plan_cache_hit);
  EXPECT_GT(first.result.output.span().size(), 0u);

  // Same shape again: the winning plan is found warm in the cache.
  auto second = service.run(
      runtime::ConvolutionRequest{input, kernel, p, {}, {}});
  EXPECT_TRUE(second.stats.plan_cache_hit);
}

// --- Calibration: fitting the history back into the pricing ---------------

// A distributed plan-vs-actual record whose measured compute implies the
// given rate (pred_point_passes / meas_compute_s == rate).
obs::PlanOutcome record_with_rate(double rate, int ranks = 4,
                                  bool aborted = false) {
  obs::PlanOutcome r;
  r.source = "pipeline";
  r.ranks = ranks;
  r.nodes = 2;
  r.pred_point_passes = 1e9;
  r.meas_compute_s = 1e9 / rate;
  r.aborted = aborted;
  return r;
}

TEST(PlannerCalibration, FitTakesMedianRateAndSkipsUnusableRecords) {
  std::vector<obs::PlanOutcome> records;
  records.push_back(record_with_rate(1e8));
  records.push_back(record_with_rate(4e8));
  records.push_back(record_with_rate(2e8));
  // None of these may steer the fit: an aborted run, a single-rank service
  // record, and a record with no measured compute at all.
  records.push_back(record_with_rate(1e12, 4, /*aborted=*/true));
  records.push_back(record_with_rate(1e12, 1));
  records.push_back([] {
    obs::PlanOutcome r = record_with_rate(1e8);
    r.meas_compute_s = 0.0;
    return r;
  }());

  const Calibration cal = fit_calibration(records);
  EXPECT_TRUE(cal.valid);
  EXPECT_EQ(cal.samples, 3);
  EXPECT_DOUBLE_EQ(cal.rate_pps, 2e8);  // median, not mean
}

TEST(PlannerCalibration, BelowMinSamplesFitIsInvalidAndApplyIsNoOp) {
  const Calibration cal =
      fit_calibration({record_with_rate(1e8)});  // one lone record
  EXPECT_FALSE(cal.valid);
  EXPECT_EQ(cal.samples, 1);
  EXPECT_EQ(cal.cache_salt(), "-");

  const PlanRequest untouched = apply_calibration(PlanRequest{}, cal);
  const PlanRequest defaults;
  EXPECT_DOUBLE_EQ(untouched.compute_rate_pps, defaults.compute_rate_pps);
  EXPECT_DOUBLE_EQ(untouched.links.intra.alpha, defaults.links.intra.alpha);
  EXPECT_DOUBLE_EQ(untouched.links.inter.beta, defaults.links.inter.beta);
}

TEST(PlannerCalibration, AlphaBetaFitRecoversPlantedLinkModel) {
  // Synthesize executed wire times from a known α-β on both levels with
  // non-collinear (messages, bytes) shapes: least squares must recover the
  // planted coefficients (the data is exactly linear, so up to rounding).
  const double ia = 5e-6, ib = 2e-9, oa = 2e-5, obeta = 9e-9;
  const double msgs[4] = {10.0, 20.0, 40.0, 5.0};
  const double bytes[4] = {1e6, 3e6, 2e6, 8e6};
  std::vector<obs::PlanOutcome> records;
  for (int i = 0; i < 4; ++i) {
    obs::PlanOutcome r = record_with_rate(2e8);
    r.meas_intra_msgs = static_cast<std::int64_t>(msgs[i]);
    r.meas_intra_bytes = static_cast<std::int64_t>(bytes[i]);
    r.meas_intra_wire_s = ia * msgs[i] + ib * bytes[i];
    r.meas_inter_msgs = static_cast<std::int64_t>(msgs[i] * 2);
    r.meas_inter_bytes = static_cast<std::int64_t>(bytes[i] * 3);
    r.meas_inter_wire_s = oa * msgs[i] * 2 + obeta * bytes[i] * 3;
    records.push_back(r);
  }

  const Calibration cal = fit_calibration(records);
  ASSERT_TRUE(cal.valid);
  EXPECT_NEAR(cal.intra_alpha, ia, ia * 1e-6);
  EXPECT_NEAR(cal.intra_beta, ib, ib * 1e-6);
  EXPECT_NEAR(cal.inter_alpha, oa, oa * 1e-6);
  EXPECT_NEAR(cal.inter_beta, obeta, obeta * 1e-6);
}

TEST(PlannerCalibration, SaveLoadRoundTripsAndMissingFileIsInvalid) {
  Calibration cal;
  cal.valid = true;
  cal.samples = 7;
  cal.rate_pps = 3.25e8;
  cal.intra_alpha = 5e-7;
  cal.intra_beta = 2.5e-11;
  cal.inter_alpha = 1.5e-6;
  cal.inter_beta = 1.25e-10;

  const std::string path = testing::TempDir() + "lc_planner_cal.json";
  ASSERT_TRUE(save_calibration(cal, path));
  const Calibration loaded = load_calibration(path);
  EXPECT_TRUE(loaded.valid);
  EXPECT_EQ(loaded.samples, cal.samples);
  EXPECT_DOUBLE_EQ(loaded.rate_pps, cal.rate_pps);
  EXPECT_DOUBLE_EQ(loaded.intra_alpha, cal.intra_alpha);
  EXPECT_DOUBLE_EQ(loaded.intra_beta, cal.intra_beta);
  EXPECT_DOUBLE_EQ(loaded.inter_alpha, cal.inter_alpha);
  EXPECT_DOUBLE_EQ(loaded.inter_beta, cal.inter_beta);
  EXPECT_EQ(loaded.cache_salt(), cal.cache_salt());
  std::remove(path.c_str());

  EXPECT_FALSE(load_calibration(path).valid);  // gone → invalid, no throw
}

TEST(PlannerCalibration, ApplySubstitutesFittedRateAndLinks) {
  Calibration cal;
  cal.valid = true;
  cal.samples = 3;
  cal.rate_pps = 3.5e8;
  cal.intra_alpha = 4e-7;
  cal.intra_beta = 3e-11;
  cal.inter_alpha = 2e-6;
  cal.inter_beta = 2e-10;

  const PlanRequest req = apply_calibration(PlanRequest{}, cal);
  EXPECT_DOUBLE_EQ(req.compute_rate_pps, 3.5e8);
  EXPECT_DOUBLE_EQ(req.links.intra.alpha, 4e-7);
  EXPECT_DOUBLE_EQ(req.links.intra.beta, 3e-11);
  EXPECT_DOUBLE_EQ(req.links.inter.alpha, 2e-6);
  EXPECT_DOUBLE_EQ(req.links.inter.beta, 2e-10);
}

TEST(PlannerCalibration, EnvCalibrationRescalesPlansAndSaltsCacheKeys) {
  // Pin the candidate so both plans price the SAME pipeline; double the
  // compute rate and keep the default link model, and the planner's
  // compute price must exactly halve. The cache key must change with the
  // fit so stale cached plans cannot survive a recalibration.
  PlanRequest req = small_request();
  req.pinned = params_of(16, 2);
  const Planner planner;

  ::unsetenv("LC_CALIBRATION");
  reload_calibration();
  const ExecutionPlan before = planner.plan(req);
  const std::string key_before = cache_key(req, Mode::kAnalytic);
  EXPECT_NE(key_before.find("/cal=-"), std::string::npos);

  Calibration cal;
  cal.valid = true;
  cal.samples = 2;
  cal.rate_pps = 2.0 * PlanRequest{}.compute_rate_pps;
  cal.intra_alpha = comm::HierarchicalLinkModel{}.intra.alpha;
  cal.intra_beta = comm::HierarchicalLinkModel{}.intra.beta;
  cal.inter_alpha = comm::HierarchicalLinkModel{}.inter.alpha;
  cal.inter_beta = comm::HierarchicalLinkModel{}.inter.beta;
  const std::string path = testing::TempDir() + "lc_planner_env_cal.json";
  ASSERT_TRUE(save_calibration(cal, path));
  ::setenv("LC_CALIBRATION", path.c_str(), 1);
  reload_calibration();

  const ExecutionPlan after = planner.plan(req);
  EXPECT_EQ(after.params().subdomain, before.params().subdomain);
  EXPECT_NEAR(after.cost.compute_seconds, 0.5 * before.cost.compute_seconds,
              1e-12 * before.cost.compute_seconds);
  const std::string key_after = cache_key(req, Mode::kAnalytic);
  EXPECT_NE(key_after, key_before);
  EXPECT_NE(key_after.find("/cal=s2:"), std::string::npos);

  ::unsetenv("LC_CALIBRATION");
  reload_calibration();
  std::remove(path.c_str());
  EXPECT_EQ(cache_key(req, Mode::kAnalytic), key_before);
}

}  // namespace
}  // namespace lc::planner
