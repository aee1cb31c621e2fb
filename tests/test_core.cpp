// Tests for the low-communication convolution core: decomposition, local
// convolver, accumulation, the end-to-end pipeline, and hyperparameters.
//
// The central correctness property: with rate-1 (lossless) sampling the
// sum of per-sub-domain local convolutions equals the dense convolution to
// machine precision; with real compression the error stays small for
// decaying kernels and shrinks as rates shrink.
#include <gtest/gtest.h>

#include "baseline/dense.hpp"
#include "common/rng.hpp"
#include "core/decomposition.hpp"
#include "core/hyperparams.hpp"
#include "core/pipeline.hpp"
#include "fft/convolution.hpp"
#include "green/gaussian.hpp"
#include "green/poisson.hpp"

namespace lc::core {
namespace {

RealField random_field(const Grid3& g, std::uint64_t seed) {
  RealField f(g);
  SplitMix64 rng(seed);
  for (auto& v : f.span()) v = rng.uniform(-1.0, 1.0);
  return f;
}

TEST(Decomposition, SplitsGridExactly) {
  const DomainDecomposition d(Grid3::cube(64), 16);
  EXPECT_EQ(d.count(), 64u);  // 4³
  std::size_t vol = 0;
  for (const auto& b : d.subdomains()) {
    EXPECT_EQ(b.extents(), Grid3::cube(16));
    vol += b.volume();
  }
  EXPECT_EQ(vol, Grid3::cube(64).size());
}

TEST(Decomposition, SingleDomainWhenKEqualsN) {
  const DomainDecomposition d(Grid3::cube(32), 32);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.subdomain(0), Box3::of(Grid3::cube(32)));
}

TEST(Decomposition, AssignmentsCoverAllWithoutOverlap) {
  const DomainDecomposition d(Grid3::cube(64), 16);
  std::vector<int> owner(d.count(), -1);
  for (int r = 0; r < 3; ++r) {
    for (const auto i : d.assigned_to(r, 3)) {
      EXPECT_EQ(owner[i], -1);
      owner[i] = r;
    }
  }
  for (const int o : owner) EXPECT_NE(o, -1);
}

TEST(Decomposition, BlockedMortonAssignmentIsSpatiallyCompact) {
  // 64 sub-domains over 8 ranks: each rank's blocked-Morton share must be
  // one 2x2x2 octant (a 32-cube). Compactness is what makes node-grouped
  // ranks share octree cells — the locality the hierarchical exchange and
  // the planner's node-dedup model rely on.
  const DomainDecomposition d(Grid3::cube(64), 16);
  for (int r = 0; r < 8; ++r) {
    const auto mine = d.assigned_to(r, 8);
    ASSERT_EQ(mine.size(), 8u);
    Box3 hull = d.subdomain(mine.front());
    for (const auto i : mine) {
      const Box3& b = d.subdomain(i);
      hull.lo = {std::min(hull.lo.x, b.lo.x), std::min(hull.lo.y, b.lo.y),
                 std::min(hull.lo.z, b.lo.z)};
      hull.hi = {std::max(hull.hi.x, b.hi.x), std::max(hull.hi.y, b.hi.y),
                 std::max(hull.hi.z, b.hi.z)};
    }
    EXPECT_EQ(hull.extents().size(), Grid3::cube(32).size())
        << "rank " << r << " does not own a compact octant";
  }
}

TEST(Hyperparams, SubdomainDivisorsDescendAndDivide) {
  const auto divs = core::subdomain_divisors(96);
  ASSERT_FALSE(divs.empty());
  EXPECT_EQ(divs.front(), 96);
  EXPECT_EQ(divs.back(), 2);
  for (std::size_t i = 0; i + 1 < divs.size(); ++i) {
    EXPECT_GT(divs[i], divs[i + 1]);
  }
  for (const i64 k : divs) EXPECT_EQ(96 % k, 0);
}

TEST(Hyperparams, SelectedSubdomainAlwaysDividesN) {
  // N = 96 on an unlimited device: the pow2 memory probe reports 64, which
  // does not divide 96 — the advice must fall back to a real divisor, not
  // hand DomainDecomposition an illegal k.
  for (const i64 n : {i64{96}, i64{72}, i64{128}, i64{48}}) {
    const auto advice =
        core::select_hyperparams(n, device::DeviceSpec::unlimited());
    EXPECT_GE(advice.subdomain, 1);
    EXPECT_EQ(n % advice.subdomain, 0)
        << "k=" << advice.subdomain << " does not divide N=" << n;
    const DomainDecomposition d(Grid3::cube(n), advice.subdomain);
    EXPECT_GE(d.count(), 1u);
  }
}

TEST(Hyperparams, ImpossibleDeviceGivesClearError) {
  const device::DeviceSpec tiny{"toy", 1024};
  try {
    (void)core::select_hyperparams(4096, tiny);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("toy"), std::string::npos);
    EXPECT_NE(what.find("4096"), std::string::npos);
  }
}

TEST(Decomposition, RejectsIndivisibleShapes) {
  EXPECT_THROW(DomainDecomposition(Grid3::cube(64), 17), InvalidArgument);
  EXPECT_THROW(DomainDecomposition(Grid3{64, 64, 32}, 16), InvalidArgument);
  EXPECT_THROW(DomainDecomposition(Grid3::cube(64), 128), InvalidArgument);
}

// --- Local convolver ------------------------------------------------------

class LocalConvolverTest : public ::testing::Test {
 protected:
  static constexpr i64 kN = 32;
  Grid3 grid_ = Grid3::cube(kN);
  std::shared_ptr<green::GaussianSpectrum> kernel_ =
      std::make_shared<green::GaussianSpectrum>(grid_, 1.5);
  fft::Fft3D plan_{grid_};

  /// Dense reference: chunk zero-embedded, full FFT convolution.
  RealField reference(const RealField& chunk, const Index3& corner) {
    RealField padded(grid_, 0.0);
    padded.insert(chunk, corner);
    return fft::convolve_with_spectrum(padded, kernel_->materialize(grid_),
                                       plan_);
  }
};

TEST_F(LocalConvolverTest, LosslessSamplingMatchesDenseReferenceExactly) {
  const i64 k = 8;
  const Index3 corner{8, 16, 4};
  const RealField chunk = random_field(Grid3::cube(k), 11);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField got = compressed.reconstruct();
  const RealField want = reference(chunk, corner);
  EXPECT_LT(max_abs_error(got.span(), want.span()), 1e-10);
}

TEST_F(LocalConvolverTest, SubdomainRegionIsExactEvenWithCompression) {
  const i64 k = 8;
  const Index3 corner{16, 8, 16};
  const Box3 dom = Box3::cube_at(corner, k);
  const RealField chunk = random_field(Grid3::cube(k), 12);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, dom, sampling::SamplingPolicy::paper_default(k, 8, 0));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField want = reference(chunk, corner);
  // The sub-domain is rate-1: samples there are exact convolution values.
  for_each_point(dom, [&](const Index3& p) {
    EXPECT_NEAR(compressed.value_at(p), want(p), 1e-10) << p.str();
  });
}

TEST_F(LocalConvolverTest, CompressedApproximationIsAccurateForDecayingKernel) {
  const i64 k = 8;
  const Index3 corner{12, 12, 12};
  const RealField chunk = random_field(Grid3::cube(k), 13);
  // Halo 3: the paper tunes the sampling to its ≤3% tolerance (§5.3).
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k),
      sampling::SamplingPolicy::paper_default(k, 8, 0, 3));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField got = compressed.reconstruct();
  const RealField want = reference(chunk, corner);
  EXPECT_LT(relative_l2_error(got.span(), want.span()), 0.03);
}

TEST_F(LocalConvolverTest, BatchSizeDoesNotChangeTheResult) {
  const i64 k = 8;
  const Index3 corner{0, 0, 0};
  const RealField chunk = random_field(Grid3::cube(k), 14);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));

  LocalConvolverConfig small;
  small.batch = 16;
  LocalConvolverConfig big;
  big.batch = 4096;
  const auto a = LocalConvolver(grid_, kernel_, small)
                     .convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, big)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-12);
  }
}

TEST_F(LocalConvolverTest, SerialMatchesPooled) {
  const i64 k = 8;
  const Index3 corner{24, 0, 8};
  const RealField chunk = random_field(Grid3::cube(k), 15);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(4));

  LocalConvolverConfig serial;
  serial.pool = nullptr;
  const auto a =
      LocalConvolver(grid_, kernel_).convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, serial)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-12);
  }
}

TEST_F(LocalConvolverTest, RegistersPipelineBuffersOnDevice) {
  const i64 k = 8;
  device::DeviceContext ctx(device::DeviceSpec::unlimited());
  LocalConvolverConfig cfg;
  cfg.device = &ctx;
  cfg.batch = 64;
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({0, 0, 0}, k),
      sampling::SamplingPolicy::paper_default(k, 8, 0));
  const RealField chunk = random_field(Grid3::cube(k), 16);
  (void)LocalConvolver(grid_, kernel_, cfg)
      .convolve_subdomain(chunk, {0, 0, 0}, tree);
  EXPECT_EQ(ctx.used_bytes(), 0u);  // everything released
  // Peak at least covers the slab.
  EXPECT_GE(ctx.peak_bytes(), 16u * kN * kN * k);
}

TEST_F(LocalConvolverTest, FailsWhenDeviceTooSmall) {
  const i64 k = 8;
  device::DeviceContext ctx({"tiny", 1 << 10});
  LocalConvolverConfig cfg;
  cfg.device = &ctx;
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({0, 0, 0}, k), sampling::SamplingPolicy::uniform(4));
  const RealField chunk = random_field(Grid3::cube(k), 17);
  EXPECT_THROW((void)LocalConvolver(grid_, kernel_, cfg)
                   .convolve_subdomain(chunk, {0, 0, 0}, tree),
               ResourceExhausted);
  EXPECT_EQ(ctx.used_bytes(), 0u);  // partial reservations rolled back
}

TEST_F(LocalConvolverTest, RejectsMismatchedOctree) {
  const RealField chunk = random_field(Grid3::cube(8), 18);
  auto wrong = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({8, 8, 8}, 8), sampling::SamplingPolicy::uniform(2));
  LocalConvolver conv(grid_, kernel_);
  EXPECT_THROW((void)conv.convolve_subdomain(chunk, {0, 0, 0}, wrong),
               InvalidArgument);
}

// --- Hermitian half-spectrum (real) path -----------------------------------

/// One-channel non-Hermitian operator: multiplies by i, so the spatial
/// result of a real input is imaginary — any r2c run would be wrong.
struct RotateOp final : SpectralOperator {
  [[nodiscard]] std::size_t channels() const override { return 1; }
  void apply(const Index3&, const Grid3&,
             std::span<cplx> values) const override {
    for (auto& v : values) v *= cplx{0.0, 1.0};
  }
  [[nodiscard]] std::string name() const override { return "rotate-i"; }
};

/// Six independent Gaussian channels through the default per-bin
/// apply_z_pencil path (no cross-channel mixing), Hermitian by symmetry.
struct DiagGaussOp final : SpectralOperator {
  std::shared_ptr<const green::GaussianSpectrum> k_;
  explicit DiagGaussOp(std::shared_ptr<const green::GaussianSpectrum> k)
      : k_(std::move(k)) {}
  [[nodiscard]] std::size_t channels() const override { return 6; }
  void apply(const Index3& bin, const Grid3& g,
             std::span<cplx> values) const override {
    const cplx v = k_->eval(bin, g);
    for (auto& x : values) x *= v;
  }
  [[nodiscard]] std::string name() const override { return "diag-gauss"; }
  [[nodiscard]] bool hermitian() const override { return true; }
};

TEST_F(LocalConvolverTest, RealPathDispatchFollowsOperatorAndConfig) {
  LocalConvolverConfig off;
  off.real = LocalConvolverConfig::RealPath::kOff;
  EXPECT_FALSE(LocalConvolver(grid_, kernel_, off).uses_real_path());
  // kAuto (the default) + Hermitian kernel takes the real path.
  EXPECT_TRUE(LocalConvolver(grid_, kernel_).uses_real_path());
  // A non-Hermitian operator never takes the real path.
  auto rot = std::make_shared<RotateOp>();
  EXPECT_FALSE(LocalConvolver(grid_, rot).uses_real_path());
}

TEST_F(LocalConvolverTest, RealPathMatchesComplexPathAndDenseReference) {
  const i64 k = 8;
  const Index3 corner{8, 16, 4};
  const RealField chunk = random_field(Grid3::cube(k), 31);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));
  LocalConvolverConfig real_cfg;
  real_cfg.real = LocalConvolverConfig::RealPath::kAuto;
  LocalConvolverConfig cplx_cfg;
  cplx_cfg.real = LocalConvolverConfig::RealPath::kOff;
  const LocalConvolver real_engine(grid_, kernel_, real_cfg);
  ASSERT_TRUE(real_engine.uses_real_path());
  const auto a = real_engine.convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, cplx_cfg)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_NEAR(sa[i], sb[i], 1e-12) << i;
  }
  const RealField want = reference(chunk, corner);
  EXPECT_LT(max_abs_error(a.reconstruct().span(), want.span()), 1e-10);
}

TEST(LocalConvolverReal, MatchesComplexPathAcrossGridSizes) {
  for (const i64 n : {16, 64}) {
    const Grid3 g = Grid3::cube(n);
    const i64 k = 8;
    const Index3 corner{n / 2, 0, n / 4};
    auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
    const RealField chunk = random_field(Grid3::cube(k), 32);
    auto tree = std::make_shared<sampling::Octree>(
        g, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));
    LocalConvolverConfig real_cfg;
    real_cfg.real = LocalConvolverConfig::RealPath::kAuto;
    LocalConvolverConfig cplx_cfg;
    cplx_cfg.real = LocalConvolverConfig::RealPath::kOff;
    const LocalConvolver real_engine(g, kernel, real_cfg);
    ASSERT_TRUE(real_engine.uses_real_path());
    const auto a = real_engine.convolve_subdomain(chunk, corner, tree);
    const auto b = LocalConvolver(g, kernel, cplx_cfg)
                       .convolve_subdomain(chunk, corner, tree);
    const auto sa = a.samples();
    const auto sb = b.samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_NEAR(sa[i], sb[i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(LocalConvolverTest, RealPathHandlesPartialBatchTiles) {
  // batch=37 leaves ragged SoA tiles at every stage boundary.
  const i64 k = 8;
  const Index3 corner{24, 8, 0};
  const RealField chunk = random_field(Grid3::cube(k), 33);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));
  LocalConvolverConfig ragged;
  ragged.real = LocalConvolverConfig::RealPath::kAuto;
  ragged.batch = 37;
  LocalConvolverConfig cplx_cfg;
  cplx_cfg.real = LocalConvolverConfig::RealPath::kOff;
  const LocalConvolver real_engine(grid_, kernel_, ragged);
  ASSERT_TRUE(real_engine.uses_real_path());
  const auto a = real_engine.convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, cplx_cfg)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_NEAR(sa[i], sb[i], 1e-12) << i;
  }
}

TEST_F(LocalConvolverTest, RealPathMultiChannelMatchesComplexPath) {
  const i64 k = 8;
  const Index3 corner{0, 16, 8};
  auto op = std::make_shared<DiagGaussOp>(kernel_);
  std::vector<RealField> chunks;
  for (std::size_t c = 0; c < op->channels(); ++c) {
    chunks.push_back(random_field(Grid3::cube(k), 40 + c));
  }
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));
  LocalConvolverConfig real_cfg;
  real_cfg.real = LocalConvolverConfig::RealPath::kAuto;
  LocalConvolverConfig cplx_cfg;
  cplx_cfg.real = LocalConvolverConfig::RealPath::kOff;
  const LocalConvolver real_engine(grid_, op, real_cfg);
  ASSERT_TRUE(real_engine.uses_real_path());
  const auto a = real_engine.convolve_channels(chunks, corner, tree);
  const auto b = LocalConvolver(grid_, op, cplx_cfg)
                     .convolve_channels(chunks, corner, tree);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    const auto sa = a[c].samples();
    const auto sb = b[c].samples();
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_NEAR(sa[i], sb[i], 1e-12) << "c=" << c << " i=" << i;
    }
  }
}

// --- End-to-end pipeline ---------------------------------------------------

TEST(LowCommPipeline, LosslessModeMatchesDenseConvolution) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 21);

  LowCommParams params;
  params.subdomain = 8;
  params.uniform_rate = 1;  // lossless
  const LowCommConvolution engine(g, kernel, params);
  const LowCommResult result = engine.convolve(input);

  const RealField want = baseline::dense_convolve(input, *kernel);
  EXPECT_LT(max_abs_error(result.output.span(), want.span()), 1e-9);
}

TEST(LowCommPipeline, CompressedModeWithinPaperErrorTolerance) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  const RealField input = random_field(g, 22);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 8;
  params.dense_halo = 3;  // tuned to the paper's tolerance (§5.3)
  const LowCommConvolution engine(g, kernel, params);
  const LowCommResult result = engine.convolve(input);

  const RealField want = baseline::dense_convolve(input, *kernel);
  // Paper §5.3: approximation error ≤ 3%.
  EXPECT_LT(relative_l2_error(result.output.span(), want.span()), 0.03);
  EXPECT_GT(result.compression_ratio, 1.0);
  EXPECT_EQ(result.exchanged_bytes, result.compressed_samples * 8);
}

TEST(LowCommPipeline, ErrorDecreasesWithRate) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  const RealField input = random_field(g, 23);
  const RealField want = baseline::dense_convolve(input, *kernel);

  double prev_err = -1.0;
  for (const i64 rate : {8, 4, 2, 1}) {
    LowCommParams params;
    params.subdomain = 8;
    params.uniform_rate = rate;
    const auto result = LowCommConvolution(g, kernel, params).convolve(input);
    const double err = relative_l2_error(result.output.span(), want.span());
    if (prev_err >= 0.0) EXPECT_LE(err, prev_err + 1e-12) << rate;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-9);  // rate 1 is exact
}

TEST(LowCommPipeline, PoissonKernelAlsoWorks) {
  // The "similar PDE solvers benefit" claim: same pipeline, Poisson kernel.
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::PoissonGreenSpectrum>(true);
  RealField input = random_field(g, 24);
  // Zero-mean source (Poisson solvability on the torus).
  double mean = 0.0;
  for (const auto v : input.span()) mean += v;
  mean /= static_cast<double>(g.size());
  for (auto& v : input.span()) v -= mean;

  LowCommParams params;
  params.subdomain = 8;
  params.uniform_rate = 1;
  const auto result = LowCommConvolution(g, kernel, params).convolve(input);
  const RealField want = baseline::dense_convolve(input, *kernel);
  EXPECT_LT(max_abs_error(result.output.span(), want.span()), 1e-9);
}

TEST(LowCommPipeline, DistributedMatchesSingleProcess) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 25);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  const auto single = LowCommConvolution(g, kernel, params).convolve(input);

  comm::SimCluster cluster(4);
  const RealField dist =
      distributed_lowcomm_convolve(cluster, input, g, kernel, params);
  EXPECT_LT(max_abs_error(dist.span(), single.output.span()), 1e-10);
  // Exactly one collective round: the sparse accumulation exchange.
  EXPECT_EQ(cluster.stats().collective_rounds.load(), 1u);
}

TEST(LowCommPipeline, DistributedExchangesOnlyCompressedBytes) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 26);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  const LowCommConvolution engine(g, kernel, params);
  std::size_t full_payload_bytes = 0;
  for (std::size_t d = 0; d < engine.decomposition().count(); ++d) {
    full_payload_bytes += engine.octree_for(d)->total_samples() * sizeof(double);
  }

  comm::SimCluster cluster(2);
  (void)distributed_lowcomm_convolve(cluster, input, g, kernel, params);
  // The personalised exchange moves exactly the needed-cell bytes, which is
  // at most one copy of every payload (2 ranks) and usually less.
  EXPECT_EQ(cluster.stats().bytes_sent.load(),
            lowcomm_exchange_bytes(engine, 2));
  EXPECT_LE(cluster.stats().bytes_sent.load(), full_payload_bytes);
}

// --- Hyperparameters --------------------------------------------------------

TEST(Hyperparams, BatchRecommendationClampsAndGrows) {
  EXPECT_EQ(recommended_batch(64), 512u);
  EXPECT_EQ(recommended_batch(1024), 1024u);
  EXPECT_EQ(recommended_batch(100000), 32768u);
  EXPECT_GE(recommended_batch(2048), recommended_batch(256));
}

TEST(Hyperparams, FarRateFollowsProblemRatio) {
  EXPECT_EQ(recommended_far_rate(128, 32), 4);
  EXPECT_EQ(recommended_far_rate(1024, 32), 32);
  EXPECT_EQ(recommended_far_rate(64, 64), 2);   // clamp low
  EXPECT_EQ(recommended_far_rate(8192, 32), 32);  // clamp high
}

TEST(Hyperparams, FarRateBoundaryCases) {
  // N == k: one sub-domain covers everything; the ratio floors at the
  // clamp's low end rather than degenerating to 1.
  EXPECT_EQ(recommended_far_rate(32, 32), 2);
  EXPECT_EQ(recommended_far_rate(1, 1), 2);
  // k not dividing N: the heuristic works off the integer ratio; a 3:1
  // split rounds up to the next power of two.
  EXPECT_EQ(recommended_far_rate(96, 32), 4);   // 96/32 = 3 → 4
  EXPECT_EQ(recommended_far_rate(100, 32), 4);  // 100/32 = 3 → 4
  EXPECT_EQ(recommended_far_rate(33, 32), 2);   // 33/32 = 1 → clamp low
  // Clamp exactness at both rails.
  EXPECT_EQ(recommended_far_rate(64, 32), 2);
  EXPECT_EQ(recommended_far_rate(128, 2), 32);
}

TEST(Hyperparams, FarRateRejectsInvalidShapes) {
  EXPECT_THROW((void)recommended_far_rate(16, 32), InvalidArgument);  // n < k
  EXPECT_THROW((void)recommended_far_rate(16, 0), InvalidArgument);   // k < 1
  EXPECT_THROW((void)recommended_far_rate(16, -4), InvalidArgument);
}

TEST(Hyperparams, BatchRecommendationBoundaries) {
  // Below the floor, at the pow2 fixpoint, and above the ceiling.
  EXPECT_EQ(recommended_batch(1), 512u);
  EXPECT_EQ(recommended_batch(512), 512u);
  EXPECT_EQ(recommended_batch(513), 1024u);   // next_pow2 rounding
  EXPECT_EQ(recommended_batch(32768), 32768u);
  EXPECT_EQ(recommended_batch(32769), 32768u);  // clamp high
}

TEST(Hyperparams, SelectionFitsDevice) {
  const auto advice =
      select_hyperparams(512, device::DeviceSpec::v100_16gb());
  EXPECT_GT(advice.subdomain, 0);
  const auto plan = device::plan_local_pipeline(
      512, advice.subdomain,
      sampling::SamplingPolicy::paper_default(advice.subdomain),
      advice.batch);
  EXPECT_LE(plan.actual_total(), device::DeviceSpec::v100_16gb().capacity_bytes);
}

// --- Accumulator -------------------------------------------------------------

TEST(Accumulator, SumsContributions) {
  const Grid3 g = Grid3::cube(16);
  auto tree = std::make_shared<sampling::Octree>(
      g, Box3::cube_at({0, 0, 0}, 8), sampling::SamplingPolicy::uniform(1));
  RealField ones(g, 1.0);
  RealField twos(g, 2.0);
  std::vector<sampling::CompressedField> contributions;
  contributions.push_back(sampling::CompressedField::compress(ones, tree));
  contributions.push_back(sampling::CompressedField::compress(twos, tree));
  const RealField full = accumulate_full(contributions, g);
  for (const auto v : full.span()) EXPECT_DOUBLE_EQ(v, 3.0);

  const Box3 region{{4, 4, 4}, {12, 12, 12}};
  const RealField tile = accumulate_region(contributions, region);
  EXPECT_EQ(tile.grid(), region.extents());
  for (const auto v : tile.span()) EXPECT_DOUBLE_EQ(v, 3.0);
}

// Slab-parallel accumulation is bit-identical to serial, and accumulating a
// partition of the grid region by region reproduces one accumulate_full.
TEST(Accumulator, RegionTilingMatchesFullAndParallelIsBitIdentical) {
  const Grid3 g = Grid3::cube(32);
  const RealField input = random_field(g, 17);
  std::vector<sampling::CompressedField> contributions;
  for (const i64 corner : {i64{0}, i64{16}}) {
    auto tree = std::make_shared<sampling::Octree>(
        g, Box3::cube_at({corner, corner, corner}, 16),
        sampling::SamplingPolicy::paper_default(16, 8));
    contributions.push_back(sampling::CompressedField::compress(input, tree));
  }

  const RealField serial_full = accumulate_full(contributions, g);
  ThreadPool pool(4);
  const RealField parallel_full =
      accumulate_full(contributions, g, sampling::Interpolation::kTrilinear,
                      &pool);
  for (std::size_t i = 0; i < serial_full.span().size(); ++i) {
    ASSERT_EQ(serial_full.span()[i], parallel_full.span()[i]) << i;
  }

  // Partition the grid into uneven boxes; slab-parallel accumulate_region
  // over each tile, stitched together, must equal the serial full result.
  RealField stitched(g, 0.0);
  const std::vector<Box3> tiles = {
      {{0, 0, 0}, {32, 32, 7}},
      {{0, 0, 7}, {32, 13, 32}},
      {{0, 13, 7}, {32, 32, 32}},
  };
  for (const Box3& tile : tiles) {
    stitched.insert(accumulate_region(
                        contributions, tile,
                        sampling::Interpolation::kTrilinear, &pool),
                    tile.lo);
  }
  for (std::size_t i = 0; i < serial_full.span().size(); ++i) {
    ASSERT_EQ(serial_full.span()[i], stitched.span()[i]) << i;
  }
}

TEST(Accumulator, RejectsEmptyRegion) {
  std::vector<sampling::CompressedField> none;
  EXPECT_THROW((void)accumulate_region(none, Box3{{1, 1, 1}, {1, 2, 2}}),
               InvalidArgument);
}

}  // namespace
}  // namespace lc::core
