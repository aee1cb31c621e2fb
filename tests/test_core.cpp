// Tests for the low-communication convolution core: decomposition, local
// convolver, accumulation, the end-to-end pipeline, and hyperparameters.
//
// The central correctness property: with rate-1 (lossless) sampling the
// sum of per-sub-domain local convolutions equals the dense convolution to
// machine precision; with real compression the error stays small for
// decaying kernels and shrinks as rates shrink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Dense reference: the chunk zero-embedded in the N³ grid and convolved
/// through full complex 3D FFTs — the complex path the half-spectrum
/// pipeline is checked against.
RealField dense_reference(const green::KernelSpectrum& kernel, const Grid3& g,
                          const RealField& chunk, const Index3& corner) {
  RealField padded(g, 0.0);
  padded.insert(chunk, corner);
  return fft::convolve_with_spectrum(padded, kernel.materialize(g),
                                     fft::Fft3D(g));
}

/// Largest |sample − want(p)| over every octree lattice sample of `got`,
/// p being the sample's grid point (edge-inclusive lattices wrap).
double max_sample_error(const sampling::CompressedField& got,
                        const RealField& want) {
  const Grid3& g = want.grid();
  const auto samples = got.samples();
  double worst = 0.0;
  for (const auto& c : got.octree().cells()) {
    const i64 e = c.samples_per_edge();
    for (i64 iz = 0; iz < e; ++iz) {
      for (i64 iy = 0; iy < e; ++iy) {
        for (i64 ix = 0; ix < e; ++ix) {
          const Index3 p{(c.corner.x + ix * c.rate) % g.nx,
                         (c.corner.y + iy * c.rate) % g.ny,
                         (c.corner.z + iz * c.rate) % g.nz};
          const double v =
              samples[c.sample_offset + c.sample_index(ix, iy, iz)];
          worst = std::max(worst, std::abs(v - want(p)));
        }
      }
    }
  }
  return worst;
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

TEST(Decomposition, MortonOrderMatchesInterleavedKeySort) {
  // The assignment's Morton order, on power-of-two and ragged lattices:
  // sub-domains sorted by their interleaved block-coordinate key (x in the
  // lowest bit of each triple), cut into P contiguous runs.
  for (const i64 per_axis : {1, 2, 3, 5, 6, 8}) {
    const i64 k = 2;
    const DomainDecomposition d(Grid3::cube(per_axis * k), k);
    std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
    for (std::size_t i = 0; i < d.count(); ++i) {
      const Index3& lo = d.subdomain(i).lo;
      const std::uint64_t c[3] = {static_cast<std::uint64_t>(lo.x / k),
                                  static_cast<std::uint64_t>(lo.y / k),
                                  static_cast<std::uint64_t>(lo.z / k)};
      std::uint64_t key = 0;
      for (int bit = 0; bit < 8; ++bit) {
        for (int a = 0; a < 3; ++a) {
          key |= ((c[a] >> bit) & 1u) << (3 * bit + a);
        }
      }
      keyed.emplace_back(key, i);
    }
    std::sort(keyed.begin(), keyed.end());
    for (const int p : {1, 3, 7, 8}) {
      if (static_cast<std::size_t>(p) > d.count()) continue;
      std::size_t most = 0;  // and the planner's busiest-rank group count
      for (int r = 0; r < p; ++r) {
        const std::size_t begin = d.count() * static_cast<std::size_t>(r) /
                                  static_cast<std::size_t>(p);
        const std::size_t end = d.count() * static_cast<std::size_t>(r + 1) /
                                static_cast<std::size_t>(p);
        std::vector<std::size_t> want;
        for (std::size_t i = begin; i < end; ++i) {
          want.push_back(keyed[i].second);
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(d.assigned_to(r, p), want)
            << "per_axis " << per_axis << ", P " << p << ", rank " << r;
        most = std::max(most, d.groups_of(r, p).size());
      }
      EXPECT_EQ(DomainDecomposition::max_groups_per_rank(per_axis, p), most)
          << "per_axis " << per_axis << ", P " << p;
    }
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

  RealField reference(const RealField& chunk, const Index3& corner) {
    return dense_reference(*kernel_, grid_, chunk, corner);
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

// --- Half-spectrum (real) path ---------------------------------------------

/// Six independent Gaussian channels through the default per-bin
/// apply_z_pencil path (no cross-channel mixing).
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
};

TEST_F(LocalConvolverTest, RealPathMatchesComplexPathAndDenseReference) {
  const i64 k = 8;
  const Index3 corner{8, 16, 4};
  const RealField chunk = random_field(Grid3::cube(k), 31);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));
  const auto a =
      LocalConvolver(grid_, kernel_).convolve_subdomain(chunk, corner, tree);
  const RealField want = reference(chunk, corner);
  EXPECT_LT(max_sample_error(a, want), 1e-12);
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
    const auto a =
        LocalConvolver(g, kernel).convolve_subdomain(chunk, corner, tree);
    EXPECT_LT(max_sample_error(a, dense_reference(*kernel, g, chunk, corner)),
              1e-12)
        << "n=" << n;
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
  ragged.batch = 37;
  const auto a = LocalConvolver(grid_, kernel_, ragged)
                     .convolve_subdomain(chunk, corner, tree);
  EXPECT_LT(max_sample_error(a, reference(chunk, corner)), 1e-12);
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
  const auto a = LocalConvolver(grid_, op).convolve_channels(chunks, corner,
                                                            tree);
  ASSERT_EQ(a.size(), chunks.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_LT(max_sample_error(a[c], reference(chunks[c], corner)), 1e-12)
        << "c=" << c;
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
  // The distributed path samples each rank's groups on one octree per
  // group, which is at least as fine as each member's tree wherever the
  // rate grows with distance: against the dense reference it must be no
  // less accurate than the single-process sub-domain path.
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 25);
  const RealField want = baseline::dense_convolve(input, *kernel);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  const auto single = LowCommConvolution(g, kernel, params).convolve(input);
  const double single_err =
      relative_l2_error(single.output.span(), want.span());

  comm::SimCluster cluster(4);
  const RealField dist =
      distributed_lowcomm_convolve(cluster, input, g, kernel, params);
  const double dist_err = relative_l2_error(dist.span(), want.span());
  EXPECT_GT(single_err, 0.0);
  EXPECT_LE(dist_err, single_err);
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
            lowcomm_exchange_bytes(g, params, 2));
  EXPECT_LE(cluster.stats().bytes_sent.load(), full_payload_bytes);
}

// The streaming unpack's order, pinned bit for bit: every owned group tile
// must equal accumulate_region over fully materialised, codec-round-tripped
// group contributions taken in (source rank, group) order — and so must
// accumulate_into fed that vector one contribution at a time.
TEST(LowCommPipeline, StreamingUnpackMatchesMaterialisedAccumulation) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 27);
  const comm::Topology topo = comm::Topology::grouped(6, 3);

  for (const comm::WireCodec codec :
       {comm::WireCodec::kOff, comm::WireCodec::kQ16}) {
    LowCommParams params;
    params.subdomain = 8;
    params.far_rate = 4;
    params.batch = 256;
    params.wire = codec;
    const DomainDecomposition decomp(g, params.subdomain);
    const LocalConvolver convolver(g, kernel);
    const auto policy = params.make_policy();

    std::vector<sampling::CompressedField> ordered;
    std::vector<Box3> regions;
    for (int src = 0; src < topo.ranks(); ++src) {
      for (const Box3& box : decomp.groups_of(src, topo.ranks())) {
        const sampling::CompressedField c = convolver.convolve_subdomain(
            input.extract(box), box.lo,
            std::make_shared<const sampling::Octree>(g, box, policy));
        std::vector<double> wire;
        comm::WireEncoder enc(codec, wire);
        for (const auto& cell : c.octree().cells()) {
          enc.add_cell(
              c.samples().subspan(cell.sample_offset, cell.sample_count()));
        }
        enc.finish();
        sampling::CompressedField back(c.octree_ptr());
        comm::WireDecoder dec(codec, wire);
        for (const auto& cell : back.octree().cells()) {
          dec.read_cell(
              back.samples().subspan(cell.sample_offset, cell.sample_count()));
        }
        dec.finish();
        ordered.push_back(std::move(back));
        regions.push_back(box);
      }
    }
    // grouped(6,3) leaves irregular owned sets: some rank has a group of
    // more than one sub-domain, and some rank has more than one group.
    EXPECT_LT(regions.size(), decomp.count());
    EXPECT_GT(regions.size(), static_cast<std::size_t>(topo.ranks()));

    RealField want(g, 0.0);
    std::vector<RealField> tiles;
    for (const Box3& box : regions) {
      want.insert(accumulate_region(ordered, box), box.lo);
      tiles.emplace_back(box.extents(), 0.0);
    }
    for (const auto& c : ordered) accumulate_into(c, regions, tiles);
    RealField streamed(g, 0.0);
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      streamed.insert(tiles[i], regions[i].lo);
    }

    for (const ExchangeRoute route :
         {ExchangeRoute::kFlat, ExchangeRoute::kHierarchical}) {
      comm::SimCluster cluster(topo);
      const RealField got = distributed_lowcomm_convolve(cluster, input, g,
                                                         kernel, params, route);
      for (std::size_t i = 0; i < want.span().size(); ++i) {
        ASSERT_EQ(want.span()[i], streamed.span()[i])
            << comm::codec_name(codec) << " at " << i;
        ASSERT_EQ(want.span()[i], got.span()[i])
            << comm::codec_name(codec)
            << (route == ExchangeRoute::kFlat ? " flat" : " hier") << " at "
            << i;
      }
    }
  }
}

// --- Groups: a rank's sub-domains in one z-layer as one chunk --------------

TEST(LowCommPipelineGroups, GroupsTileEachRanksOwnedSubdomains) {
  // Across lattice sizes, rank counts and flat / grouped topologies (groups
  // depend on the rank count alone, and the exchange plan numbers them in
  // (rank, group) order): every group is a lattice-aligned X×Y×k box in
  // one z-layer, a rank's groups are disjoint, and their union is exactly
  // assigned_to.
  for (const i64 per_axis : {2, 4, 8}) {
    const i64 k = 4;
    const Grid3 g = Grid3::cube(per_axis * k);
    const DomainDecomposition decomp(g, k);
    LowCommParams params;
    params.subdomain = k;
    params.uniform_rate = 2;
    for (const int p : {1, 2, 3, 4, 5, 6, 7, 8, 12}) {
      if (static_cast<std::size_t>(p) > decomp.count()) continue;
      // The planner's count of the busiest rank's pipelines.
      std::size_t most = 0;
      for (int r = 0; r < p; ++r) {
        most = std::max(most, decomp.groups_of(r, p).size());
      }
      EXPECT_EQ(DomainDecomposition::max_groups_per_rank(per_axis, p), most)
          << "per_axis " << per_axis << ", P " << p;
      for (const comm::Topology& topo :
           {comm::Topology::flat(p),
            comm::Topology::grouped(p, std::min(p, 2))}) {
        const ExchangePlan plan(g, params, topo, ExchangeRoute::kAuto);
        std::size_t next_group = 0;
        for (int r = 0; r < p; ++r) {
          const std::string what = "per_axis " + std::to_string(per_axis) +
                                   ", P " + std::to_string(p) + ", rank " +
                                   std::to_string(r);
          const std::vector<Box3> groups = decomp.groups_of(r, p);
          EXPECT_EQ(groups, decomp.groups_of(r, p)) << what;  // deterministic
          ASSERT_EQ(plan.groups_of(r).size(), groups.size()) << what;
          std::vector<std::size_t> covered;
          for (std::size_t i = 0; i < groups.size(); ++i) {
            const Box3& box = groups[i];
            EXPECT_EQ(plan.groups_of(r)[i], next_group) << what;
            EXPECT_EQ(plan.group_box(next_group), box) << what;
            EXPECT_EQ(plan.octree(next_group)->subdomain(), box) << what;
            ++next_group;
            EXPECT_EQ(box.extents().nz, k) << what;
            EXPECT_EQ(box.lo.x % k, 0);
            EXPECT_EQ(box.lo.y % k, 0);
            EXPECT_EQ(box.lo.z % k, 0);
            EXPECT_EQ(box.hi.x % k, 0);
            EXPECT_EQ(box.hi.y % k, 0);
            EXPECT_TRUE(Box3::of(g).contains(box)) << what;
            for (i64 by = box.lo.y / k; by < box.hi.y / k; ++by) {
              for (i64 bx = box.lo.x / k; bx < box.hi.x / k; ++bx) {
                covered.push_back(static_cast<std::size_t>(
                    ((box.lo.z / k) * per_axis + by) * per_axis + bx));
              }
            }
          }
          std::sort(covered.begin(), covered.end());
          EXPECT_EQ(std::adjacent_find(covered.begin(), covered.end()),
                    covered.end())
              << what << ": groups overlap";
          EXPECT_EQ(covered, decomp.assigned_to(r, p)) << what;
        }
      }
    }
  }

  // The shapes the design rests on, on a 4×4×4 lattice: 64 ranks own one
  // sub-domain each (groups of one, today's plan); 4 ranks own a 4×2×2
  // Morton block each, two 4×2 groups; 6 ranks leave irregular owned sets
  // that split into several rectangles per layer.
  const DomainDecomposition lattice(Grid3::cube(64), 16);
  for (int r = 0; r < 64; ++r) {
    const auto groups = lattice.groups_of(r, 64);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0], lattice.subdomain(lattice.assigned_to(r, 64)[0]));
  }
  for (int r = 0; r < 4; ++r) {
    const auto groups = lattice.groups_of(r, 4);
    ASSERT_EQ(groups.size(), 2u);
    for (const Box3& box : groups) {
      EXPECT_EQ(box.extents(), (Grid3{64, 32, 16}));
    }
  }
  std::size_t most_in_a_layer = 0;
  for (int r = 0; r < 6; ++r) {
    std::vector<std::size_t> per_layer(4, 0);
    for (const Box3& box : lattice.groups_of(r, 6)) {
      ++per_layer[static_cast<std::size_t>(box.lo.z / 16)];
    }
    most_in_a_layer = std::max(
        most_in_a_layer, *std::max_element(per_layer.begin(), per_layer.end()));
  }
  EXPECT_GE(most_in_a_layer, 2u);
}

TEST(LowCommPipelineGroups, BoxChunksMatchDenseReference) {
  // Non-cube chunks — full x extent, 3k wide, full x-y extent, at the top
  // grid edges — through one pipeline: every octree sample equals the
  // dense reference of the zero-embedded chunk, for a Gaussian and a
  // Poisson kernel.
  const Grid3 g = Grid3::cube(32);
  const i64 k = 4;
  const std::shared_ptr<const green::KernelSpectrum> kernels[] = {
      std::make_shared<green::GaussianSpectrum>(g, 1.5),
      std::make_shared<green::PoissonGreenSpectrum>(true)};
  const Box3 boxes[] = {
      Box3{{0, 8, 8}, {32, 16, 12}},    // full x extent, 2k deep
      Box3{{4, 12, 16}, {16, 16, 20}},  // 3k wide
      Box3{{20, 16, 28}, {32, 32, 32}},  // 3k × 4k at the top edges
      Box3{{0, 0, 0}, {32, 32, 4}},      // a whole z-layer
      Box3::cube_at({8, 4, 12}, k),      // the cube case
  };
  const auto policy = sampling::SamplingPolicy::paper_default(k, 4, 0, 1);
  std::uint64_t seed = 60;
  for (const auto& kernel : kernels) {
    for (const Box3& box : boxes) {
      const RealField chunk = random_field(box.extents(), ++seed);
      auto tree = std::make_shared<sampling::Octree>(g, box, policy);
      LocalConvolverConfig ragged;
      ragged.batch = 37;
      const auto got = LocalConvolver(g, kernel, ragged)
                           .convolve_subdomain(chunk, box.lo, tree);
      const RealField want = dense_reference(*kernel, g, chunk, box.lo);
      double peak = 0.0;
      for (const double v : want.span()) peak = std::max(peak, std::abs(v));
      EXPECT_LE(max_sample_error(got, want), 1e-12 * std::max(peak, 1.0))
          << "box " << box.lo.str() << "-" << box.hi.str();
    }
  }
}

namespace {

/// Relative L2 error against `want` of the groups-of-one result: every
/// sub-domain convolved on its own octree, codec round-tripped, summed.
double groups_of_one_error(const LowCommConvolution& engine,
                           const RealField& input, const RealField& want) {
  const comm::WireCodec codec = engine.params().wire;
  const std::size_t count = engine.decomposition().count();
  std::vector<std::optional<sampling::CompressedField>> slots(count);
  ThreadPool::global().parallel_for(0, count, [&](std::size_t d) {
    slots[d].emplace(engine.convolve_one(input, d));
  });
  std::vector<sampling::CompressedField> contributions;
  for (auto& slot : slots) {
    const sampling::CompressedField c = std::move(*slot);
    std::vector<double> wire;
    comm::WireEncoder enc(codec, wire);
    for (const auto& cell : c.octree().cells()) {
      enc.add_cell(
          c.samples().subspan(cell.sample_offset, cell.sample_count()));
    }
    enc.finish();
    sampling::CompressedField back(c.octree_ptr());
    comm::WireDecoder dec(codec, wire);
    for (const auto& cell : back.octree().cells()) {
      dec.read_cell(
          back.samples().subspan(cell.sample_offset, cell.sample_count()));
    }
    dec.finish();
    contributions.push_back(std::move(back));
  }
  const RealField got = accumulate_full(contributions, input.grid(),
                                        engine.params().interpolation,
                                        &ThreadPool::global());
  return relative_l2_error(got.span(), want.span());
}

}  // namespace

TEST(LowCommPipelineGroups, GroupedErrorNoWorseThanGroupsOfOne) {
  // A group's octree is built around the group box, and no point is
  // farther from the group than from its members, so wherever the rate
  // grows with distance the group tree samples at least as finely. The
  // sweep checks the error, including N = 16, k = 1, where the far band is
  // reachable (N > 9k) and paper_default with far rate 4 < 8 is not
  // monotone.
  struct Shape {
    i64 n, k;
    comm::Topology topo;
  };
  const Shape shapes[] = {{32, 8, comm::Topology::grouped(4, 2)},
                          {32, 8, comm::Topology::grouped(6, 3)},
                          {16, 1, comm::Topology::flat(4)}};
  for (const Shape& shape : shapes) {
    const Grid3 g = Grid3::cube(shape.n);
    RealField input = random_field(g, 70);
    double mean = 0.0;  // zero mean: Poisson solvability on the torus
    for (const double v : input.span()) mean += v;
    mean /= static_cast<double>(g.size());
    for (auto& v : input.span()) v -= mean;
    const std::shared_ptr<const green::KernelSpectrum> kernels[] = {
        std::make_shared<green::GaussianSpectrum>(g, 1.5),
        std::make_shared<green::PoissonGreenSpectrum>(true)};
    for (const auto& kernel : kernels) {
      const RealField want = baseline::dense_convolve(input, *kernel);
      for (const comm::WireCodec codec :
           {comm::WireCodec::kOff, comm::WireCodec::kQ16}) {
        for (const bool banded : {true, false}) {
          // The small-k shape runs its costlier groups-of-one reference
          // once per kernel: banded, uncoded.
          if (shape.k == 1 && (codec != comm::WireCodec::kOff || !banded)) {
            continue;
          }
          LowCommParams params;
          params.subdomain = shape.k;
          params.far_rate = 4;
          params.boundary_band = 0;
          params.dense_halo = 1;
          params.batch = 256;
          params.wire = codec;
          if (!banded) params.uniform_rate = 2;
          comm::SimCluster cluster(shape.topo);
          const RealField grouped =
              distributed_lowcomm_convolve(cluster, input, g, kernel, params);
          const double grouped_err =
              relative_l2_error(grouped.span(), want.span());
          const double one_err = groups_of_one_error(
              LowCommConvolution(g, kernel, params), input, want);
          EXPECT_GT(one_err, 0.0);
          EXPECT_LE(grouped_err, one_err)
              << "N " << shape.n << " k " << shape.k << " P "
              << shape.topo.ranks() << " " << comm::codec_name(codec)
              << (banded ? " banded" : " uniform");
        }
      }
    }
  }
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

// --- The in-process executor (run_local) ------------------------------------

// Kernel whose every spectrum evaluation throws: a job built on it fails
// inside its convolve tasks.
class ThrowingSpectrum final : public green::KernelSpectrum {
 public:
  [[nodiscard]] green::cplx eval(const Index3&, const Grid3&) const override {
    throw std::runtime_error("synthetic kernel fault");
  }
  [[nodiscard]] std::string name() const override { return "throwing"; }
};

// The executor's outputs equal an independent path, convolve_one over every
// sub-domain plus accumulate_full (or accumulate_region over one sub-domain
// for a scoped job), bit for bit, with the same sample and byte tally —
// through LowCommConvolution::convolve and through one run_local call that
// carries every scoped job in the same two waves.
TEST(LocalExecutor, MatchesIndependentPathBitForBit) {
  const Grid3 g = Grid3::cube(32);
  const RealField input = random_field(g, 41);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  ThreadPool pool(4);
  for (const i64 k : {i64{8}, i64{16}}) {
    for (const comm::WireCodec wire :
         {comm::WireCodec::kOff, comm::WireCodec::kQ16}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " wire=" +
                   comm::codec_name(wire));
      LowCommParams params;
      params.subdomain = k;
      params.far_rate = 4;
      params.batch = 256;
      params.wire = wire;
      LocalConvolverConfig cfg;
      cfg.batch = params.batch;
      cfg.pool = &pool;
      const LowCommConvolution engine(g, kernel, params, cfg);
      const std::size_t count = engine.decomposition().count();

      std::vector<sampling::CompressedField> contributions;
      std::size_t samples = 0, bytes = 0;
      for (std::size_t d = 0; d < count; ++d) {
        contributions.push_back(engine.convolve_one(input, d));
        samples += contributions.back().samples().size();
        bytes += contributions.back().encoded_sample_bytes(wire);
      }
      const RealField want = accumulate_full(contributions, g);

      const LowCommResult got = engine.convolve(input);
      ASSERT_EQ(got.output.grid(), g);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.output[i], want[i]) << i;
      }
      EXPECT_EQ(got.compressed_samples, samples);
      EXPECT_EQ(got.exchanged_bytes, bytes);
      EXPECT_EQ(got.compression_ratio, static_cast<double>(count) *
                                           static_cast<double>(g.size()) /
                                           static_cast<double>(samples));

      std::vector<LocalJob> jobs(count);
      std::vector<LocalJob*> ptrs;
      std::vector<int> hook_calls(count, 0);
      for (std::size_t d = 0; d < count; ++d) {
        ptrs.push_back(&jobs[d]);
        jobs[d].engine = &engine;
        jobs[d].input = &input;
        jobs[d].subdomain = d;
        jobs[d].before_convolve = [&hook_calls, d](std::size_t sd) {
          EXPECT_EQ(sd, d);
          ++hook_calls[d];
        };
      }
      run_local(ptrs, &pool);
      for (std::size_t d = 0; d < count; ++d) {
        ASSERT_EQ(jobs[d].error, nullptr);
        EXPECT_EQ(hook_calls[d], 1);
        const Box3& box = engine.decomposition().subdomain(d);
        const RealField tile =
            accumulate_region({contributions.begin() + d,
                               contributions.begin() + d + 1},
                              box);
        const LowCommResult& r = jobs[d].result;
        ASSERT_EQ(r.output.grid(), box.extents());
        for (std::size_t i = 0; i < tile.size(); ++i) {
          ASSERT_EQ(r.output[i], tile[i]) << "d=" << d << " i=" << i;
        }
        EXPECT_EQ(r.compressed_samples, contributions[d].samples().size());
        EXPECT_EQ(r.exchanged_bytes,
                  contributions[d].encoded_sample_bytes(wire));
        ASSERT_EQ(jobs[d].contributions.size(), 1u);
      }
    }
  }
}

// A job whose tasks throw reports the failure in its own `error`; its
// wave-mates complete untouched, in parallel waves and in serial ones.
TEST(LocalExecutor, FailingJobDoesNotFailItsWaveMates) {
  const Grid3 g = Grid3::cube(16);
  const RealField input = random_field(g, 42);
  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  LocalConvolverConfig cfg;
  cfg.batch = params.batch;
  cfg.pool = nullptr;
  const LowCommConvolution healthy(
      g, std::make_shared<green::GaussianSpectrum>(g, 1.2), params, cfg);
  const LowCommConvolution failing(g, std::make_shared<ThrowingSpectrum>(),
                                   params, cfg);
  const RealField want = healthy.convolve(input).output;

  ThreadPool pool(3);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<LocalJob> jobs(3);
    jobs[0].engine = &failing;
    jobs[1].engine = &healthy;
    jobs[2].engine = &healthy;
    jobs[2].subdomain = 1000;  // out of range: fails before any task runs
    std::vector<LocalJob*> ptrs;
    for (auto& job : jobs) {
      job.input = &input;
      ptrs.push_back(&job);
    }
    run_local(ptrs, p);

    ASSERT_NE(jobs[0].error, nullptr);
    EXPECT_THROW(std::rethrow_exception(jobs[0].error), std::runtime_error);
    EXPECT_TRUE(jobs[0].result.output.empty());
    ASSERT_NE(jobs[2].error, nullptr);
    EXPECT_THROW(std::rethrow_exception(jobs[2].error), InvalidArgument);
    ASSERT_EQ(jobs[1].error, nullptr);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(jobs[1].result.output[i], want[i]) << i;
    }
  }
  // Through convolve, the failure surfaces as the caller's exception.
  EXPECT_THROW((void)failing.convolve(input), std::runtime_error);
}

}  // namespace
}  // namespace lc::core
