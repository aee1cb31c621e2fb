// Tests for the adaptive sampling substrate: policy, octree, metadata codec,
// compressed-field reconstruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numbers>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sampling/compressed_field.hpp"
#include "sampling/octree.hpp"
#include "sampling/sampling_policy.hpp"

namespace lc::sampling {
namespace {

TEST(SamplingPolicy, PaperDefaultRates) {
  // §5.4: r=2 for distance <= k/2, r=8 for <= 4k, far rate beyond; the
  // sub-domain plus a small dense halo stay at full resolution.
  const i64 k = 32;
  const SamplingPolicy p = SamplingPolicy::paper_default(k, 16);
  EXPECT_EQ(p.rate_at_distance(0), 1);   // inside: full resolution
  EXPECT_EQ(p.rate_at_distance(1), 1);   // dense halo (default width 2)
  EXPECT_EQ(p.rate_at_distance(2), 1);
  EXPECT_EQ(p.rate_at_distance(3), 2);
  EXPECT_EQ(p.rate_at_distance(16), 2);  // k/2
  EXPECT_EQ(p.rate_at_distance(17), 8);
  EXPECT_EQ(p.rate_at_distance(128), 8);  // 4k
  EXPECT_EQ(p.rate_at_distance(129), 16);
  EXPECT_EQ(p.rate_at_distance(100000), 16);
}

TEST(SamplingPolicy, PaperDefaultDegeneratesGracefullyForTinyK) {
  // k small enough that k/2 <= halo: the rate-2 band disappears.
  const SamplingPolicy p = SamplingPolicy::paper_default(4, 16, 0, 2);
  EXPECT_EQ(p.rate_at_distance(1), 1);
  EXPECT_EQ(p.rate_at_distance(2), 1);
  EXPECT_EQ(p.rate_at_distance(3), 8);
  EXPECT_EQ(p.rate_at_distance(17), 16);
}

TEST(SamplingPolicy, UniformPolicy) {
  const SamplingPolicy p = SamplingPolicy::uniform(4);
  EXPECT_EQ(p.rate_at_distance(0), 1);
  EXPECT_EQ(p.rate_at_distance(1), 4);
  EXPECT_EQ(p.rate_at_distance(500), 4);
}

TEST(SamplingPolicy, BoundaryShellIsDense) {
  const Grid3 g{64, 64, 64};
  const Box3 dom = Box3::cube_at({16, 16, 16}, 16);
  const SamplingPolicy p = SamplingPolicy::paper_default(16, 16, 2);
  EXPECT_EQ(p.rate_at({0, 32, 32}, dom, g), 1);   // on the boundary shell
  EXPECT_EQ(p.rate_at({1, 32, 32}, dom, g), 1);   // band width 2
  EXPECT_EQ(p.rate_at({63, 32, 32}, dom, g), 1);  // far face too
  EXPECT_NE(p.rate_at({2, 32, 32}, dom, g), 1);   // just inside interior
}

TEST(SamplingPolicy, RejectsNonPow2Rates) {
  EXPECT_THROW(SamplingPolicy({{4, 3}}, 16), InvalidArgument);
  EXPECT_THROW(SamplingPolicy({}, 7), InvalidArgument);
}

TEST(SamplingPolicy, RejectsUnsortedBands) {
  EXPECT_THROW(SamplingPolicy({{8, 2}, {4, 4}}, 16), InvalidArgument);
}

TEST(SamplingPolicy, EffectiveExteriorRateBounds) {
  const Grid3 g{32, 32, 32};
  const Box3 dom = Box3::cube_at({8, 8, 8}, 8);
  const SamplingPolicy p = SamplingPolicy::uniform(4);
  const double r = p.effective_exterior_rate(g, dom);
  // Exterior sampled at rate 4 in each dim → effective rate slightly below
  // 4 because retained lattice points are counted exactly (ceil effects).
  EXPECT_GT(r, 2.5);
  EXPECT_LT(r, 4.5);
}

TEST(BoundaryDistance, Basics) {
  const Grid3 g{16, 16, 16};
  EXPECT_EQ(boundary_distance({0, 8, 8}, g), 0);
  EXPECT_EQ(boundary_distance({15, 8, 8}, g), 0);
  EXPECT_EQ(boundary_distance({8, 8, 8}, g), 7);
  EXPECT_EQ(boundary_distance({3, 8, 5}, g), 3);
}

class OctreeFixture : public ::testing::Test {
 protected:
  Grid3 grid_{64, 64, 64};
  Box3 dom_ = Box3::cube_at({16, 16, 16}, 16);
  SamplingPolicy policy_ = SamplingPolicy::paper_default(16, 16, 2);
  Octree tree_{grid_, dom_, policy_};
};

TEST_F(OctreeFixture, CellsTileTheGridExactly) {
  std::size_t vol = 0;
  for (const auto& c : tree_.cells()) vol += c.box().volume();
  EXPECT_EQ(vol, grid_.size());
  // Spot-check disjointness with point membership counting.
  SplitMix64 rng(17);
  for (int t = 0; t < 200; ++t) {
    const Index3 p{static_cast<i64>(rng.below(64)),
                   static_cast<i64>(rng.below(64)),
                   static_cast<i64>(rng.below(64))};
    int owners = 0;
    for (const auto& c : tree_.cells()) {
      if (c.box().contains(p)) ++owners;
    }
    EXPECT_EQ(owners, 1) << p.str();
  }
}

TEST_F(OctreeFixture, SubdomainIsFullResolution) {
  for_each_point(dom_, [&](const Index3& p) {
    EXPECT_EQ(tree_.cell_containing(p).rate, 1) << p.str();
  });
}

TEST_F(OctreeFixture, RatesFollowPolicy) {
  SplitMix64 rng(5);
  for (int t = 0; t < 300; ++t) {
    const Index3 p{static_cast<i64>(rng.below(64)),
                   static_cast<i64>(rng.below(64)),
                   static_cast<i64>(rng.below(64))};
    const OctreeCell& c = tree_.cell_containing(p);
    // Cell rate can be capped by cell side but never exceeds the policy
    // rate of any point it contains.
    const i64 want = policy_.rate_at(p, dom_, grid_);
    EXPECT_LE(c.rate, want) << p.str();
  }
}

TEST_F(OctreeFixture, CellRatesDivideSides) {
  for (const auto& c : tree_.cells()) {
    EXPECT_GT(c.side, 0);
    EXPECT_EQ(c.side % c.rate, 0);
    EXPECT_EQ(c.corner.x % c.rate, 0);  // globally aligned lattice
    EXPECT_EQ(c.corner.y % c.rate, 0);
    EXPECT_EQ(c.corner.z % c.rate, 0);
  }
}

TEST_F(OctreeFixture, SampleOffsetsArePrefixSums) {
  std::size_t expect = 0;
  for (const auto& c : tree_.cells()) {
    EXPECT_EQ(c.sample_offset, expect);
    expect += c.sample_count();
  }
  EXPECT_EQ(tree_.total_samples(), expect);
}

TEST_F(OctreeFixture, CompressionRatioAboveOne) {
  EXPECT_GT(tree_.compression_ratio(), 1.0);
  EXPECT_LT(static_cast<double>(tree_.total_samples()),
            static_cast<double>(grid_.size()));
}

TEST_F(OctreeFixture, MetadataRoundTrip) {
  const auto meta = tree_.encode_metadata();
  EXPECT_EQ(meta.size(), tree_.cells().size() * 5);
  const Octree back =
      Octree::decode_metadata(grid_, meta, tree_.total_samples());
  ASSERT_EQ(back.cells().size(), tree_.cells().size());
  for (std::size_t i = 0; i < back.cells().size(); ++i) {
    const auto& a = tree_.cells()[i];
    const auto& b = back.cells()[i];
    EXPECT_EQ(a.corner, b.corner);
    EXPECT_EQ(a.side, b.side);
    EXPECT_EQ(a.rate, b.rate);
    EXPECT_EQ(a.sample_offset, b.sample_offset);
  }
}

TEST_F(OctreeFixture, RetainedZPlanesIncludeSubdomainDensely) {
  const auto planes = tree_.retained_z_planes();
  std::set<i64> s(planes.begin(), planes.end());
  for (i64 z = dom_.lo.z; z < dom_.hi.z; ++z) EXPECT_TRUE(s.count(z)) << z;
  EXPECT_TRUE(std::is_sorted(planes.begin(), planes.end()));
  EXPECT_EQ(s.size(), planes.size());
  // With a dense boundary shell on the x/y faces every z carries samples;
  // without the shell, z planes are genuinely pruned.
  const Octree no_shell(grid_, dom_, SamplingPolicy::paper_default(16, 16, 0));
  EXPECT_LT(no_shell.retained_z_planes().size(),
            static_cast<std::size_t>(grid_.nz));
}

TEST(Octree, RequiresCubicPow2Grid) {
  const SamplingPolicy p = SamplingPolicy::uniform(2);
  EXPECT_THROW(Octree(Grid3{12, 12, 12}, Box3::cube_at({0, 0, 0}, 4), p),
               InvalidArgument);
  EXPECT_THROW(Octree(Grid3{8, 8, 16}, Box3::cube_at({0, 0, 0}, 4), p),
               InvalidArgument);
}

TEST(Octree, DecodeRejectsCorruptMetadata) {
  std::vector<std::int32_t> bad{0, 0, 0, 1};  // not a multiple of 5
  EXPECT_THROW(Octree::decode_metadata(Grid3{8, 8, 8}, bad, 10),
               InvalidArgument);
}

TEST(Octree, UniformRateOnePolicyGivesOneDenseCell) {
  const Grid3 g{16, 16, 16};
  const SamplingPolicy p = SamplingPolicy::uniform(1);
  const Octree t(g, Box3::cube_at({4, 4, 4}, 4), p);
  // Everything is rate 1 → root is a single uniform cell.
  ASSERT_EQ(t.cells().size(), 1u);
  EXPECT_EQ(t.total_samples(), g.size());
}

// The recursive predicate build the table-driven build replaced, kept as
// the reference: each node asks for its exact periodic Chebyshev distance
// range per axis and tests the policy's band classes over it.
std::pair<i64, i64> reference_axis_range(i64 a_lo, i64 a_hi, i64 b_lo,
                                         i64 b_hi, i64 n) {
  auto f = [&](i64 v) { return torus_axis_distance(v, b_lo, b_hi, n); };
  const i64 arc = n - (b_hi - b_lo);
  if (arc <= 0) return {0, 0};
  const bool overlaps = a_lo < b_hi && b_lo < a_hi;
  const i64 min_d = overlaps ? 0 : std::min(f(a_lo), f(a_hi - 1));
  i64 max_d = std::max(f(a_lo), f(a_hi - 1));
  for (const i64 j : {(arc + 1) / 2, arc + 1 - (arc + 1) / 2}) {
    const i64 v = (b_hi - 1 + j) % n;
    if (v >= a_lo && v < a_hi) {
      max_d = std::max(max_d, std::min(j, arc + 1 - j));
    }
  }
  return {min_d, max_d};
}

int reference_band_class(i64 dist, const std::vector<RateBand>& bands) {
  if (dist <= 0) return -1;
  for (std::size_t i = 0; i < bands.size(); ++i) {
    if (dist <= bands[i].max_distance) return static_cast<int>(i);
  }
  return static_cast<int>(bands.size());
}

i64 reference_class_rate(int cls, const SamplingPolicy& policy) {
  if (cls < 0) return 1;
  if (cls < static_cast<int>(policy.bands().size())) {
    return policy.bands()[static_cast<std::size_t>(cls)].rate;
  }
  return policy.far_rate();
}

void reference_build(const Grid3& grid, const Box3& dom,
                     const SamplingPolicy& policy, const Index3& corner,
                     i64 side, std::vector<OctreeCell>& out) {
  const Box3 cell = Box3::cube_at(corner, side);
  const i64 n = grid.nx;
  const auto [minx, maxx] =
      reference_axis_range(cell.lo.x, cell.hi.x, dom.lo.x, dom.hi.x, n);
  const auto [miny, maxy] =
      reference_axis_range(cell.lo.y, cell.hi.y, dom.lo.y, dom.hi.y, n);
  const auto [minz, maxz] =
      reference_axis_range(cell.lo.z, cell.hi.z, dom.lo.z, dom.hi.z, n);
  const i64 min_d = std::max({minx, miny, minz});
  const i64 max_d = std::max({maxx, maxy, maxz});

  const i64 band = policy.boundary_band();
  bool shell_uniform = true;
  bool in_shell = false;
  if (band > 0) {
    auto bd = [&](i64 lo, i64 hi) {
      return std::pair<i64, i64>(std::min(lo, n - hi),
                                 std::min(hi - 1, n - 1 - lo));
    };
    const auto [bx0, bx1] = bd(cell.lo.x, cell.hi.x);
    const auto [by0, by1] = bd(cell.lo.y, cell.hi.y);
    const auto [bz0, bz1] = bd(cell.lo.z, cell.hi.z);
    const i64 min_bd = std::min({bx0, by0, bz0});
    const i64 max_bd_bound = std::min({bx1, by1, bz1});
    if (min_bd >= band) {
      in_shell = false;
    } else if (max_bd_bound < band) {
      in_shell = true;
    } else {
      shell_uniform = (side == 1);
      in_shell = min_bd < band;
    }
  }

  const int c0 = reference_band_class(min_d, policy.bands());
  const int c1 = reference_band_class(max_d, policy.bands());
  bool rate_uniform = true;
  for (int c = c0 + 1; c <= c1; ++c) {
    if (reference_class_rate(c, policy) != reference_class_rate(c0, policy)) {
      rate_uniform = false;
    }
  }
  if ((rate_uniform || in_shell) && shell_uniform) {
    out.push_back(OctreeCell{
        corner, side,
        in_shell ? 1 : std::min<i64>(policy.rate_at_distance(min_d), side),
        0});
    return;
  }
  if (side == 1) {
    out.push_back(OctreeCell{corner, 1, 1, 0});
    return;
  }
  const i64 h = side / 2;
  for (i64 dz = 0; dz < 2; ++dz) {
    for (i64 dy = 0; dy < 2; ++dy) {
      for (i64 dx = 0; dx < 2; ++dx) {
        reference_build(grid, dom, policy,
                        {corner.x + dx * h, corner.y + dy * h,
                         corner.z + dz * h},
                        h, out);
      }
    }
  }
}

/// Octree(grid, box, policy) must equal the reference build cell for cell,
/// and octree_shape must report its counts.
void expect_matches_reference(const Grid3& grid, const Box3& box,
                              const SamplingPolicy& policy,
                              const std::string& what) {
  std::vector<OctreeCell> want;
  reference_build(grid, box, policy, {0, 0, 0}, grid.nx, want);
  const Octree tree(grid, box, policy);
  const auto got = tree.cells();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].corner == want[i].corner &&
                got[i].side == want[i].side && got[i].rate == want[i].rate)
        << what << " cell " << i;
  }
  const OctreeShape shape = octree_shape(grid, box, policy);
  EXPECT_EQ(shape.cells, got.size()) << what;
  EXPECT_EQ(shape.samples, tree.total_samples()) << what;
  EXPECT_EQ(shape.retained_planes, tree.retained_z_planes().size()) << what;
}

TEST(OctreeTables, MatchRecursivePredicateBuild) {
  // Sub-domains at N in {8, 16, 32, 64} with N/k <= 8 — every 3rd, 11th,
  // 61st and 199th (boundary-band trees at the larger N hold tens of
  // thousands of cells; the full sweep is in EXPERIMENTS.md) — under
  // paper_default with far rate {2, 4, 16} × boundary band {0, 1, 2} ×
  // halo {0, 2, 3}, and uniform rates {1, 2, 4, 8} × band {0, 2}; then
  // random non-cube boxes.
  std::vector<SamplingPolicy> policies;
  for (const i64 far : {2, 4, 16}) {
    for (const i64 band : {0, 1, 2}) {
      for (const i64 halo : {0, 2, 3}) {
        policies.push_back(SamplingPolicy::paper_default(1, far, band, halo));
      }
    }
  }
  for (const i64 r : {1, 2, 4, 8}) {
    for (const i64 band : {0, 2}) {
      policies.push_back(SamplingPolicy::uniform(r, band));
    }
  }
  const std::size_t paper_count = 27;
  for (const i64 n : {8, 16, 32, 64}) {
    const Grid3 g = Grid3::cube(n);
    for (i64 k = n / 8; k <= n; k *= 2) {
      const i64 per_axis = n / k;
      const i64 stride = n == 8 ? 3 : n == 16 ? 11 : n == 32 ? 61 : 199;
      for (i64 d = 0; d < per_axis * per_axis * per_axis; d += stride) {
        const Box3 box = Box3::cube_at(
            {(d % per_axis) * k, (d / per_axis % per_axis) * k,
             (d / per_axis / per_axis) * k},
            k);
        for (std::size_t pi = 0; pi < policies.size(); ++pi) {
          // paper_default's bands follow k: rebuild the policy for it.
          const SamplingPolicy& base = policies[pi];
          const SamplingPolicy policy =
              pi < paper_count
                  ? SamplingPolicy::paper_default(
                        k, base.far_rate(), base.boundary_band(),
                        std::vector<i64>{0, 2, 3}[pi % 3])
                  : base;
          expect_matches_reference(
              g, box, policy,
              "n " + std::to_string(n) + " box " + box.lo.str() + " k " +
                  std::to_string(k) + " policy " + std::to_string(pi));
          if (testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  SplitMix64 rng(91);
  for (int trial = 0; trial < 200; ++trial) {
    const i64 n = i64{8} << rng.below(3);
    const auto un = static_cast<std::uint64_t>(n);
    Box3 box;
    auto axis = [&](i64& lo, i64& hi) {
      lo = static_cast<i64>(rng.below(un));
      hi = lo + 1 +
           static_cast<i64>(rng.below(un - static_cast<std::uint64_t>(lo)));
    };
    axis(box.lo.x, box.hi.x);
    axis(box.lo.y, box.hi.y);
    axis(box.lo.z, box.hi.z);
    const SamplingPolicy& base = policies[rng.below(policies.size())];
    const SamplingPolicy policy =
        base.bands().empty()
            ? base
            : SamplingPolicy::paper_default(i64{1} << rng.below(4),
                                            base.far_rate(),
                                            base.boundary_band(),
                                            static_cast<i64>(rng.below(4)));
    expect_matches_reference(Grid3::cube(n), box, policy,
                             "random box " + box.lo.str() + "-" +
                                 box.hi.str());
    if (testing::Test::HasFatalFailure()) return;
  }
}

// Property test for the accumulation scan: the cells of a box's Morton key
// range that overlap it must be exactly the cells a full scan finds, in the
// same order, for random boxes (aligned, straddling, thin, single points).
TEST(Octree, CellRangeHoldsExactlyTheFullScanOverlaps) {
  const Grid3 g32{32, 32, 32};
  const Grid3 g64{64, 64, 64};
  const std::vector<Octree> trees = {
      Octree(g32, Box3::cube_at({8, 8, 8}, 8), SamplingPolicy::uniform(2)),
      Octree(g32, Box3::cube_at({0, 0, 0}, 8),
             SamplingPolicy::paper_default(8, 8)),
      Octree(g64, Box3::cube_at({16, 32, 48}, 16),
             SamplingPolicy::paper_default(16, 16)),
      Octree(g64, Box3::cube_at({48, 0, 16}, 16), SamplingPolicy::uniform(4)),
  };
  SplitMix64 rng(72);
  for (std::size_t ti = 0; ti < trees.size(); ++ti) {
    const Octree& tree = trees[ti];
    const auto n = static_cast<std::uint64_t>(tree.grid().nx);
    const auto cells = tree.cells();
    for (int trial = 0; trial < 300; ++trial) {
      Box3 box;
      if (trial % 3 == 0) {  // aligned block, as accumulation regions are
        const i64 side = i64{1} << rng.below(std::bit_width(n));
        const auto blocks = static_cast<std::uint64_t>(tree.grid().nx / side);
        box = Box3::cube_at({static_cast<i64>(rng.below(blocks)) * side,
                             static_cast<i64>(rng.below(blocks)) * side,
                             static_cast<i64>(rng.below(blocks)) * side},
                            side);
      } else {
        auto axis = [&](i64& lo, i64& hi) {
          lo = static_cast<i64>(rng.below(n));
          hi = lo + 1 + static_cast<i64>(rng.below(n - static_cast<std::uint64_t>(lo)));
        };
        axis(box.lo.x, box.hi.x);
        axis(box.lo.y, box.hi.y);
        axis(box.lo.z, box.hi.z);
      }
      std::vector<std::size_t> full;
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        if (!cells[ci].box().intersect(box).empty()) full.push_back(ci);
      }
      const auto [first, last] = tree.cell_range(box);
      ASSERT_LE(first, last);
      ASSERT_LE(last, cells.size());
      std::vector<std::size_t> restricted;
      for (std::size_t ci = first; ci < last; ++ci) {
        if (!cells[ci].box().intersect(box).empty()) restricted.push_back(ci);
      }
      ASSERT_EQ(restricted, full) << "tree " << ti << " box " << box.lo.str()
                                  << "-" << box.hi.str();
    }
  }
}

TEST(CompressedField, DenseCellRegionReconstructsExactly) {
  const Grid3 g{32, 32, 32};
  const Box3 dom = Box3::cube_at({8, 8, 8}, 8);
  auto tree = std::make_shared<Octree>(g, dom,
                                       SamplingPolicy::paper_default(8, 8, 0));
  RealField f(g);
  SplitMix64 rng(3);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);

  const CompressedField c = CompressedField::compress(f, tree);
  const RealField back = c.reconstruct();
  // Inside the sub-domain (rate 1) reconstruction is exact.
  for_each_point(dom, [&](const Index3& p) {
    EXPECT_DOUBLE_EQ(back(p), f(p)) << p.str();
  });
}

TEST(CompressedField, SmoothFieldReconstructsAccurately) {
  const Grid3 g{32, 32, 32};
  const Box3 dom = Box3::cube_at({8, 8, 8}, 8);
  auto tree =
      std::make_shared<Octree>(g, dom, SamplingPolicy::paper_default(8, 8, 0));
  // Rapidly decaying field mimicking a Green's-function response: by the
  // time the coarse (rate 8) region starts the values are negligible —
  // this is exactly the data property the compression strategy exploits.
  RealField f(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    const double dx = static_cast<double>(p.x) - 12.0;
    const double dy = static_cast<double>(p.y) - 12.0;
    const double dz = static_cast<double>(p.z) - 12.0;
    f(p) = std::exp(-(dx * dx + dy * dy + dz * dz) / 18.0);
  });
  const CompressedField c = CompressedField::compress(f, tree);
  const RealField back = c.reconstruct();
  EXPECT_LT(relative_l2_error(back.span(), f.span()), 0.05);
}

TEST(CompressedField, ValueAtMatchesReconstruct) {
  const Grid3 g{16, 16, 16};
  const Box3 dom = Box3::cube_at({4, 4, 4}, 4);
  auto tree =
      std::make_shared<Octree>(g, dom, SamplingPolicy::uniform(4));
  RealField f(g);
  SplitMix64 rng(8);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  const CompressedField c = CompressedField::compress(f, tree);
  const RealField back = c.reconstruct();
  SplitMix64 prng(9);
  for (int t = 0; t < 100; ++t) {
    const Index3 p{static_cast<i64>(prng.below(16)),
                   static_cast<i64>(prng.below(16)),
                   static_cast<i64>(prng.below(16))};
    // The vectorized row path evaluates the same stencil in a different
    // summation order than the per-point value_at, so agreement is to
    // rounding, not bit-exact.
    EXPECT_NEAR(c.value_at(p), back(p), 1e-12) << p.str();
  }
}

// Property test for the vectorized row engine: reconstruct_add_rows must
// match the per-point scalar reference to rounding (1e-12) for every rate,
// region phase, boundary (wrapping) cell, and interpolation order.
TEST(CompressedField, RowEngineMatchesScalarReference) {
  const Grid3 g{32, 32, 32};
  RealField f(g);
  SplitMix64 rng(71);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);

  const std::vector<std::shared_ptr<const Octree>> trees = {
      std::make_shared<Octree>(g, Box3::cube_at({8, 8, 8}, 8),
                               SamplingPolicy::uniform(2)),
      std::make_shared<Octree>(g, Box3::cube_at({8, 8, 8}, 8),
                               SamplingPolicy::uniform(4)),
      std::make_shared<Octree>(g, Box3::cube_at({16, 8, 8}, 8),
                               SamplingPolicy::uniform(8)),
      // Corner sub-domain: coarse cells touch the grid edge, so their
      // edge-inclusive lattices wrap periodically.
      std::make_shared<Octree>(g, Box3::cube_at({0, 0, 0}, 8),
                               SamplingPolicy::paper_default(8, 8)),
  };
  const std::vector<Box3> regions = {
      Box3::of(g),
      {{3, 1, 2}, {29, 30, 27}},     // odd offsets hit every (rate, phase)
      {{0, 0, 0}, {32, 32, 5}},      // thin slab
      {{13, 13, 13}, {14, 14, 14}},  // single point
  };
  for (std::size_t ti = 0; ti < trees.size(); ++ti) {
    const CompressedField c = CompressedField::compress(f, trees[ti]);
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      const Box3& region = regions[ri];
      for (const auto interp :
           {Interpolation::kTrilinear, Interpolation::kTricubic}) {
        const std::size_t n = region.volume();
        // Non-zero prior contents: both paths must *add*, not overwrite.
        std::vector<double> rows(n), scalar(n);
        for (std::size_t i = 0; i < n; ++i) {
          rows[i] = scalar[i] = rng.uniform(-1, 1);
        }
        c.reconstruct_add_rows(rows, region, interp);
        c.reconstruct_add_scalar(scalar, region, interp);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(rows[i], scalar[i], 1e-12)
              << "tree " << ti << " region " << ri << " interp "
              << static_cast<int>(interp) << " flat index " << i;
        }
      }
    }
  }
}

TEST(CompressedField, ReconstructAddAccumulates) {
  const Grid3 g{16, 16, 16};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({4, 4, 4}, 4),
                                       SamplingPolicy::uniform(2));
  RealField f(g, 1.0);
  const CompressedField c = CompressedField::compress(f, tree);
  const Box3 region{{2, 2, 2}, {10, 10, 10}};
  RealField out(region.extents(), 5.0);
  c.reconstruct_add(out, region);
  // Constant field interpolates exactly; 5 + 1 everywhere.
  for (const auto& v : out.span()) EXPECT_NEAR(v, 6.0, 1e-12);
}

TEST(CompressedField, ReconstructAddRejectsMismatchedRegion) {
  const Grid3 g{16, 16, 16};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({4, 4, 4}, 4),
                                       SamplingPolicy::uniform(2));
  CompressedField c(tree);
  RealField wrong(Grid3{4, 4, 4});
  EXPECT_THROW(c.reconstruct_add(wrong, Box3{{0, 0, 0}, {8, 8, 8}}),
               InvalidArgument);
}

TEST(CompressedField, PayloadBytesMatchSampleCount) {
  const Grid3 g{32, 32, 32};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({8, 8, 8}, 8),
                                       SamplingPolicy::uniform(4));
  CompressedField c(tree);
  EXPECT_EQ(c.sample_bytes(), tree->total_samples() * sizeof(double));
  EXPECT_EQ(c.metadata_bytes(), tree->cells().size() * 20);
  EXPECT_LT(c.sample_bytes(), g.size() * sizeof(double));
}

TEST(CompressedField, TricubicExactOnDenseCells) {
  const Grid3 g{16, 16, 16};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({4, 4, 4}, 8),
                                       SamplingPolicy::uniform(1));
  RealField f(g);
  SplitMix64 rng(21);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  const CompressedField c = CompressedField::compress(f, tree);
  const RealField back = c.reconstruct(Interpolation::kTricubic);
  EXPECT_LT(max_abs_error(back.span(), f.span()), 1e-14);
}

TEST(CompressedField, TricubicReproducesLinearFieldsExactly) {
  // Catmull-Rom reproduces polynomials up to degree 3 on interior stencils
  // and degree 1 everywhere (clamped faces included).
  const Grid3 g{32, 32, 32};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({8, 8, 8}, 8),
                                       SamplingPolicy::uniform(4));
  RealField f(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    f(p) = 0.5 * static_cast<double>(p.x) - 0.25 * static_cast<double>(p.y) +
           static_cast<double>(p.z);
  });
  const CompressedField c = CompressedField::compress(f, tree);
  // Check interior points away from the wrap seam (the linear field is not
  // periodic, so wrapped top-edge samples are excluded).
  for_each_point(Box3{{2, 2, 2}, {24, 24, 24}}, [&](const Index3& p) {
    EXPECT_NEAR(c.value_at(p, Interpolation::kTricubic), f(p), 1e-10)
        << p.str();
  });
}

TEST(CompressedField, TricubicBeatsTrilinearOnSmoothPeriodicFields) {
  // Corner sub-domain → the far half of the grid coarsens into large
  // rate-2 cells (9 samples per edge) with plenty of interior stencils,
  // where the cubic order pays off.
  const Grid3 g{32, 32, 32};
  auto tree = std::make_shared<Octree>(g, Box3::cube_at({0, 0, 0}, 8),
                                       SamplingPolicy::uniform(2));
  RealField f(g);
  const double w = 2.0 * std::numbers::pi / 32.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    f(p) = std::sin(w * static_cast<double>(p.x)) *
           std::cos(w * static_cast<double>(p.y)) *
           std::sin(w * static_cast<double>(p.z) + 0.3);
  });
  const CompressedField c = CompressedField::compress(f, tree);
  const double linear =
      relative_l2_error(c.reconstruct(Interpolation::kTrilinear).span(),
                        f.span());
  const double cubic =
      relative_l2_error(c.reconstruct(Interpolation::kTricubic).span(),
                        f.span());
  EXPECT_LT(cubic, linear * 0.6);
  EXPECT_GT(linear, 0.0);
}

// Property sweep: compression error decreases as far rate decreases, over a
// family of rates.
class RateSweep : public ::testing::TestWithParam<i64> {};

TEST_P(RateSweep, ErrorShrinksWithRate) {
  const i64 rate = GetParam();
  const Grid3 g{32, 32, 32};
  const Box3 dom = Box3::cube_at({12, 12, 12}, 8);
  auto tree = std::make_shared<Octree>(g, dom, SamplingPolicy::uniform(rate));
  // Periodic field (convolution results are periodic; the octree's
  // edge-inclusive lattice wraps at the grid boundary).
  RealField f(g);
  const double w = 2.0 * std::numbers::pi / 32.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    f(p) = std::sin(w * static_cast<double>(p.x)) *
           std::cos(2.0 * w * static_cast<double>(p.y)) *
           std::sin(w * static_cast<double>(p.z) + 0.5);
  });
  const CompressedField c = CompressedField::compress(f, tree);
  const double err = relative_l2_error(c.reconstruct().span(), f.span());
  // Error bound grows with rate; r=2 well below r=8 bound.
  const double bound = 0.02 * static_cast<double>(rate * rate);
  EXPECT_LT(err, bound) << "rate=" << rate;
  if (rate > 1) EXPECT_GT(err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace lc::sampling
