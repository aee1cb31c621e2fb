#include "sampling/octree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "fft/fft1d.hpp"

namespace lc::sampling {

namespace {

/// Per-axis *periodic* distance range: min/max over v in [a_lo, a_hi) of
/// torus_axis_distance(v, b_lo, b_hi, n). The distance function is zero on
/// the domain interval and unimodal on the complement arc (it rises to a
/// single peak midway around the ring), so the extrema over any interval
/// are attained at the interval endpoints or at the arc peak.
std::pair<i64, i64> torus_axis_range(i64 a_lo, i64 a_hi, i64 b_lo, i64 b_hi,
                                     i64 n) {
  auto f = [&](i64 v) { return torus_axis_distance(v, b_lo, b_hi, n); };
  const i64 arc = n - (b_hi - b_lo);  // complement length
  if (arc <= 0) return {0, 0};        // domain covers the whole ring

  const bool overlaps = a_lo < b_hi && b_lo < a_hi;
  const i64 min_d = overlaps ? 0 : std::min(f(a_lo), f(a_hi - 1));

  i64 max_d = std::max(f(a_lo), f(a_hi - 1));
  // Arc positions j = 1..arc sit at ring coordinate (b_hi - 1 + j) mod n
  // with distance min(j, arc + 1 - j); the peak is at j ≈ (arc + 1) / 2.
  for (const i64 j : {(arc + 1) / 2, arc + 1 - (arc + 1) / 2}) {
    const i64 v = (b_hi - 1 + j) % n;
    if (v >= a_lo && v < a_hi) {
      max_d = std::max(max_d, std::min(j, arc + 1 - j));
    }
  }
  return {min_d, max_d};
}

/// Range of the periodic Chebyshev distance from points of `cell` to `dom`
/// on the torus of side n (cubic grids).
std::pair<i64, i64> chebyshev_range(const Box3& cell, const Box3& dom,
                                    i64 n) {
  const auto [minx, maxx] =
      torus_axis_range(cell.lo.x, cell.hi.x, dom.lo.x, dom.hi.x, n);
  const auto [miny, maxy] =
      torus_axis_range(cell.lo.y, cell.hi.y, dom.lo.y, dom.hi.y, n);
  const auto [minz, maxz] =
      torus_axis_range(cell.lo.z, cell.hi.z, dom.lo.z, dom.hi.z, n);
  return {std::max({minx, miny, minz}), std::max({maxx, maxy, maxz})};
}

/// Band classification of a distance: -1 inside the sub-domain, band index
/// otherwise, bands.size() for the far region. Class index is monotone in
/// distance, so a cell's distance range [min_d, max_d] covers exactly the
/// classes [class(min_d), class(max_d)].
int band_class(i64 dist, const std::vector<RateBand>& bands) {
  if (dist <= 0) return -1;
  for (std::size_t i = 0; i < bands.size(); ++i) {
    if (dist <= bands[i].max_distance) return static_cast<int>(i);
  }
  return static_cast<int>(bands.size());
}

/// Rate of a band class.
i64 class_rate(int cls, const SamplingPolicy& policy) {
  if (cls < 0) return 1;
  if (cls < static_cast<int>(policy.bands().size())) {
    return policy.bands()[static_cast<std::size_t>(cls)].rate;
  }
  return policy.far_rate();
}

/// True iff every class in [class(min_d), class(max_d)] has the same rate.
bool rate_uniform_over(i64 min_d, i64 max_d, const SamplingPolicy& policy) {
  const int c0 = band_class(min_d, policy.bands());
  const int c1 = band_class(max_d, policy.bands());
  const i64 r0 = class_rate(c0, policy);
  for (int c = c0 + 1; c <= c1; ++c) {
    if (class_rate(c, policy) != r0) return false;
  }
  return true;
}

/// Interleaved (z, y, x) Morton key of a point at `levels` bits per axis.
/// The build recursion visits octants z-major/x-minor, so leaf corners come
/// out in ascending key order and each leaf of side s covers the contiguous
/// key range [key(corner), key(corner) + s³).
std::uint64_t morton_key(const Index3& p, int levels) noexcept {
  std::uint64_t key = 0;
  for (int b = levels - 1; b >= 0; --b) {
    key = (key << 3) |
          (static_cast<std::uint64_t>((p.z >> b) & 1) << 2) |
          (static_cast<std::uint64_t>((p.y >> b) & 1) << 1) |
          static_cast<std::uint64_t>((p.x >> b) & 1);
  }
  return key;
}

}  // namespace

Octree::Octree(const Grid3& grid, const Box3& subdomain)
    : grid_(grid), subdomain_(subdomain) {}

Octree::Octree(const Grid3& grid, const Box3& subdomain,
               const SamplingPolicy& policy)
    : grid_(grid), subdomain_(subdomain) {
  LC_CHECK_ARG(grid.nx == grid.ny && grid.ny == grid.nz,
               "octree requires a cubic grid");
  LC_CHECK_ARG(fft::is_pow2(static_cast<std::size_t>(grid.nx)),
               "octree requires a power-of-two grid side");
  LC_CHECK_ARG(Box3::of(grid).contains(subdomain) && !subdomain.empty(),
               "sub-domain must be a non-empty box inside the grid");
  build({0, 0, 0}, grid.nx, policy);
  finalize_offsets();
  build_lookup();
}

void Octree::build_lookup() {
  cell_keys_.clear();
  if (grid_.nx != grid_.ny || grid_.ny != grid_.nz ||
      !fft::is_pow2(static_cast<std::size_t>(grid_.nx))) {
    return;  // linear-scan fallback
  }
  levels_ = std::countr_zero(static_cast<std::uint64_t>(grid_.nx));
  cell_keys_.reserve(cells_.size());
  for (const auto& c : cells_) {
    cell_keys_.push_back(morton_key(c.corner, levels_));
  }
  LC_ASSERT(std::is_sorted(cell_keys_.begin(), cell_keys_.end()));
}

void Octree::build(const Index3& corner, i64 side,
                   const SamplingPolicy& policy) {
  const Box3 cell = Box3::cube_at(corner, side);
  const auto [min_d, max_d] = chebyshev_range(cell, subdomain_, grid_.nx);

  // Boundary-shell classification (dense band at the grid edge).
  const i64 band = policy.boundary_band();
  bool shell_uniform = true;
  bool in_shell = false;
  if (band > 0) {
    auto bd = [&](i64 lo, i64 hi, i64 n) {
      // min over [lo, hi) of min(v, n-1-v), and an upper bound of the max.
      const i64 min_v = std::min(lo, n - hi);
      const i64 max_v = std::min(hi - 1, n - 1 - lo);  // safe upper bound
      return std::pair<i64, i64>(min_v, max_v);
    };
    const auto [minx, maxx] = bd(cell.lo.x, cell.hi.x, grid_.nx);
    const auto [miny, maxy] = bd(cell.lo.y, cell.hi.y, grid_.ny);
    const auto [minz, maxz] = bd(cell.lo.z, cell.hi.z, grid_.nz);
    const i64 min_bd = std::min({minx, miny, minz});
    const i64 max_bd_bound = std::min({maxx, maxy, maxz});
    if (min_bd >= band) {
      in_shell = false;  // entirely outside the shell
    } else if (max_bd_bound < band) {
      in_shell = true;  // entirely inside the shell
    } else {
      shell_uniform = (side == 1);
      in_shell = min_bd < band;  // only used when side == 1 (then exact)
    }
  }

  const bool rate_uniform = rate_uniform_over(min_d, max_d, policy);

  if ((rate_uniform || in_shell) && shell_uniform) {
    OctreeCell leaf;
    leaf.corner = corner;
    leaf.side = side;
    leaf.rate = in_shell ? 1 : std::min<i64>(policy.rate_at_distance(min_d), side);
    cells_.push_back(leaf);
    return;
  }
  if (side == 1) {
    cells_.push_back(OctreeCell{corner, 1, 1, 0});
    return;
  }

  const i64 h = side / 2;
  for (i64 dz = 0; dz < 2; ++dz) {
    for (i64 dy = 0; dy < 2; ++dy) {
      for (i64 dx = 0; dx < 2; ++dx) {
        build({corner.x + dx * h, corner.y + dy * h, corner.z + dz * h}, h,
              policy);
      }
    }
  }
}

void Octree::finalize_offsets() {
  total_ = 0;
  for (auto& c : cells_) {
    c.sample_offset = total_;
    total_ += c.sample_count();
  }
}

std::vector<std::int32_t> Octree::encode_metadata() const {
  std::vector<std::int32_t> meta;
  meta.reserve(cells_.size() * 5);
  for (const auto& c : cells_) {
    meta.push_back(static_cast<std::int32_t>(c.corner.x));
    meta.push_back(static_cast<std::int32_t>(c.corner.y));
    meta.push_back(static_cast<std::int32_t>(c.corner.z));
    meta.push_back(static_cast<std::int32_t>(c.rate));
    meta.push_back(static_cast<std::int32_t>(c.sample_offset));
  }
  return meta;
}

Octree Octree::decode_metadata(const Grid3& grid,
                               std::span<const std::int32_t> metadata,
                               std::size_t total_samples) {
  LC_CHECK_ARG(metadata.size() % 5 == 0,
               "metadata length must be a multiple of 5");
  const std::size_t n = metadata.size() / 5;
  LC_CHECK_ARG(n > 0, "empty metadata");
  Octree tree(grid, Box3::of(grid));
  tree.cells_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    OctreeCell c;
    c.corner = {metadata[5 * i + 0], metadata[5 * i + 1], metadata[5 * i + 2]};
    c.rate = metadata[5 * i + 3];
    c.sample_offset = static_cast<std::size_t>(metadata[5 * i + 4]);
    const std::size_t next = (i + 1 < n)
                                 ? static_cast<std::size_t>(metadata[5 * i + 9])
                                 : total_samples;
    const std::size_t count = next - c.sample_offset;
    // count is an exact cube by construction; the side follows from the
    // stored rate (dense cells: side = edge; coarse cells store an
    // edge-inclusive lattice: side = rate * (edge - 1)).
    const auto edge = static_cast<i64>(
        std::llround(std::cbrt(static_cast<double>(count))));
    LC_CHECK_ARG(static_cast<std::size_t>(edge) * edge * edge == count,
                 "corrupt metadata: sample count not a cube");
    c.side = (c.rate == 1) ? edge : c.rate * (edge - 1);
    tree.cells_.push_back(c);
  }
  tree.total_ = total_samples;
  tree.build_lookup();
  return tree;
}

std::vector<i64> Octree::retained_z_planes() const {
  std::vector<char> keep(static_cast<std::size_t>(grid_.nz), 0);
  for (const auto& c : cells_) {
    for (i64 iz = 0; iz < c.samples_per_edge(); ++iz) {
      // Edge-inclusive lattices wrap at the grid top (periodic result).
      keep[static_cast<std::size_t>((c.corner.z + iz * c.rate) % grid_.nz)] = 1;
    }
  }
  std::vector<i64> planes;
  for (i64 z = 0; z < grid_.nz; ++z) {
    if (keep[static_cast<std::size_t>(z)]) planes.push_back(z);
  }
  return planes;
}

const OctreeCell& Octree::cell_containing(const Index3& p) const {
  LC_CHECK_ARG(grid_.contains(p), "point outside grid");
  if (!cell_keys_.empty()) {
    // Each leaf of side s covers the contiguous key range
    // [key(corner), key(corner) + s³), so the containing cell is the
    // predecessor of p's key in the sorted corner-key array.
    const std::uint64_t key = morton_key(p, levels_);
    const auto it =
        std::upper_bound(cell_keys_.begin(), cell_keys_.end(), key);
    if (it != cell_keys_.begin()) {
      const auto idx = static_cast<std::size_t>(it - cell_keys_.begin()) - 1;
      const OctreeCell& c = cells_[idx];
      if (c.box().contains(p)) return c;
    }
  } else {
    for (const auto& c : cells_) {
      if (c.box().contains(p)) return c;
    }
  }
  throw InternalError("octree cells do not tile the grid at " + p.str());
}

std::pair<std::size_t, std::size_t> Octree::cell_range(const Box3& box) const {
  if (cell_keys_.empty() || box.empty()) return {0, cells_.size()};
  // The enclosing block's side is 2^s for the highest bit in which the
  // box's first and last coordinates differ on any axis; its points are
  // exactly the keys [key(corner), key(corner) + 8^s).
  const auto diff = static_cast<std::uint64_t>((box.lo.x ^ (box.hi.x - 1)) |
                                               (box.lo.y ^ (box.hi.y - 1)) |
                                               (box.lo.z ^ (box.hi.z - 1)));
  const int s = std::bit_width(diff);
  const Index3 corner{box.lo.x >> s << s, box.lo.y >> s << s,
                      box.lo.z >> s << s};
  const std::uint64_t lo = morton_key(corner, levels_);
  const std::uint64_t hi = lo + (std::uint64_t{1} << (3 * s));
  // Leaves tile the key space in order, so the overlapping ones run from
  // the leaf containing `lo` (keys_[0] == 0 ≤ lo) to the last leaf
  // starting below `hi`.
  const auto first =
      std::upper_bound(cell_keys_.begin(), cell_keys_.end(), lo) - 1;
  const auto last = std::lower_bound(first, cell_keys_.end(), hi);
  return {static_cast<std::size_t>(first - cell_keys_.begin()),
          static_cast<std::size_t>(last - cell_keys_.begin())};
}

}  // namespace lc::sampling
