#include "sampling/octree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "fft/fft1d.hpp"

namespace lc::sampling {

namespace {

/// The build's lookup tables for one (grid, sub-domain box, policy), and
/// the recursion over them. A node of the recursion is an aligned cube, so
/// on each axis it covers one aligned interval: per axis, a bottom-up
/// heap of 2N entries holds the exact (min, max) periodic distance from
/// every aligned interval to the box's extent (leaves are the N single
/// coordinates, a parent takes the min and max of its two children). The
/// node's Chebyshev distance range is then the max of the three minima and
/// of the three maxima. rate_[d] is the policy's rate at distance d and
/// until_[d] the last distance with the same rate, so "one rate over
/// [min_d, max_d]" is the single compare max_d <= until_[min_d].
class LeafWalk {
 public:
  LeafWalk(const Grid3& grid, const Box3& box, const SamplingPolicy& policy)
      : n_(grid.nx), band_(policy.boundary_band()) {
    const auto un = static_cast<std::size_t>(n_);
    const i64 lo[3] = {box.lo.x, box.lo.y, box.lo.z};
    const i64 hi[3] = {box.hi.x, box.hi.y, box.hi.z};
    i64 far = 0;
    for (int a = 0; a < 3; ++a) {
      auto& heap = axis_[a];
      heap.resize(2 * un);
      for (std::size_t v = 0; v < un; ++v) {
        const i64 d =
            torus_axis_distance(static_cast<i64>(v), lo[a], hi[a], n_);
        heap[un + v] = {d, d};
      }
      for (std::size_t j = un - 1; j >= 1; --j) {
        heap[j] = {std::min(heap[2 * j].first, heap[2 * j + 1].first),
                   std::max(heap[2 * j].second, heap[2 * j + 1].second)};
      }
      far = std::max(far, heap[1].second);
    }
    rate_.resize(static_cast<std::size_t>(far) + 1);
    until_.resize(rate_.size());
    for (std::size_t d = 0; d < rate_.size(); ++d) {
      rate_[d] = policy.rate_at_distance(static_cast<i64>(d));
    }
    until_.back() = far;
    for (std::size_t d = rate_.size() - 1; d-- > 0;) {
      until_[d] = rate_[d + 1] == rate_[d] ? until_[d + 1]
                                            : static_cast<i64>(d);
    }
  }

  /// Call leaf(corner, side, rate) for every leaf, in Morton order (the
  /// octant recursion visits children z-major, x-minor).
  template <class Leaf>
  void run(Leaf&& leaf) const {
    visit(0, 0, 0, 0, leaf);
  }

 private:
  template <class Leaf>
  void visit(int level, i64 ix, i64 iy, i64 iz, Leaf& leaf) const {
    const i64 side = n_ >> level;
    const std::size_t base = std::size_t{1} << level;
    const auto& x = axis_[0][base + static_cast<std::size_t>(ix)];
    const auto& y = axis_[1][base + static_cast<std::size_t>(iy)];
    const auto& z = axis_[2][base + static_cast<std::size_t>(iz)];
    const i64 min_d = std::max({x.first, y.first, z.first});
    const i64 max_d = std::max({x.second, y.second, z.second});
    const Index3 corner{ix * side, iy * side, iz * side};

    // Boundary-shell classification (dense band at the grid edge).
    bool shell_uniform = true;
    bool in_shell = false;
    if (band_ > 0) {
      // min over [lo, lo + side) of min(v, n-1-v), and an upper bound of
      // the max.
      const auto bd = [&](i64 lo) {
        return std::pair<i64, i64>(std::min(lo, n_ - lo - side),
                                   std::min(lo + side - 1, n_ - 1 - lo));
      };
      const auto [minx, maxx] = bd(corner.x);
      const auto [miny, maxy] = bd(corner.y);
      const auto [minz, maxz] = bd(corner.z);
      const i64 min_bd = std::min({minx, miny, minz});
      const i64 max_bd_bound = std::min({maxx, maxy, maxz});
      if (min_bd >= band_) {
        in_shell = false;  // entirely outside the shell
      } else if (max_bd_bound < band_) {
        in_shell = true;  // entirely inside the shell
      } else {
        shell_uniform = (side == 1);
        in_shell = min_bd < band_;  // only used when side == 1 (then exact)
      }
    }

    const bool rate_uniform =
        max_d <= until_[static_cast<std::size_t>(min_d)];
    if ((rate_uniform || in_shell) && shell_uniform) {
      leaf(corner, side,
           in_shell ? i64{1}
                    : std::min(rate_[static_cast<std::size_t>(min_d)], side));
      return;
    }
    if (side == 1) {
      leaf(corner, i64{1}, i64{1});
      return;
    }
    for (i64 dz = 0; dz < 2; ++dz) {
      for (i64 dy = 0; dy < 2; ++dy) {
        for (i64 dx = 0; dx < 2; ++dx) {
          visit(level + 1, 2 * ix + dx, 2 * iy + dy, 2 * iz + dz, leaf);
        }
      }
    }
  }

  i64 n_;
  i64 band_;
  std::vector<std::pair<i64, i64>> axis_[3];  // heap of (min, max) distance
  std::vector<i64> rate_;                     // rate at distance d
  std::vector<i64> until_;  // last distance with rate_[d]
};

/// Checks shared by the octree constructor and octree_shape.
void check_build_args(const Grid3& grid, const Box3& subdomain) {
  LC_CHECK_ARG(grid.nx == grid.ny && grid.ny == grid.nz,
               "octree requires a cubic grid");
  LC_CHECK_ARG(fft::is_pow2(static_cast<std::size_t>(grid.nx)),
               "octree requires a power-of-two grid side");
  LC_CHECK_ARG(Box3::of(grid).contains(subdomain) && !subdomain.empty(),
               "sub-domain must be a non-empty box inside the grid");
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
  check_build_args(grid, subdomain);
  LeafWalk(grid, subdomain, policy).run([&](const Index3& corner, i64 side,
                                            i64 rate) {
    cells_.push_back(OctreeCell{corner, side, rate, 0});
  });
  finalize_offsets();
  build_lookup();
}

OctreeShape octree_shape(const Grid3& grid, const Box3& subdomain,
                         const SamplingPolicy& policy) {
  check_build_args(grid, subdomain);
  const i64 n = grid.nz;
  std::vector<char> keep(static_cast<std::size_t>(n), 0);
  OctreeShape shape;
  LeafWalk(grid, subdomain, policy).run([&](const Index3& corner, i64 side,
                                            i64 rate) {
    const OctreeCell cell{corner, side, rate, 0};
    ++shape.cells;
    shape.samples += cell.sample_count();
    for (i64 iz = 0; iz < cell.samples_per_edge(); ++iz) {
      keep[static_cast<std::size_t>((corner.z + iz * rate) % n)] = 1;
    }
  });
  shape.retained_planes =
      static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1));
  return shape;
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
