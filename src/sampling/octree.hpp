// Octree-based adaptive multi-resolution sampling (paper §3.2 step 3, Fig 3).
//
// The octree partitions the (cubic, power-of-two) grid into axis-aligned
// cubic cells, each carrying one downsampling rate from the SamplingPolicy.
// A downsampled cell (rate r > 1) of side s retains an *edge-inclusive*
// lattice of (s/r + 1)^3 samples at {corner + r·(i,j,k)}, the top plane
// wrapping periodically at the grid edge; the inclusive top face lets every
// interior point interpolate trilinearly without reaching into neighbouring
// cells. Dense cells (rate 1) store exactly their s^3 grid points. Cells
// are aligned so corner % rate == 0, keeping the retained lattice globally
// consistent across same-rate neighbours.
//
// Metadata follows the paper's wire format: five integers per cell —
// the corner coordinates (x, y, z), the downsampling rate, and the running
// total of samples in all preceding cells ("helps to decode the octree");
// the cell side is implied (side = rate · cbrt(count)).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sampling/sampling_policy.hpp"
#include "tensor/grid.hpp"

namespace lc::sampling {

/// One leaf cell of the sampling octree.
struct OctreeCell {
  Index3 corner;
  i64 side = 0;               ///< cube edge length
  i64 rate = 1;               ///< downsampling rate (1 = dense)
  std::size_t sample_offset = 0;  ///< index of this cell's first sample

  /// Samples per edge: side for dense cells, side/rate + 1 (edge-inclusive)
  /// for downsampled cells.
  [[nodiscard]] constexpr i64 samples_per_edge() const noexcept {
    return rate == 1 ? side : side / rate + 1;
  }
  /// Total samples in the cell.
  [[nodiscard]] constexpr std::size_t sample_count() const noexcept {
    const i64 e = samples_per_edge();
    return static_cast<std::size_t>(e) * static_cast<std::size_t>(e) *
           static_cast<std::size_t>(e);
  }
  [[nodiscard]] constexpr Box3 box() const noexcept {
    return Box3::cube_at(corner, side);
  }
  /// Linear index (within the cell payload) of sample (ix, iy, iz).
  [[nodiscard]] constexpr std::size_t sample_index(i64 ix, i64 iy,
                                                   i64 iz) const noexcept {
    const i64 e = samples_per_edge();
    return static_cast<std::size_t>((iz * e + iy) * e + ix);
  }
};

/// Adaptive sampling octree over a cubic power-of-two grid.
class Octree {
 public:
  /// Build by recursive subdivision: a node becomes a leaf when the policy
  /// assigns one uniform rate to its whole extent (rates capped at the cell
  /// side so every leaf keeps at least one sample). `subdomain` may be any
  /// box inside the grid (a sub-domain or a group of them); per-axis
  /// distance tables make each node's test a few lookups (DESIGN.md §12).
  Octree(const Grid3& grid, const Box3& subdomain,
         const SamplingPolicy& policy);

  [[nodiscard]] const Grid3& grid() const noexcept { return grid_; }
  [[nodiscard]] const Box3& subdomain() const noexcept { return subdomain_; }
  [[nodiscard]] std::span<const OctreeCell> cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] std::size_t total_samples() const noexcept { return total_; }

  /// Compression ratio: grid points per retained sample.
  [[nodiscard]] double compression_ratio() const noexcept {
    return static_cast<double>(grid_.size()) / static_cast<double>(total_);
  }

  /// The paper's 5-int-per-cell metadata encoding.
  [[nodiscard]] std::vector<std::int32_t> encode_metadata() const;

  /// Rebuild an octree (cells only) from encoded metadata. `total_samples`
  /// is the payload length, needed to size the final cell.
  static Octree decode_metadata(const Grid3& grid,
                                std::span<const std::int32_t> metadata,
                                std::size_t total_samples);

  /// Sorted union of z coordinates carrying at least one sample. The slab
  /// pipeline only inverse-transforms these planes.
  [[nodiscard]] std::vector<i64> retained_z_planes() const;

  /// Cell containing point p (cells tile the grid). O(log cells): leaves
  /// are stored in Morton (octant-recursion) order, so the containing cell
  /// is the predecessor of p's interleaved key in the sorted key array.
  [[nodiscard]] const OctreeCell& cell_containing(const Index3& p) const;

  /// Index range [first, last) of cells() holding every cell that can
  /// overlap `box` (a box inside the grid): the cells whose Morton key
  /// ranges meet that of the smallest aligned power-of-two block enclosing
  /// the box. Cells outside the range never overlap it; cells inside may
  /// not either (the block is larger than the box). The full range when
  /// the lookup index is absent.
  [[nodiscard]] std::pair<std::size_t, std::size_t> cell_range(
      const Box3& box) const;

 private:
  Octree(const Grid3& grid, const Box3& subdomain);  // for decode
  void finalize_offsets();
  /// Fill cell_keys_ with per-cell Morton corner keys (the binary-search
  /// index behind cell_containing). No-op on non-pow2 grids, where
  /// cell_containing falls back to a linear scan.
  void build_lookup();

  Grid3 grid_;
  Box3 subdomain_;
  std::vector<OctreeCell> cells_;
  std::vector<std::uint64_t> cell_keys_;
  int levels_ = 0;
  std::size_t total_ = 0;
};

/// What the memory model needs of an octree, without its cells.
struct OctreeShape {
  std::size_t cells = 0;            ///< leaf count
  std::size_t samples = 0;          ///< total retained samples
  std::size_t retained_planes = 0;  ///< retained_z_planes().size()
};

/// The shape of Octree(grid, subdomain, policy), from the same leaf walk
/// but storing no cell: planning at paper-scale N (hundreds of millions of
/// cells) costs the walk's time and an N-entry plane mask.
[[nodiscard]] OctreeShape octree_shape(const Grid3& grid,
                                       const Box3& subdomain,
                                       const SamplingPolicy& policy);

}  // namespace lc::sampling
