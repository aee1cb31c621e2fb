// Domain decomposition (paper §3.2 step 1): the N³ grid is split into k³
// sub-domains; each worker processes one or more sub-domains locally.
#pragma once

#include <vector>

#include "tensor/grid.hpp"

namespace lc::core {

/// Regular volumetric decomposition of a cubic grid into cubic sub-domains.
class DomainDecomposition {
 public:
  /// Split `grid` (cubic, side divisible by k) into k³ boxes, ordered
  /// x-fastest.
  DomainDecomposition(const Grid3& grid, i64 k);

  [[nodiscard]] const Grid3& grid() const noexcept { return grid_; }
  [[nodiscard]] i64 subdomain_size() const noexcept { return k_; }
  [[nodiscard]] std::size_t count() const noexcept { return boxes_.size(); }
  [[nodiscard]] const std::vector<Box3>& subdomains() const noexcept {
    return boxes_;
  }
  [[nodiscard]] const Box3& subdomain(std::size_t i) const {
    return boxes_.at(i);
  }

  /// Sub-domain indices (ascending) owned by `rank` out of `workers`:
  /// contiguous runs of the Morton (octant-interleaved) order, so each rank
  /// owns a compact spatial block and neighbouring sub-domains — whose
  /// octree cells overlap the most — land on the same rank (and, with
  /// block-grouped topologies, the same node). This is what makes the
  /// planner's node-locality assumptions real. Every caller of the exchange
  /// — packing, the static traffic mirror, and the executed collective —
  /// routes through this one assignment, so their framing agrees.
  [[nodiscard]] std::vector<std::size_t> assigned_to(int rank,
                                                     int workers) const;

 private:
  Grid3 grid_;
  i64 k_;
  std::vector<Box3> boxes_;
  std::vector<std::size_t> morton_order_;  // box indices in Morton order
};

}  // namespace lc::core
