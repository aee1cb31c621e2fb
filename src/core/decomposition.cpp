#include "core/decomposition.hpp"

#include <algorithm>
#include <cstdint>

#include "common/check.hpp"

namespace lc::core {

namespace {

/// Visit the cells of a per_axis³ lattice (index x + per_axis·(y +
/// per_axis·z), x fastest) in Morton order: increasing key of the
/// interleaved block coordinates (x in the lowest bit of each triple), so
/// consecutive cells are spatial neighbours.
template <class Visit>
void morton_walk(i64 per_axis, Visit visit) {
  std::uint64_t side = 1;
  while (side < static_cast<std::uint64_t>(per_axis)) side <<= 1;
  const std::uint64_t keys = side * side * side;
  const auto axis = static_cast<std::uint64_t>(per_axis);
  for (std::uint64_t key = 0; key < keys; ++key) {
    std::uint64_t c[3] = {0, 0, 0};
    for (int b = 0; (key >> (3 * b)) != 0; ++b) {
      for (int a = 0; a < 3; ++a) {
        c[a] |= ((key >> (3 * b + a)) & 1u) << b;
      }
    }
    if (c[0] >= axis || c[1] >= axis || c[2] >= axis) continue;
    visit(static_cast<std::size_t>(c[0] + axis * (c[1] + axis * c[2])));
  }
}

/// The greedy group rule on one z-layer of per_axis² owner labels (-1: no
/// owner, or already grouped): the first labelled cell in (y, x) scan order
/// opens a group that takes the longest same-owner x run from it, then
/// every following y row whose run is whole. Calls emit(owner, x0, y0, x1,
/// y1) per group, in opening order, and clears the grouped labels.
template <class Emit>
void layer_groups(i64 per_axis, int* label, Emit emit) {
  const auto at = [&](i64 x, i64 y) -> int& {
    return label[static_cast<std::size_t>(y * per_axis + x)];
  };
  for (i64 y0 = 0; y0 < per_axis; ++y0) {
    for (i64 x0 = 0; x0 < per_axis; ++x0) {
      const int owner = at(x0, y0);
      if (owner < 0) continue;
      i64 x1 = x0 + 1;
      while (x1 < per_axis && at(x1, y0) == owner) ++x1;
      i64 y1 = y0 + 1;
      const auto row_whole = [&](i64 y) {
        for (i64 x = x0; x < x1; ++x) {
          if (at(x, y) != owner) return false;
        }
        return true;
      };
      while (y1 < per_axis && row_whole(y1)) ++y1;
      for (i64 y = y0; y < y1; ++y) {
        for (i64 x = x0; x < x1; ++x) at(x, y) = -1;
      }
      emit(owner, x0, y0, x1, y1);
    }
  }
}

}  // namespace

DomainDecomposition::DomainDecomposition(const Grid3& grid, i64 k)
    : grid_(grid), k_(k) {
  LC_CHECK_ARG(grid.nx == grid.ny && grid.ny == grid.nz,
               "decomposition requires a cubic grid");
  LC_CHECK_ARG(k >= 1 && k <= grid.nx, "sub-domain size outside grid");
  LC_CHECK_ARG(grid.nx % k == 0, "grid side must be divisible by k");
  const i64 per_axis = grid.nx / k;
  boxes_.reserve(static_cast<std::size_t>(per_axis * per_axis * per_axis));
  for (i64 z = 0; z < per_axis; ++z) {
    for (i64 y = 0; y < per_axis; ++y) {
      for (i64 x = 0; x < per_axis; ++x) {
        boxes_.push_back(Box3::cube_at({x * k, y * k, z * k}, k));
      }
    }
  }
  // Boxes are numbered x-fastest, exactly as morton_walk numbers cells.
  morton_order_.reserve(boxes_.size());
  morton_walk(per_axis,
              [&](std::size_t cell) { morton_order_.push_back(cell); });
}

std::vector<std::size_t> DomainDecomposition::assigned_to(int rank,
                                                          int workers) const {
  LC_CHECK_ARG(workers >= 1 && rank >= 0 && rank < workers,
               "bad rank/worker count");
  // Rank r owns the r-th contiguous run of the Morton order, so each rank's
  // sub-domains form one compact spatial cluster and rank blocks (= nodes
  // under Topology::grouped) cluster too.
  const std::size_t count = boxes_.size();
  const std::size_t p = static_cast<std::size_t>(workers);
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t begin = count * r / p;
  const std::size_t end = count * (r + 1) / p;
  std::vector<std::size_t> mine(
      morton_order_.begin() + static_cast<std::ptrdiff_t>(begin),
      morton_order_.begin() + static_cast<std::ptrdiff_t>(end));
  std::sort(mine.begin(), mine.end());
  return mine;
}

std::vector<Box3> DomainDecomposition::groups_of(int rank,
                                                 int workers) const {
  const i64 per_axis = grid_.nx / k_;
  const auto layer = static_cast<std::size_t>(per_axis * per_axis);
  // One label buffer per layer: a single lattice-sized buffer measured
  // ~9 MB more peak RSS on lowcomm-n64-q16-flat (glibc heap layout of the
  // exchange-plan build), for the same groups.
  std::vector<std::vector<int>> label(static_cast<std::size_t>(per_axis),
                                      std::vector<int>(layer, -1));
  for (const std::size_t d : assigned_to(rank, workers)) {
    label[d / layer][d % layer] = rank;
  }
  std::vector<Box3> groups;
  for (i64 z = 0; z < per_axis; ++z) {
    layer_groups(per_axis, label[static_cast<std::size_t>(z)].data(),
                 [&](int, i64 x0, i64 y0, i64 x1, i64 y1) {
                   groups.push_back(Box3{{x0 * k_, y0 * k_, z * k_},
                                         {x1 * k_, y1 * k_, (z + 1) * k_}});
                 });
  }
  return groups;
}

std::size_t DomainDecomposition::max_groups_per_rank(i64 per_axis,
                                                     int workers) {
  LC_CHECK_ARG(per_axis >= 1 && workers >= 1, "bad lattice/worker count");
  const auto count = static_cast<std::size_t>(per_axis * per_axis * per_axis);
  const auto layer = static_cast<std::size_t>(per_axis * per_axis);
  const auto p = static_cast<std::size_t>(workers);
  // Morton position i belongs to the rank r with count·r/P <= i <
  // count·(r+1)/P (assigned_to's runs), i.e. r = ((i+1)·P − 1) / count.
  std::vector<int> label(count);
  std::size_t position = 0;
  morton_walk(per_axis, [&](std::size_t cell) {
    label[cell] = static_cast<int>(((position + 1) * p - 1) / count);
    ++position;
  });
  // Each rank's groups are what its own scan finds: the greedy rule only
  // ever reads and clears cells of the owner that opened the group.
  std::vector<std::size_t> groups(p, 0);
  for (i64 z = 0; z < per_axis; ++z) {
    layer_groups(per_axis, label.data() + static_cast<std::size_t>(z) * layer,
                 [&](int owner, i64, i64, i64, i64) {
                   ++groups[static_cast<std::size_t>(owner)];
                 });
  }
  return *std::max_element(groups.begin(), groups.end());
}

}  // namespace lc::core
