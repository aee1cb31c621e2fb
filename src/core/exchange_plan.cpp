#include "core/exchange_plan.hpp"

#include <bit>
#include <utility>

#include "comm/wire_codec.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"

namespace lc::core {

ExchangeRoute resolve_route(ExchangeRoute route,
                            const comm::Topology& topo) noexcept {
  if (route != ExchangeRoute::kAuto) return route;
  return topo.is_flat() ? ExchangeRoute::kFlat : ExchangeRoute::kHierarchical;
}

ExchangePlan::ExchangePlan(const Grid3& grid, const LowCommParams& params,
                           comm::Topology topo, ExchangeRoute route,
                           const OctreeSource& octree_for)
    : ExchangePlan(grid, params, std::move(topo), route, octree_for,
                   /*retain=*/true) {}

comm::LevelTraffic ExchangePlan::mirror(const Grid3& grid,
                                        const LowCommParams& params,
                                        comm::Topology topo,
                                        ExchangeRoute route,
                                        const OctreeSource& octree_for) {
  return ExchangePlan(grid, params, std::move(topo), route, octree_for,
                      /*retain=*/false)
      .traffic();
}

std::string ExchangePlan::key(const Grid3& grid, const LowCommParams& params,
                              ExchangeRoute resolved) {
  std::string key = "exchange-plan/n=" + std::to_string(grid.nx) + "x" +
                    std::to_string(grid.ny) + "x" + std::to_string(grid.nz);
  key += "/k=" + std::to_string(params.subdomain) +
         "/far=" + std::to_string(params.far_rate) +
         "/band=" + std::to_string(params.boundary_band) +
         "/halo=" + std::to_string(params.dense_halo) + "/uniform=" +
         (params.uniform_rate ? std::to_string(*params.uniform_rate) : "-");
  key += std::string("/wire=") + comm::codec_name(params.wire);
  key += resolved == ExchangeRoute::kHierarchical ? "/route=hier"
                                                  : "/route=flat";
  return key;
}

ExchangePlan::ExchangePlan(const Grid3& grid, const LowCommParams& params,
                           comm::Topology topo, ExchangeRoute route,
                           const OctreeSource& octree_for, bool retain)
    : decomp_(grid, params.subdomain),
      topo_(std::move(topo)),
      hierarchical_(resolve_route(route, topo_) ==
                    ExchangeRoute::kHierarchical),
      groups_(hierarchical_ ? topo_.nodes() : topo_.ranks()),
      words_((static_cast<std::size_t>(groups_) + 63) / 64) {
  LC_TRACE("exchange.plan_build");
  const int ranks = topo_.ranks();
  owned_.resize(static_cast<std::size_t>(ranks));
  owner_group_.assign(decomp_.count(), 0);
  for (int r = 0; r < ranks; ++r) {
    owned_[static_cast<std::size_t>(r)] = decomp_.assigned_to(r, ranks);
    for (const std::size_t d : owned_[static_cast<std::size_t>(r)]) {
      owner_group_[d] = group_of(r);
    }
  }

  const auto policy = params.make_policy();
  const auto tree_of = [&](std::size_t d) {
    return octree_for ? octree_for(d)
                      : std::make_shared<const sampling::Octree>(
                            grid, decomp_.subdomain(d), policy);
  };
  if (retain) {
    trees_.resize(decomp_.count());
    masks_.resize(decomp_.count());
  }

  // Encoded bytes per (source rank, destination group), then rounded up to
  // whole wire doubles once per bundle.
  doubles_.assign(static_cast<std::size_t>(ranks) *
                      static_cast<std::size_t>(groups_),
                  0);
  for (int src = 0; src < ranks; ++src) {
    std::size_t* row = doubles_.data() + static_cast<std::size_t>(src) *
                                             static_cast<std::size_t>(groups_);
    for (const std::size_t d : owned_[static_cast<std::size_t>(src)]) {
      auto tree = tree_of(d);
      auto masks = cell_masks(*tree);
      const auto cells = tree->cells();
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const std::size_t bytes =
            comm::encoded_cell_bytes(params.wire, cells[ci].sample_count());
        for (std::size_t w = 0; w < words_; ++w) {
          for (std::uint64_t bits = masks[ci * words_ + w]; bits != 0;
               bits &= bits - 1) {
            row[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] +=
                bytes;
          }
        }
      }
      if (retain) {
        trees_[d] = std::move(tree);
        masks_[d] = std::move(masks);
      }
    }
  }
  for (std::size_t& b : doubles_) b = comm::wire_doubles(b);
  replay_schedule();
}

std::vector<std::uint64_t> ExchangePlan::cell_masks(
    const sampling::Octree& tree) const {
  // Sub-domains tile the grid as a regular x-fastest lattice of k-cubes, so
  // the ones a cell overlaps are a block range per axis — no need to test
  // the cell against every sub-domain.
  const i64 k = decomp_.subdomain_size();
  const i64 per_axis = decomp_.grid().nx / k;
  const auto cells = tree.cells();
  std::vector<std::uint64_t> bits(cells.size() * words_, 0);
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Box3 box = cells[ci].box();
    for (i64 bz = box.lo.z / k; bz <= (box.hi.z - 1) / k; ++bz) {
      for (i64 by = box.lo.y / k; by <= (box.hi.y - 1) / k; ++by) {
        for (i64 bx = box.lo.x / k; bx <= (box.hi.x - 1) / k; ++bx) {
          const auto d = static_cast<std::size_t>((bz * per_axis + by) *
                                                      per_axis +
                                                  bx);
          const auto g = static_cast<std::size_t>(owner_group_[d]);
          bits[ci * words_ + g / 64] |= std::uint64_t{1} << (g % 64);
        }
      }
    }
  }
  return bits;
}

void ExchangePlan::replay_schedule() {
  const int ranks = topo_.ranks();
  const auto count = [&](bool inter, std::size_t doubles,
                         std::size_t msgs = 1) {
    if (inter) {
      traffic_.inter_bytes += doubles * sizeof(double);
      traffic_.inter_messages += msgs;
    } else {
      traffic_.intra_bytes += doubles * sizeof(double);
      traffic_.intra_messages += msgs;
    }
  };

  if (!hierarchical_) {
    // Flat route: one message per ordered rank pair (empty ones included —
    // all_to_all ships them too), classified by node co-residency.
    for (int src = 0; src < ranks; ++src) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst != src) count(!topo_.same_node(src, dst), doubles(src, dst));
      }
    }
    return;
  }

  // Hierarchical route: replay node_multicast_exchange's schedule — own-node
  // multicast, non-leader gather, one inter message per ordered node pair,
  // leader redistribution.
  for (int me = 0; me < ranks; ++me) {
    const int my_node = topo_.node_of(me);
    const auto members = topo_.members(my_node);
    const auto peers = members.size() - 1;
    count(false, peers * doubles(me, my_node), peers);
    if (!topo_.is_leader(me)) {
      std::size_t remote = 0;
      for (int d = 0; d < groups_; ++d) {
        if (d != my_node) remote += doubles(me, d);
      }
      count(false, remote);
      continue;
    }
    for (int d = 0; d < groups_; ++d) {
      if (d == my_node) continue;
      std::size_t combined = 0;
      for (const int q : members) combined += doubles(q, d);
      // Leaders exchange one combined message per ordered node pair, then
      // forward each received bundle to every local peer.
      count(!topo_.same_node(me, topo_.leader_of(d)), combined);
      std::size_t inbound = 0;
      for (const int q : topo_.members(d)) inbound += doubles(q, my_node);
      count(false, peers * inbound, peers);
    }
  }
}

}  // namespace lc::core
