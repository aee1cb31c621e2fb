// ExchangePlan: the metadata of the method's single sample exchange,
// computed once per (grid, sampling policy, wire codec, topology, route)
// and shared by everything that needs it.
//
// Octrees depend only on (grid, policy), so every quantity that frames the
// exchange — which rank owns which sub-domain, which octree cells each
// destination needs, and how many wire doubles every source ships to every
// destination — is deterministic and payload-free. The plan holds them all:
// the executor (core::distributed_lowcomm_convolve) packs and unpacks from
// its masks, the size table frames the header-free collectives, and the
// static traffic mirror and the telemetry predictions replay the same
// table. A SimCluster keeps the latest plan in its memo slot, so repeated
// calls on one cluster only move payloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/topology.hpp"
#include "core/decomposition.hpp"
#include "sampling/octree.hpp"

namespace lc::core {

struct LowCommParams;

/// How distributed_lowcomm_convolve routes its single sample exchange.
enum class ExchangeRoute {
  kAuto,          ///< hierarchical on grouped topologies, flat otherwise
  kFlat,          ///< one message per ordered rank pair (Rank::all_to_all)
  kHierarchical,  ///< node-multicast exchange (comm/hierarchical.hpp)
};

/// kAuto resolved against `topo`: hierarchical iff the topology groups
/// ranks into nodes.
[[nodiscard]] ExchangeRoute resolve_route(ExchangeRoute route,
                                          const comm::Topology& topo) noexcept;

/// Immutable exchange metadata. Destinations are *groups*: single ranks on
/// the flat route, nodes on the hierarchical one (a cell is packed once per
/// group that needs it, and every rank of the group receives it).
class ExchangePlan {
 public:
  /// Source of per-sub-domain octrees: an engine's cached slots, or trees
  /// built from the params' policy when empty.
  using OctreeSource =
      std::function<std::shared_ptr<const sampling::Octree>(std::size_t)>;

  /// Build the plan for `params` (sampling fields and wire codec) on `topo`
  /// under `route` (kAuto resolved here).
  ExchangePlan(const Grid3& grid, const LowCommParams& params,
               comm::Topology topo, ExchangeRoute route,
               const OctreeSource& octree_for = {});

  /// Static per-level wire traffic of the exchange, from the same builder
  /// and size table as the plan but without keeping octrees or masks (the
  /// planner prices many candidates this way).
  [[nodiscard]] static comm::LevelTraffic mirror(
      const Grid3& grid, const LowCommParams& params, comm::Topology topo,
      ExchangeRoute route, const OctreeSource& octree_for = {});

  /// Memo key of the plan for these inputs on one cluster (the topology is
  /// the cluster's own, so it is not part of the key).
  [[nodiscard]] static std::string key(const Grid3& grid,
                                       const LowCommParams& params,
                                       ExchangeRoute resolved);

  [[nodiscard]] const DomainDecomposition& decomposition() const noexcept {
    return decomp_;
  }
  [[nodiscard]] bool hierarchical() const noexcept { return hierarchical_; }

  /// Destination groups: ranks (flat) or nodes (hierarchical).
  [[nodiscard]] int groups() const noexcept { return groups_; }
  [[nodiscard]] int group_of(int rank) const {
    return hierarchical_ ? topo_.node_of(rank) : rank;
  }
  [[nodiscard]] std::size_t group_size(int group) const {
    return hierarchical_ ? topo_.members(group).size() : 1;
  }

  /// Sub-domain indices (ascending) owned by `rank`.
  [[nodiscard]] const std::vector<std::size_t>& owned(int rank) const {
    return owned_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] const std::shared_ptr<const sampling::Octree>& octree(
      std::size_t subdomain) const {
    return trees_[subdomain];
  }
  /// True iff cell `cell` of sub-domain `subdomain`'s octree overlaps a
  /// sub-domain owned by a rank of destination group `group`.
  [[nodiscard]] bool needed(std::size_t subdomain, std::size_t cell,
                            int group) const noexcept {
    const auto g = static_cast<std::size_t>(group);
    return (masks_[subdomain][cell * words_ + g / 64] >> (g % 64)) & 1u;
  }
  /// Wire doubles rank `src` ships to destination group `group`: encoded
  /// bytes of every packed cell, rounded up to whole doubles once per
  /// bundle (exactly the WireEncoder framing).
  [[nodiscard]] std::size_t doubles(int src, int group) const noexcept {
    return doubles_[static_cast<std::size_t>(src) *
                        static_cast<std::size_t>(groups_) +
                    static_cast<std::size_t>(group)];
  }
  /// Per-level wire bytes and messages of the exchange collective — equal
  /// to the CommStats deltas an executed exchange records.
  [[nodiscard]] const comm::LevelTraffic& traffic() const noexcept {
    return traffic_;
  }

 private:
  ExchangePlan(const Grid3& grid, const LowCommParams& params,
               comm::Topology topo, ExchangeRoute route,
               const OctreeSource& octree_for, bool retain);
  [[nodiscard]] std::vector<std::uint64_t> cell_masks(
      const sampling::Octree& tree) const;
  void replay_schedule();

  DomainDecomposition decomp_;
  comm::Topology topo_;
  bool hierarchical_;
  int groups_;
  std::size_t words_;
  std::vector<std::vector<std::size_t>> owned_;
  std::vector<int> owner_group_;  // destination group owning sub-domain d
  std::vector<std::shared_ptr<const sampling::Octree>> trees_;
  std::vector<std::vector<std::uint64_t>> masks_;  // cells × words_ per tree
  std::vector<std::size_t> doubles_;               // ranks × groups_
  comm::LevelTraffic traffic_;
};

}  // namespace lc::core
