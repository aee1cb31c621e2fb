// ExchangePlan: the metadata of the method's single sample exchange,
// computed once per (grid, sampling policy, wire codec, topology, route)
// and shared by everything that needs it.
//
// Octrees depend only on (grid, policy), so every quantity that frames the
// exchange — which rank owns which group of sub-domains, which cells of
// each group's octree each rank needs, and how many wire doubles every
// source ships to every rank and node — is deterministic and payload-free.
// The plan holds them all: the executor (exchange_samples below) packs,
// routes and splits from its masks, the size tables frame the header-free
// collectives, and the static traffic mirror and the telemetry predictions
// replay the same tables. A SimCluster keeps the latest plan in its memo
// slot, so repeated calls on one cluster only move payloads.
//
// The unit of the exchange is the GROUP (DomainDecomposition::groups_of): a
// rank's owned sub-domains in one z-layer form maximal rectangles, each
// convolved as one chunk and sampled on one octree built around the group
// box, so the plan keeps one tree and one mask set per group.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/topology.hpp"
#include "comm/wire_codec.hpp"
#include "core/decomposition.hpp"
#include "sampling/compressed_field.hpp"
#include "sampling/octree.hpp"

namespace lc::core {

struct LowCommParams;

/// How distributed_lowcomm_convolve routes its single sample exchange.
enum class ExchangeRoute {
  kAuto,          ///< hierarchical on grouped topologies, flat otherwise
  kFlat,          ///< one message per ordered rank pair (Rank::all_to_all)
  kHierarchical,  ///< node-leader exchange (comm::hierarchical_exchange)
};

/// kAuto resolved against `topo`: hierarchical iff the topology groups
/// ranks into nodes.
[[nodiscard]] ExchangeRoute resolve_route(ExchangeRoute route,
                                          const comm::Topology& topo) noexcept;

/// Immutable exchange metadata. Cell masks are kept per destination rank;
/// a node needs a cell when any of its members does. On the flat route
/// every rank packs one buffer per rank. On the hierarchical route it packs
/// one buffer per node-mate and one node-deduplicated bundle per remote
/// node, which that node's leader splits back into per-rank pieces — so
/// either way every rank receives exactly its own cells.
class ExchangePlan {
 public:
  /// Build the plan for `params` (sampling fields and wire codec) on `topo`
  /// under `route` (kAuto resolved here).
  ExchangePlan(const Grid3& grid, const LowCommParams& params,
               comm::Topology topo, ExchangeRoute route);

  /// Static per-level wire traffic of the exchange, from the same builder
  /// and size tables as the plan but without keeping octrees or masks (the
  /// planner prices many candidates this way).
  [[nodiscard]] static comm::LevelTraffic mirror(
      const Grid3& grid, const LowCommParams& params, comm::Topology topo,
      ExchangeRoute route);

  /// Memo key of the plan for these inputs on one cluster (the topology is
  /// the cluster's own, so it is not part of the key).
  [[nodiscard]] static std::string key(const Grid3& grid,
                                       const LowCommParams& params,
                                       ExchangeRoute resolved);

  [[nodiscard]] bool hierarchical() const noexcept { return hierarchical_; }
  [[nodiscard]] comm::WireCodec codec() const noexcept { return codec_; }

  /// Indices of `rank`'s groups, in groups_of order (the plan numbers all
  /// groups in (rank, group) order).
  [[nodiscard]] const std::vector<std::size_t>& groups_of(int rank) const {
    return rank_groups_[static_cast<std::size_t>(rank)];
  }
  /// Box of group `group`: X×Y×k, inside one z-layer.
  [[nodiscard]] const Box3& group_box(std::size_t group) const {
    return boxes_[group];
  }
  /// Octree of group `group`, built around its box.
  [[nodiscard]] const std::shared_ptr<const sampling::Octree>& octree(
      std::size_t group) const {
    return trees_[group];
  }
  /// True iff cell `cell` of group `group`'s octree overlaps a sub-domain
  /// owned by `rank`.
  [[nodiscard]] bool needed(std::size_t group, std::size_t cell,
                            int rank) const noexcept {
    const auto r = static_cast<std::size_t>(rank);
    return (masks_[group][cell * words_ + r / 64] >> (r % 64)) & 1u;
  }
  /// True iff any member of `node` needs the cell.
  [[nodiscard]] bool needed_by_node(std::size_t group, std::size_t cell,
                                    int node) const {
    for (const int r : topo_.members(node)) {
      if (needed(group, cell, r)) return true;
    }
    return false;
  }
  /// Wire doubles of rank `src`'s buffer for rank `dst`: encoded bytes of
  /// every cell dst needs, rounded up to whole doubles once per buffer
  /// (exactly the WireEncoder framing).
  [[nodiscard]] std::size_t pair_doubles(int src, int dst) const noexcept {
    return pair_doubles_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(topo_.ranks()) +
                         static_cast<std::size_t>(dst)];
  }
  /// Wire doubles of rank `src`'s bundle for `node` on the hierarchical
  /// route: every cell any member needs, once (0 on the flat route).
  [[nodiscard]] std::size_t node_doubles(int src, int node) const noexcept {
    return hierarchical_
               ? node_doubles_[static_cast<std::size_t>(src) *
                                   static_cast<std::size_t>(topo_.nodes()) +
                               static_cast<std::size_t>(node)]
               : 0;
  }
  /// Cut `bundle`, rank `src`'s bundle for `node`, into one buffer per
  /// member of the node (member order) by copying encoded cell bytes:
  /// buffer i is byte-identical to what src packs for member i directly.
  [[nodiscard]] std::vector<std::vector<double>> split_bundle(
      int src, int node, std::span<const double> bundle) const;
  /// Per-level wire bytes and messages of the exchange collective — equal
  /// to the CommStats deltas an executed exchange records.
  [[nodiscard]] const comm::LevelTraffic& traffic() const noexcept {
    return traffic_;
  }

 private:
  ExchangePlan(const Grid3& grid, const LowCommParams& params,
               comm::Topology topo, ExchangeRoute route, bool retain);
  [[nodiscard]] std::vector<std::uint64_t> cell_masks(
      const sampling::Octree& tree) const;
  void replay_schedule();

  DomainDecomposition decomp_;
  comm::Topology topo_;
  bool hierarchical_;
  comm::WireCodec codec_;
  std::size_t words_;
  std::vector<std::vector<std::size_t>> rank_groups_;  // group ids per rank
  std::vector<Box3> boxes_;                            // per group
  std::vector<int> owner_;  // rank owning sub-domain d
  std::vector<std::shared_ptr<const sampling::Octree>> trees_;  // per group
  std::vector<std::vector<std::uint64_t>> masks_;  // cells × words_ per group
  std::vector<std::size_t> pair_doubles_;          // ranks × ranks
  std::vector<std::size_t> node_doubles_;          // ranks × nodes (hier)
  comm::LevelTraffic traffic_;
};

/// What one rank's side of the exchange produced.
struct ExchangeOutcome {
  /// Per source rank, exactly the buffer Rank::all_to_all delivers from it
  /// on the flat route, whichever route ran (incoming[rank] holds the
  /// rank's own cells, codec round-tripped like everyone else's).
  std::vector<std::vector<double>> incoming;
  /// Largest codec error over the payload this rank sent (0 under kOff).
  double max_quant_error = 0.0;
};

/// Run `rank`'s side of the plan's exchange. `local` holds the rank's
/// contributions, one per group of plan.groups_of(rank) in that order;
/// they are packed and released before the collective runs. Packed payload
/// leaving the rank feeds the exchange.* registry counters once per buffer.
[[nodiscard]] ExchangeOutcome exchange_samples(
    comm::Rank& rank, const ExchangePlan& plan,
    std::vector<sampling::CompressedField> local);

}  // namespace lc::core
