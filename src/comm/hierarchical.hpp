// Composed topology-aware collective (ROADMAP item 1), built entirely from
// Rank::send / Rank::recv point-to-point primitives in the ExaComm/HiCCL
// style: a collective is a fixed schedule of striped intra-node and
// inter-node phases (split → inter → intra) rather than a monolithic
// primitive. Phasing for the personalised exchange:
//
//   split (intra):  own-node buffers travel directly between node-mates,
//                   one per ordered pair; every non-leader funnels its
//                   remote-bound bundles to its node leader in ONE message;
//   inter:          leaders exchange ONE combined message per ordered node
//                   pair — the expensive link is crossed exactly once per
//                   pair, however many ranks share each node, and each
//                   bundle inside it is deduplicated for the whole node;
//   intra:          the destination leader cuts every received bundle into
//                   its node-mates' pieces and sends each mate only its
//                   own, one message per (source node, mate) — HiCCL's
//                   rule that each output element is written by a single
//                   primitive.
//
// Framing carries no metadata: SPMD callers are deterministic, so both
// sides compute every buffer size from shared size oracles, and the cut of
// a bundle into pieces comes from the caller (comm never looks inside a
// payload). All blocking waits sit in Rank::recv / barrier, so a peer
// failure unwinds this collective with RankAborted like the built-ins.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "comm/sim_cluster.hpp"
#include "comm/topology.hpp"

namespace lc::comm {

/// How the caller frames the payloads of hierarchical_exchange. Every
/// member must be a pure function of its arguments, agreed by every rank.
struct HierarchicalFraming {
  /// Doubles rank `src` addresses to rank `dst`: the buffer Rank::all_to_all
  /// would carry from src to dst.
  std::function<std::size_t(int src, int dst)> pair_doubles;
  /// Doubles of the one bundle rank `src` addresses to remote node `node`
  /// (deduplicated over the node's members).
  std::function<std::size_t(int src, int node)> node_doubles;
  /// Cut the bundle `src` addressed to the calling leader's node into one
  /// piece per member of that node, in member order: piece i must be
  /// exactly the buffer src would send member i directly.
  std::function<std::vector<std::vector<double>>(
      int src, std::span<const double> bundle)>
      split;
};

/// Hierarchical personalised exchange. `direct[q]` is this rank's buffer
/// for node-mate q (itself included; entries for ranks on other nodes must
/// be empty) and `bundles[n]` its bundle for remote node n (this rank's own
/// node's entry must be empty). Returns, indexed by SOURCE RANK, exactly
/// what Rank::all_to_all would deliver: incoming[s] is rank s's buffer for
/// this rank (incoming[id()] is the self buffer, moved out of `direct`).
/// Counts one collective round.
[[nodiscard]] std::vector<std::vector<double>> hierarchical_exchange(
    Rank& rank, std::vector<std::vector<double>> direct,
    std::vector<std::vector<double>> bundles,
    const HierarchicalFraming& framing);

}  // namespace lc::comm
