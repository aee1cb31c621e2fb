// Communication cost models from the paper (§2.1 and §5.1).
//
//   Eqn 2 (α-β model):       t(m)    = α + β · m
//   Eqn 1 (traditional FFT): T_FFT   = 2 · N³ / (P · β_link)
//   Eqn 6 (our method):      T_ours  = (k³ + (N³ − k³)/r³) / (P · β_link)
//
// β_link is expressed as points per second per link (the paper divides a
// point count by P·β_link, so β_link carries points/s units); the α-β model
// uses seconds and bytes.
#pragma once

#include <cstddef>

#include "tensor/grid.hpp"

namespace lc::comm {

/// Latency-bandwidth point-to-point model (paper Eqn 2).
struct AlphaBetaModel {
  double alpha = 1e-6;   ///< per-message latency [s]
  double beta = 1e-10;   ///< per-byte transfer cost [s/byte]

  /// Time to move one m-byte message.
  [[nodiscard]] double message_time(std::size_t bytes) const noexcept {
    return alpha + beta * static_cast<double>(bytes);
  }

  /// Time for `rounds` rounds each moving `bytes_per_round` per worker.
  [[nodiscard]] double rounds_time(int rounds,
                                   std::size_t bytes_per_round) const noexcept {
    return static_cast<double>(rounds) * message_time(bytes_per_round);
  }
};

/// Per-level α-β link parameters for a two-level (intra-node / inter-node)
/// hierarchy. The defaults model a shared-memory or NVLink-class intra-node
/// link roughly an order of magnitude faster (and lower-latency) than the
/// network link, matching the regime where hierarchical routing pays off.
/// A flat cluster uses `inter` for everything (Topology::flat marks every
/// link inter-node), so the single-level AlphaBetaModel behaviour is the
/// `intra == inter` special case.
struct HierarchicalLinkModel {
  AlphaBetaModel intra{1e-7, 1e-11};  ///< within a node (NUMA / NVLink)
  AlphaBetaModel inter{1e-6, 1e-10};  ///< across nodes (network)

  [[nodiscard]] const AlphaBetaModel& level(bool inter_node) const noexcept {
    return inter_node ? inter : intra;
  }
  /// Both levels priced like the single flat link `m` (legacy behaviour).
  [[nodiscard]] static HierarchicalLinkModel uniform(AlphaBetaModel m) {
    return HierarchicalLinkModel{m, m};
  }
};

/// Byte / message totals split by link level. Produced both statically
/// (core::lowcomm_exchange_traffic walks the octrees) and empirically
/// (CommStats counts executed sends); the two must agree exactly.
struct LevelTraffic {
  std::size_t intra_bytes = 0;
  std::size_t inter_bytes = 0;
  std::size_t intra_messages = 0;
  std::size_t inter_messages = 0;

  [[nodiscard]] std::size_t total_bytes() const noexcept {
    return intra_bytes + inter_bytes;
  }
  [[nodiscard]] std::size_t total_messages() const noexcept {
    return intra_messages + inter_messages;
  }
};

/// Per-level predicted times for a traffic pattern.
struct LevelTimes {
  double intra_seconds = 0.0;
  double inter_seconds = 0.0;

  [[nodiscard]] double total_seconds() const noexcept {
    return intra_seconds + inter_seconds;
  }
};

/// Price `traffic` with the per-level α-β model: each level costs
/// messages·α + bytes·β (aggregate serialized time, the same convention as
/// CommStats::modeled_nanos).
[[nodiscard]] LevelTimes predict_exchange_times(
    const LevelTraffic& traffic, const HierarchicalLinkModel& links);

/// Analytic traffic of the FLAT personalised exchange: each of `ranks`
/// workers ships `bytes_per_rank` split evenly over its p−1 peers, of which
/// ranks_per_node−1 share its node. This is what Rank::all_to_all executes.
[[nodiscard]] LevelTraffic flat_exchange_traffic(int ranks, int ranks_per_node,
                                                 double bytes_per_rank);

/// Analytic traffic of the composed hierarchical exchange (split → inter →
/// intra): node-mates swap their pair buffers directly and non-leaders
/// funnel their remote share through the node leader (intra), leaders
/// exchange one combined message per ordered node pair (inter), and the
/// destination leader hands each node peer only that peer's part of every
/// received bundle (intra). `node_dedup >= 1` is the factor by which
/// node-granularity packing shrinks the inter-node payload (a cell needed
/// by several ranks of one node crosses the network once instead of once
/// per rank); 1 means no overlap.
[[nodiscard]] LevelTraffic hierarchical_exchange_traffic(int ranks,
                                                         int ranks_per_node,
                                                         double bytes_per_rank,
                                                         double node_dedup);

/// Eqn 1: per-node communication time of the traditional distributed 3D
/// FFT, with two all-to-all stages each moving ~N³/P points.
[[nodiscard]] double traditional_fft_comm_time(i64 n, int workers,
                                               double beta_link_points_per_sec);

/// Number of points our method exchanges in its single accumulation round:
/// the dense k³ sub-domain plus the downsampled exterior (N³ − k³)/r³.
[[nodiscard]] double lowcomm_exchange_points(i64 n, i64 k, double r);

/// Eqn 6: per-node communication time of the low-communication method.
[[nodiscard]] double lowcomm_comm_time(i64 n, i64 k, double r, int workers,
                                       double beta_link_points_per_sec);

/// Communication fraction of a run that computes `compute_points` grid
/// points at `compute_rate` points/s and spends `comm_time` communicating.
/// Reproduces the §2.1 claim shape (49% CPU / 97% GPU comm share when the
/// compute rate is accelerated 43×).
[[nodiscard]] double comm_fraction(double comm_time, double compute_points,
                                   double compute_rate);

}  // namespace lc::comm
