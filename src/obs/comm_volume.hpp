// Measured-vs-model communication-volume accounting (DESIGN.md §13c).
//
// The paper's whole claim is Eqn 1 vs Eqn 6: a dense distributed FFT moves
// ~2·N³ points per transform pair, while the low-comm pipeline ships one
// compressed field of k³ + (N³−k³)/r³ points per sub-domain in a single
// exchange. comm::CostModel *predicts* those volumes; this report *measures*
// them from the octrees the engine actually builds (and, optionally, from
// the bytes a SimCluster run actually moved) and puts prediction and
// measurement side by side.
//
// Three measured quantities, largest to smallest:
//   wire_bytes    — bytes crossing links in the personalised all-to-all,
//                   including the cell-granularity fanout (a coarse cell
//                   intersecting several ranks' regions is sent to each).
//   payload_bytes — each retained sample counted once per sub-domain; the
//                   direct measured counterpart of Eqn 6's per-node send
//                   volume. Exceeds the model only by the octree's
//                   edge-inclusive top faces ((s/r+1)³ vs (s/r)³ per cell).
//   unique_bytes  — interior-lattice samples only ((s/r)³ per cell): the
//                   volume an edge-exclusive wire format would ship. For a
//                   uniform exterior rate this equals Eqn 6 exactly.
#pragma once

#include <cstddef>
#include <string>

#include "common/table.hpp"
#include "core/pipeline.hpp"

namespace lc::obs {

/// Side-by-side measured vs modeled exchange volume for one configuration.
struct CommVolumeReport {
  i64 n = 0;                    ///< grid edge
  i64 k = 0;                    ///< sub-domain edge
  double r = 0.0;               ///< effective exterior downsampling rate
  int workers = 0;              ///< ranks used for the wire-byte measurement
  std::size_t subdomains = 0;   ///< D = (n/k)³

  std::size_t payload_bytes = 0;  ///< Σ_d octree(d).total_samples() · 8
  std::size_t unique_bytes = 0;   ///< Σ_d Σ_cells (side/rate)³ · 8
  std::size_t wire_bytes = 0;     ///< exchange bytes incl. cell fanout

  // Wire-codec accounting (DESIGN.md §17). `codec` is the engine's
  // LowCommParams::wire; wire_bytes above is already priced under it.
  // `encoded_payload_bytes` re-prices payload_bytes under the codec (every
  // sample once per sub-domain, per-cell q16 scale headers included), so
  // measured-vs-model rows stay truthful when samples no longer cost 8
  // bytes each. `cells` is the total octree cell count behind the header
  // term.
  comm::WireCodec codec = comm::WireCodec::kOff;
  std::size_t encoded_payload_bytes = 0;
  std::size_t cells = 0;

  // Per-level split of wire_bytes when a topology is attached (the
  // measure_comm_volume overload taking a comm::Topology): how much of the
  // exchange crosses the expensive inter-node links vs stays inside nodes.
  // `flat_inter_wire_bytes` is the inter-node volume the FLAT route would
  // move on the same topology — the baseline the hierarchical dedup beats.
  int nodes = 0;  ///< 0 when no topology was attached
  std::size_t intra_wire_bytes = 0;
  std::size_t inter_wire_bytes = 0;
  std::size_t flat_inter_wire_bytes = 0;

  double model_bytes = 0.0;  ///< Eqn 6 per sub-domain · D · 8
  double dense_bytes = 0.0;  ///< Eqn 1: 2 · N³ · 8 (one transform pair)

  /// Per-sub-domain measured payload over the Eqn 6 prediction.
  [[nodiscard]] double measured_over_model() const noexcept {
    return model_bytes <= 0.0
               ? 0.0
               : static_cast<double>(payload_bytes) / model_bytes;
  }
  /// Interior-lattice volume over the Eqn 6 prediction (≈1 for uniform r).
  [[nodiscard]] double unique_over_model() const noexcept {
    return model_bytes <= 0.0
               ? 0.0
               : static_cast<double>(unique_bytes) / model_bytes;
  }
  /// The paper's headline: dense-FFT volume over measured payload.
  [[nodiscard]] double reduction_vs_dense() const noexcept {
    return payload_bytes == 0
               ? 0.0
               : dense_bytes / static_cast<double>(payload_bytes);
  }
  /// True when measured payload agrees with the Eqn 6 model within
  /// `tolerance` (e.g. 0.10 for ±10%).
  [[nodiscard]] bool within(double tolerance) const noexcept {
    const double ratio = measured_over_model();
    return ratio >= 1.0 - tolerance && ratio <= 1.0 + tolerance;
  }
  /// Flat-route inter-node bytes over this route's (>1 when the
  /// hierarchical dedup wins; 0 when no topology was attached).
  [[nodiscard]] double inter_reduction_vs_flat() const noexcept {
    return inter_wire_bytes == 0
               ? 0.0
               : static_cast<double>(flat_inter_wire_bytes) /
                     static_cast<double>(inter_wire_bytes);
  }

  [[nodiscard]] TextTable table() const;
  [[nodiscard]] std::string to_json() const;
};

/// Measure the exchange volume of `engine`'s configuration by walking its
/// per-sub-domain octrees (no convolution is run): the payload and
/// interior rows are per sub-domain, as Eqn 6 counts them. `workers` sets
/// the rank count for the static wire-byte computation
/// (core::lowcomm_exchange_bytes), which prices the exchange as executed,
/// on each rank's group trees.
[[nodiscard]] CommVolumeReport measure_comm_volume(
    const core::LowCommConvolution& engine, int workers);

/// Same, but take the wire bytes actually recorded by a SimCluster run
/// (cluster.stats().bytes_sent after distributed_lowcomm_convolve) instead
/// of recomputing them.
[[nodiscard]] CommVolumeReport measure_comm_volume(
    const core::LowCommConvolution& engine, int workers,
    std::size_t measured_wire_bytes);

/// Topology-aware measurement: wire bytes come from the per-level static
/// mirror (core::lowcomm_exchange_traffic) for the route `route` would
/// take on `topo`, filling the per-level fields and the flat-route
/// inter-node baseline alongside the flat-topology quantities.
[[nodiscard]] CommVolumeReport measure_comm_volume(
    const core::LowCommConvolution& engine, const comm::Topology& topo,
    core::ExchangeRoute route = core::ExchangeRoute::kAuto);

}  // namespace lc::obs
