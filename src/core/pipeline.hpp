// LowCommConvolution: the paper's end-to-end method (Fig 1b, Fig 2) as a
// library API.
//
// Single-process form: decompose → locally convolve each sub-domain with
// compression → accumulate. Distributed form: the same pipeline SPMD over a
// simulated cluster, where the *only* global exchange is one all-gather of
// the compressed payloads (compare baseline::DistributedFftConvolution,
// which needs an all-to-all inside every transform).
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "comm/sim_cluster.hpp"
#include "comm/wire_codec.hpp"
#include "core/accumulator.hpp"
#include "core/decomposition.hpp"
#include "core/exchange_plan.hpp"
#include "core/local_convolver.hpp"

namespace lc::core {

/// Hyperparameters of the method (paper §5.4).
struct LowCommParams {
  i64 subdomain = 32;         ///< k: sub-domain edge length
  i64 far_rate = 16;          ///< coarsest downsampling rate
  i64 boundary_band = 0;      ///< dense shell width at the grid edge
  i64 dense_halo = 2;         ///< full-resolution skin beyond the sub-domain
  std::size_t batch = 1024;   ///< B: z-pencils per batch
  /// Reconstruction order used at accumulation time.
  sampling::Interpolation interpolation = sampling::Interpolation::kTrilinear;
  /// Override the banded paper policy with a single uniform exterior rate
  /// (Table 3 reports one r per row).
  std::optional<i64> uniform_rate;
  /// Wire codec for the exchange payloads (DESIGN.md §17). Defaults to off
  /// (bit-exact fp64 passthrough); the planner enumerates it as a plan
  /// dimension. Only the wire representation changes — octree sampling,
  /// local compute, and the accumulation schedule are identical under
  /// every codec.
  comm::WireCodec wire = comm::WireCodec::kOff;

  /// The sampling policy these parameters induce for sub-domain size k.
  [[nodiscard]] sampling::SamplingPolicy make_policy() const;
};

/// Outcome of a convolution run, with the measurements the paper reports.
struct LowCommResult {
  RealField output;                  ///< accumulated approximate result
  std::size_t compressed_samples = 0;  ///< total retained samples, all domains
  std::size_t exchanged_bytes = 0;   ///< payload bytes crossing workers
  double compression_ratio = 0.0;    ///< grid points per retained sample
};

/// Single-worker (or shared-memory) low-communication convolution engine.
class LowCommConvolution {
 public:
  LowCommConvolution(const Grid3& grid,
                     std::shared_ptr<const green::KernelSpectrum> kernel,
                     LowCommParams params, LocalConvolverConfig config = {});

  [[nodiscard]] const DomainDecomposition& decomposition() const noexcept {
    return decomp_;
  }
  [[nodiscard]] const LowCommParams& params() const noexcept { return params_; }

  /// Convolve `input` with the kernel: one run_local job on the configured
  /// thread pool (LocalConvolverConfig::pool). Sub-domains are dispatched
  /// across the pool (each worker runs the local FFT pipeline serially
  /// inside its sub-domain), then each sub-domain box of the output is
  /// accumulated as one pool task. With a null pool everything runs
  /// sequentially on this thread, as the paper's POC does on one GPU.
  [[nodiscard]] LowCommResult convolve(const RealField& input) const;

  /// Compress one sub-domain's contribution (building block for the
  /// distributed path and for MASSIF's inner loop).
  [[nodiscard]] sampling::CompressedField convolve_one(
      const RealField& input, std::size_t subdomain_index) const;

  /// Octree for sub-domain i (cached; shared across calls).
  [[nodiscard]] std::shared_ptr<const sampling::Octree> octree_for(
      std::size_t subdomain_index) const;

  /// Pre-seed the octree slot for sub-domain i with an externally cached
  /// tree (runtime::ConvolutionService reuse hook: octrees survive engine
  /// eviction in the service's resource cache and are re-adopted here).
  /// The tree must match this engine's grid and sub-domain box; a slot
  /// already populated is left untouched.
  void seed_octree(std::size_t subdomain_index,
                   std::shared_ptr<const sampling::Octree> tree) const;

 private:
  // One lazily-built octree per sub-domain. Each slot carries its own
  // once_flag, so parallel sub-domain workers resolving different slots
  // never serialize on a shared lock, and repeat lookups of a built slot
  // are a single synchronized load inside std::call_once's fast path.
  struct OctreeSlot {
    std::once_flag once;
    std::shared_ptr<const sampling::Octree> tree;
  };

  DomainDecomposition decomp_;
  LowCommParams params_;
  LocalConvolver convolver_;
  mutable std::vector<OctreeSlot> octrees_;
};

/// One engine's share of a run_local call: convolve `input` over every
/// sub-domain of the engine (or only `subdomain`), then accumulate the full
/// field (or that sub-domain's tile from its own contribution).
struct LocalJob {
  const LowCommConvolution* engine = nullptr;
  const RealField* input = nullptr;
  std::optional<std::size_t> subdomain;  ///< scope: one sub-domain's tile
  /// Runs inside each convolve task with the sub-domain index, just before
  /// convolve_one (the service seeds cached octrees here).
  std::function<void(std::size_t)> before_convolve;

  // Filled by run_local. The contributions live until the job is dropped.
  std::vector<sampling::CompressedField> contributions;
  LowCommResult result;      ///< output plus the sample and byte tally
  std::exception_ptr error;  ///< set when a task failed; `result` is unset
};

/// The in-process executor. It fills the caller's jobs in place, and the
/// caller frees the contributions by dropping its jobs. One wave runs every
/// job's convolve_one tasks, then one wave runs every (job, sub-domain box)
/// accumulate_region task. Each wave is one parallel_for on `pool`, or a
/// serial loop on this thread when the pool is null, has one worker, or
/// owns this thread. A task's exception lands in its job's `error` (first
/// failing sub-domain wins) and never fails the other jobs. A full-field
/// output is tiled per sub-domain box; every tile adds the contributions in
/// vector order at each point, so the bits equal accumulate_full's.
void run_local(std::span<LocalJob* const> jobs, ThreadPool* pool);

/// Distributed run over a simulated cluster: each rank convolves its
/// groups (DomainDecomposition::groups_of — maximal rectangles of its
/// owned sub-domains within one z-layer, each one X×Y×k chunk through one
/// local pipeline, sampled on one octree built around the group box; by
/// linearity the group's contribution is the sum of its members'), then
/// the ranks exchange compressed samples in ONE personalised exchange —
/// each octree cell's samples travel only to the ranks whose regions
/// intersect that cell (the paper's "only sparse samples are exchanged at
/// the end"). Each rank accumulates the regions of its own groups. Returns
/// the assembled full field (stitched in shared memory for verification)
/// and leaves the byte / round counts in `cluster.stats()`.
///
/// The exchange metadata (octrees, destination masks, size table) comes
/// from an ExchangePlan kept in the cluster's memo slot: the first call for
/// a given (grid, sampling params, codec, route) builds it, later calls on
/// the same cluster reuse it and only move payloads.
///
/// On a grouped topology the default route packs each cell ONCE per remote
/// destination NODE (the union of its member ranks' needs) and ships it
/// through the node leaders, so a cell needed by several ranks of a node
/// crosses the inter-node link once instead of once per rank; the
/// receiving leader then hands each member only its own cells. Either way
/// every rank receives exactly what the flat route delivers it, and the
/// numeric result is identical — only the routing changes.
///
/// Each rank holds one output tile per owned group plus one decoded source
/// field at a time: received contributions are added into the tiles one by
/// one, in (source rank, group) order — the bits of accumulate_region over
/// that contribution vector, on either route.
[[nodiscard]] RealField distributed_lowcomm_convolve(
    comm::SimCluster& cluster, const RealField& input, const Grid3& grid,
    std::shared_ptr<const green::KernelSpectrum> kernel,
    const LowCommParams& params, ExchangeRoute route = ExchangeRoute::kAuto);

/// Exact number of wire bytes the personalised exchange above moves across
/// the network for `workers` ranks on the flat route (self-delivery
/// excluded) — the executable counterpart of Eqn 6's "k³ + sparse samples"
/// volume, priced under `params.wire` (encoded bundle bytes, rounded up to
/// whole wire doubles per destination buffer exactly as executed).
[[nodiscard]] std::size_t lowcomm_exchange_bytes(const Grid3& grid,
                                                 const LowCommParams& params,
                                                 int workers);

/// Static per-level WIRE traffic of the exchange `route` would execute on
/// `topo`, computed from (grid, params) alone — no engine, kernel, or FFT
/// plan needed. The group octrees are deterministic in the sampling policy,
/// so this is exactly what distributed_lowcomm_convolve moves: it mirrors
/// the message schedule (empty messages included), so the returned
/// bytes/messages equal the deltas SimCluster's per-level CommStats records
/// for the exchange collective, and feed comm::predict_exchange_times for
/// per-level α-β predictions. The planner prices candidate plans with it.
[[nodiscard]] comm::LevelTraffic lowcomm_exchange_traffic(
    const Grid3& grid, const LowCommParams& params, const comm::Topology& topo,
    ExchangeRoute route = ExchangeRoute::kAuto);

}  // namespace lc::core
