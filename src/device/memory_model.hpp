// Analytic memory model of the local convolution pipeline (Tables 1, 2, 4).
//
// Table 1 uses the paper's own back-of-envelope formulas: a traditional FFT
// stores the full-resolution N³ result (8·N³ bytes double precision); the
// domain-local method keeps an N×N×k slab (8·N²·k bytes).
//
// Tables 2 and 4 need the *full* allocation plan of our pipeline. Every
// buffer the LocalConvolver touches is enumerated here so feasibility (does
// it fit in device capacity?) and the estimated-vs-actual gap (plan
// workspaces — the stand-in for cuFFT's internal temporaries) can be
// evaluated at paper-scale N without allocating anything.
#pragma once

#include <cstddef>

#include "device/device.hpp"
#include "sampling/octree.hpp"

namespace lc::device {

/// Sizes (bytes) of each buffer class in one chunk's local pipeline.
struct PipelinePlan {
  std::size_t chunk_bytes = 0;      ///< X×Y×Z real input chunk
  std::size_t slab_bytes = 0;       ///< N×N×Z complex slab (xy stage)
  std::size_t staging_bytes = 0;    ///< N² complex per retained z-plane
  std::size_t pencil_bytes = 0;     ///< 2 × B×N complex z-pencil batches
  std::size_t payload_bytes = 0;    ///< compressed sample payload (double)
  std::size_t metadata_bytes = 0;   ///< octree metadata (5 int32 / cell)
  std::size_t workspace_bytes = 0;  ///< FFT plan temporaries (cuFFT-like)

  /// The analytic estimate (what a back-of-envelope would claim): all
  /// algorithm-visible buffers, no library internals.
  [[nodiscard]] std::size_t estimated_total() const noexcept {
    return chunk_bytes + slab_bytes + staging_bytes + pencil_bytes +
           payload_bytes + metadata_bytes;
  }
  /// What a real run reaches at peak: estimate plus transform workspaces —
  /// the paper's "difference ... due to the use of CUFFT, which creates
  /// temporaries in the midst of calculations" (Table 4).
  [[nodiscard]] std::size_t actual_total() const noexcept {
    return estimated_total() + workspace_bytes;
  }
};

/// Table 1, column "traditional FFT": full-resolution double result.
[[nodiscard]] std::size_t traditional_fft_bytes(i64 n);

/// Table 1, column "local FFT (ours)": the N×N×k slab.
[[nodiscard]] std::size_t local_fft_slab_bytes(i64 n, i64 k);

/// Spectrum footprint of the slab in complex bins: the Hermitian half
/// (N/2+1)×N×k the pipeline stores (r2c, DESIGN.md §16), or, with
/// `real_path` false, the full N×N×k of the paper's c2c pipeline (Table 1's
/// comparison column). The r2c footprint lands within one Nyquist column
/// of the paper's 8·N²·k real-slab figure.
[[nodiscard]] std::size_t local_fft_spectrum_bytes(i64 n, i64 k,
                                                   bool real_path);

/// Full allocation plan of the local pipeline for one X×Y×Z chunk `chunk`
/// of an n³ grid (a sub-domain, or a group of them on the distributed
/// path) under `policy`, with z-pencil batch size `batch`. The slab holds
/// Z spectral planes, the payload and staging follow the octree built
/// around the chunk box. The default prices the half-spectrum pipeline the
/// engine runs (slab/staging hold only the nx/2+1 x-bins, plus the c2r
/// store lane's N² real plane); `real_path` false prices the paper's full
/// c2c pipeline instead, for the paper columns of Table 4.
[[nodiscard]] PipelinePlan plan_local_pipeline(
    i64 n, const Box3& chunk, const sampling::SamplingPolicy& policy,
    std::size_t batch, bool real_path = true);

/// The same plan for one k³ sub-domain at the grid origin.
[[nodiscard]] PipelinePlan plan_local_pipeline(
    i64 n, i64 k, const sampling::SamplingPolicy& policy, std::size_t batch,
    bool real_path = true);

/// Octree-free analytic variant of plan_local_pipeline for ANY grid side
/// (the real octree requires a power-of-two n): payload from the uniform
/// Eqn 6 closed form k³ + (n³−k³)/r³, retained planes from the dense core
/// plus the rate-r exterior, cell metadata from the coarse tiling. The
/// dominant slab / pencil / workspace terms are identical to the exact
/// plan's. Used where n may not be a power of two (the divisor fallback in
/// core::select_hyperparams).
[[nodiscard]] PipelinePlan estimate_local_pipeline(i64 n, i64 k,
                                                   i64 far_rate,
                                                   std::size_t batch);

/// Planning downsampling rate: the paper coarsens r with the problem ratio
/// (r = 4 at N/k = 4 up to r = 128 at N = 2048 in Table 4). Clamped to
/// [2, 128].
[[nodiscard]] i64 planning_far_rate(i64 n, i64 k);

/// Largest power-of-two sub-domain size k <= n for which the pipeline's
/// actual_total fits in `spec`'s capacity (0 if none), under the uniform
/// planning rate above. Reproduces Table 2's "Allowable k" column.
[[nodiscard]] i64 max_allowable_k(i64 n, const DeviceSpec& spec,
                                  std::size_t batch);

}  // namespace lc::device
