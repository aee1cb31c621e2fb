// LocalConvolver: FFT-based convolution of one k³ sub-domain (or one
// X×Y×k box of them) against a global N³ spectral operator, computed
// entirely inside one worker, with the result compressed by octree
// sampling during the inverse stages (paper §3.2 steps 2–3, Fig 2, Fig 4).
//
// Program flow (mirrors the paper's CUDA/cuFFT structure). The input is
// real, so every spectral buffer holds only the Hermitian half: the
// nx/2+1 x-bins of each N×N plane (DESIGN.md §16).
//   1. xy stage  — the k nonzero z-slices of each channel are zero-padded
//      to N×N (padding is per 1D call; the full padded N³ array never
//      exists), r2c-transformed along x and transformed along y into a
//      (N/2+1)×N×k slab per channel.
//   2. z stage   — B pencils at a time ("batch parameter", §5.4): each
//      (ξx, ξy) pencil is input-pruned forward-transformed to length N
//      (only k inputs are nonzero), the spectral operator is applied per
//      bin across channels (scalar kernel multiply, or MASSIF's Γ̂ : σ̂
//      contraction), the pencil is inverse-transformed, and only the
//      octree's retained z-planes are scattered into staging — the
//      load/store-callback role of the cuFFT callbacks in Fig 4.
//   3. plane stage — each retained z-plane is inverse-transformed along y
//      and c2r along x, and the octree's (x, y) lattice samples are stored
//      into the compressed payload. The dense N³ result is never
//      materialised.
//
// Every sample the pipeline keeps is an *exact* value of the circular
// convolution; approximation error enters only at interpolation time.
#pragma once

#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "core/spectral_operator.hpp"
#include "device/device.hpp"
#include "fft/fft1d.hpp"
#include "fft/real_fft.hpp"
#include "sampling/compressed_field.hpp"

namespace lc::core {

/// Tuning and instrumentation knobs for the local pipeline.
struct LocalConvolverConfig {
  /// z-pencils transformed per batch (the paper's B; §5.4).
  std::size_t batch = 1024;
  /// Thread pool for intra-worker parallelism (nullptr → serial).
  ThreadPool* pool = &ThreadPool::global();
  /// Optional simulated device; when set, all pipeline buffers are
  /// registered against its capacity and peak tracking.
  device::DeviceContext* device = nullptr;
  /// Pre-built length-N plan shared across engines (the runtime plan
  /// cache's reuse hook); must match the grid side. Null → build our own.
  std::shared_ptr<const fft::Fft1D> plan;
  /// Pre-built length-N r2c/c2r plan for the x axis (the same plan-cache
  /// hook); must match the grid side. Null → build our own.
  std::shared_ptr<const fft::RealFft1D> real_plan;
  /// Optional scratch recycler: slab and staging buffers are leased from it
  /// instead of allocated per call. Null → plain per-call allocation.
  BufferArena* arena = nullptr;
};

/// Immutable local convolution engine for a fixed grid and operator.
class LocalConvolver {
 public:
  LocalConvolver(const Grid3& grid,
                 std::shared_ptr<const SpectralOperator> op,
                 LocalConvolverConfig config = {});

  /// Scalar-kernel convenience constructor.
  LocalConvolver(const Grid3& grid,
                 std::shared_ptr<const green::KernelSpectrum> kernel,
                 LocalConvolverConfig config = {});

  [[nodiscard]] const Grid3& grid() const noexcept { return grid_; }
  [[nodiscard]] const LocalConvolverConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SpectralOperator& op() const noexcept { return *op_; }

  /// Convolve C tight channel chunks of equal extents X×Y×Z whose origin
  /// sits at `corner` of the global grid, compressing each channel's N³
  /// result through `tree` (whose sub-domain must be the chunk box). A k³
  /// sub-domain is the cube case; the distributed path passes a group of
  /// sub-domains in one z-layer (Z = k keeps the N²k slab bound). The z
  /// stage transforms the same N×(N/2+1) pencils whatever X and Y are.
  [[nodiscard]] std::vector<sampling::CompressedField> convolve_channels(
      std::span<const RealField> chunks, const Index3& corner,
      std::shared_ptr<const sampling::Octree> tree) const;

  /// Single-channel convenience overload.
  [[nodiscard]] sampling::CompressedField convolve_subdomain(
      const RealField& chunk, const Index3& corner,
      std::shared_ptr<const sampling::Octree> tree) const;

 private:
  Grid3 grid_;
  std::shared_ptr<const SpectralOperator> op_;
  LocalConvolverConfig config_;
  // Length-N plan for the y and z axes (cubic grid); either injected via
  // LocalConvolverConfig::plan or built here.
  std::shared_ptr<const fft::Fft1D> fft_n_;
  // Length-N r2c/c2r plan for the x axis; injected via
  // LocalConvolverConfig::real_plan or built here.
  std::shared_ptr<const fft::RealFft1D> rfft_n_;
};

/// RAII registration of `bytes` against an optional device context.
class ScopedDeviceAlloc {
 public:
  ScopedDeviceAlloc(device::DeviceContext* ctx, std::size_t bytes)
      : ctx_(ctx), bytes_(bytes) {
    if (ctx_ != nullptr) ctx_->register_alloc(bytes_);
  }
  ~ScopedDeviceAlloc() {
    if (ctx_ != nullptr) ctx_->register_free(bytes_);
  }
  ScopedDeviceAlloc(const ScopedDeviceAlloc&) = delete;
  ScopedDeviceAlloc& operator=(const ScopedDeviceAlloc&) = delete;

 private:
  device::DeviceContext* ctx_;
  std::size_t bytes_;
};

}  // namespace lc::core
