// SpectralOperator: the per-frequency-bin operation applied between the
// forward and inverse transforms of the local pipeline.
//
// A scalar convolution multiplies one channel by a kernel spectrum value;
// MASSIF's convolution step contracts the rank-4 Green operator Γ̂ with the
// six Voigt components of the stress spectrum (paper Algorithm 2 line 4).
// Both are "apply a small dense operator to the C channel values at bin ξ",
// which is exactly this interface.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "common/simd.hpp"
#include "green/kernel.hpp"

namespace lc::core {

using fft::cplx;

/// In-place per-bin operator on a fixed number of channels. The operator
/// is the spectrum of a real kernel: it maps conjugate-symmetric channel
/// spectra to conjugate-symmetric ones. The local pipeline relies on that:
/// it applies the operator only at the bins x ≤ nx/2 and lets its c2r stage
/// supply the mirror half (DESIGN.md §16).
class SpectralOperator {
 public:
  virtual ~SpectralOperator() = default;

  /// Number of simultaneous channels (1 for scalar convolution, 6 for
  /// symmetric-tensor fields in Voigt form).
  [[nodiscard]] virtual std::size_t channels() const = 0;

  /// Transform the channel values at DFT bin `bin` of grid `g` in place.
  virtual void apply(const Index3& bin, const Grid3& g,
                     std::span<cplx> values) const = 0;

  /// Apply the operator to a whole z-pencil of bins (x, y, z0 + t) for
  /// t in [0, n): channel c of bin t lives at values[c * channel_stride + t].
  /// The default gathers each bin's channels and calls apply(); operators
  /// backed by a kernel spectrum override it to run one vectorized pass per
  /// pencil instead of n virtual calls (the slab pipeline's hot loop).
  virtual void apply_z_pencil(i64 x, i64 y, i64 z0, const Grid3& g,
                              cplx* values, std::size_t n,
                              std::size_t channel_stride) const {
    const std::size_t nc = channels();
    constexpr std::size_t kMaxStack = 16;
    LC_CHECK_ARG(nc <= kMaxStack, "too many channels for pencil dispatch");
    std::array<cplx, kMaxStack> bin{};
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t c = 0; c < nc; ++c) {
        bin[c] = values[c * channel_stride + t];
      }
      apply({x, y, z0 + static_cast<i64>(t)}, g, std::span(bin.data(), nc));
      for (std::size_t c = 0; c < nc; ++c) {
        values[c * channel_stride + t] = bin[c];
      }
    }
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Adapts a scalar KernelSpectrum to the operator interface (1 channel).
class ScalarKernelOperator final : public SpectralOperator {
 public:
  explicit ScalarKernelOperator(
      std::shared_ptr<const green::KernelSpectrum> kernel)
      : kernel_(std::move(kernel)) {
    LC_CHECK_ARG(kernel_ != nullptr, "null kernel");
  }

  [[nodiscard]] std::size_t channels() const override { return 1; }

  void apply(const Index3& bin, const Grid3& g,
             std::span<cplx> values) const override {
    values[0] *= kernel_->eval(bin, g);
  }

  void apply_z_pencil(i64 x, i64 y, i64 z0, const Grid3& g, cplx* values,
                      std::size_t n,
                      std::size_t /*channel_stride*/) const override {
    // Chunked so the kernel run stays in a stack buffer; the multiply is
    // the SIMD complex pointwise pass shared with fft::pointwise_multiply.
    constexpr std::size_t kChunk = 256;
    std::array<cplx, kChunk> run;
    for (std::size_t t0 = 0; t0 < n; t0 += kChunk) {
      const std::size_t len = std::min(kChunk, n - t0);
      kernel_->eval_z_run({x, y, z0 + static_cast<i64>(t0)}, g,
                          std::span(run.data(), len));
      simd::complex_mul_inplace(values + t0, run.data(), len);
    }
  }

  [[nodiscard]] std::string name() const override { return kernel_->name(); }

  [[nodiscard]] const green::KernelSpectrum& kernel() const noexcept {
    return *kernel_;
  }

 private:
  std::shared_ptr<const green::KernelSpectrum> kernel_;
};

}  // namespace lc::core
