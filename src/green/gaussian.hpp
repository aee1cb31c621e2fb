// The paper's proof-of-concept kernel (§4 "Choice of convolution kernel"):
// a sharp Gaussian sharing the Green's function's two key properties —
// rapid decay and a real-valued DFT. We centre it at the origin
// (periodically), which keeps the circular-convolution response localised
// on the sub-domain; the paper's N/2+1 centring is the same kernel shifted
// by N/2, and a real deployment compensates that shift when placing
// samples (see gaussian.cpp).
//
// The Gaussian is separable, so its 3D DFT is a product of three 1D DFTs.
// GaussianSpectrum precomputes the three axis spectra (O(N) storage) and
// evaluates any 3D bin on the fly — the memory-frugal evaluation mode the
// low-communication pipeline relies on.
#pragma once

#include <vector>

#include "green/kernel.hpp"

namespace lc::green {

/// Dense spatial Gaussian exp(-d^2 / (2 sigma^2)) with d the periodic
/// distance from the origin, normalised to unit sum so convolution
/// preserves the mean.
[[nodiscard]] RealField gaussian_kernel_field(const Grid3& g, double sigma);

/// On-the-fly Gaussian kernel spectrum. The spectrum is real (the kernel
/// is even about the origin, so its DFT is real-valued — the property the
/// paper requires of its POC kernel).
class GaussianSpectrum final : public KernelSpectrum {
 public:
  GaussianSpectrum(const Grid3& g, double sigma);

  [[nodiscard]] cplx eval(const Index3& bin, const Grid3& g) const override;
  void eval_z_run(const Index3& start, const Grid3& g,
                  std::span<cplx> out) const override;
  [[nodiscard]] std::string name() const override { return "gaussian"; }
  [[nodiscard]] std::string cache_key() const override;

  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  Grid3 grid_;
  double sigma_;
  std::vector<double> axis_x_;  // 1D DFT of the centred axis Gaussian
  std::vector<double> axis_y_;
  std::vector<double> axis_z_;
};

}  // namespace lc::green
