// Green's function of Poisson's equation (paper Eqn 5): G = 1/(4π|x|),
// i.e. the inverse-Laplacian spectral kernel 1/|ω|^2, used by the Poisson
// solver example and by tests of the "similar PDE solvers benefit" claim.
#pragma once

#include "green/kernel.hpp"

namespace lc::green {

/// Spectral inverse negative Laplacian: Ĝ(ξ) = 1/|ω(ξ)|², Ĝ(0) = 0, where
/// ω are angular frequencies on the periodic grid. Convolving a source f
/// with this kernel solves -∇²u = f (spectral Laplacian) with zero-mean u.
class PoissonGreenSpectrum final : public KernelSpectrum {
 public:
  /// `discrete` selects the 7-point finite-difference eigenvalues
  /// (4 sin²(ω/2) per axis) instead of the spectral ω²; the paper's PDE
  /// family includes both discretisations.
  explicit PoissonGreenSpectrum(bool discrete = false) : discrete_(discrete) {}

  [[nodiscard]] cplx eval(const Index3& bin, const Grid3& g) const override;
  [[nodiscard]] std::string name() const override {
    return discrete_ ? "poisson-fd" : "poisson-spectral";
  }

 private:
  bool discrete_;
};

}  // namespace lc::green
