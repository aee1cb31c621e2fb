// The MASSIF convolution step as spectral operators.
//
// ElasticGreenOperator is the 6-channel per-bin contraction
// Δε̂ = Γ̂(ξ) : σ̂(ξ) (paper Algorithm 1/2, Eqn 3), evaluated on the fly
// from the closed form — nothing per-bin is precomputed or stored, the
// paper's key memory saving for the kernel. Both classes read Γ̂ through
// green::elastic_green_at_bin, which bins its Hermitian part, so they run
// on the half-spectrum pipeline like every scalar kernel.
//
// ElasticGreenComponentKernel exposes a single Γ̂ Voigt component as a
// scalar kernel for per-component pipelines and ablation benches.
#pragma once

#include "core/spectral_operator.hpp"
#include "green/elastic.hpp"

namespace lc::massif {

/// Six-channel operator: channels are the Voigt components of σ̂ on input
/// and of Δε̂ = Γ̂ : σ̂ on output. The DC bin (ξ = 0) maps to zero (the
/// macroscopic strain is prescribed separately by the fixed-point scheme).
class ElasticGreenOperator final : public core::SpectralOperator {
 public:
  explicit ElasticGreenOperator(const Lame& reference) : ref_(reference) {
    LC_CHECK_ARG(reference.mu > 0.0, "reference shear modulus must be > 0");
  }

  [[nodiscard]] std::size_t channels() const override { return 6; }

  void apply(const Index3& bin, const Grid3& g,
             std::span<core::cplx> values) const override {
    const Green4 gamma = green::elastic_green_at_bin(bin, g, ref_);
    Sym2c sigma;
    for (std::size_t a = 0; a < 6; ++a) sigma.v[a] = values[a];
    const Sym2c eps = green::apply_green(gamma, sigma);
    for (std::size_t a = 0; a < 6; ++a) values[a] = eps.v[a];
  }

  [[nodiscard]] std::string name() const override { return "elastic-green"; }

  [[nodiscard]] const Lame& reference() const noexcept { return ref_; }

 private:
  Lame ref_;
};

/// Scalar kernel view of one Γ̂ Voigt component (a, b in 0..5).
class ElasticGreenComponentKernel final : public green::KernelSpectrum {
 public:
  ElasticGreenComponentKernel(std::size_t a, std::size_t b,
                              const Lame& reference)
      : a_(a), b_(b), ref_(reference) {
    LC_CHECK_ARG(a < 6 && b < 6, "Voigt indices range");
  }

  [[nodiscard]] green::cplx eval(const Index3& bin,
                                 const Grid3& g) const override {
    return {green::elastic_green_at_bin(bin, g, ref_).m[a_][b_], 0.0};
  }

  [[nodiscard]] std::string name() const override {
    return "gamma[" + std::to_string(a_) + "][" + std::to_string(b_) + "]";
  }

 private:
  std::size_t a_;
  std::size_t b_;
  Lame ref_;
};

}  // namespace lc::massif
