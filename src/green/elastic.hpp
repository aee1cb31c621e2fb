// The elastic Green's operator Γ̂ of the MASSIF / Moulinec–Suquet solver
// (paper Eqn 3):
//
//   Γ̂_ijkl(ξ) = (δ_ki ξ_l ξ_j + δ_li ξ_k ξ_j + δ_kj ξ_l ξ_i + δ_lj ξ_k ξ_i)
//                 / (4 μ0 |ξ|²)
//             - ((λ0 + μ0) / (μ0 (λ0 + 2 μ0))) · ξ_i ξ_j ξ_k ξ_l / |ξ|⁴
//
// with reference Lamé coefficients (λ0, μ0). Γ̂ is real, has both minor
// symmetries and major symmetry, and Γ̂(0) = 0 (the mean strain is
// prescribed separately in the fixed-point scheme). The closed form is
// evaluated on the fly per frequency bin; nothing is precomputed or stored.
#pragma once

#include "fft/freq.hpp"
#include "tensor/sym_tensor.hpp"

namespace lc::green {

/// Evaluate Γ̂ at angular frequency vector ω (all-zero ω gives the zero
/// tensor). `ref` holds the reference-medium Lamé coefficients.
[[nodiscard]] Green4 elastic_green_operator(const fft::Freq3& omega,
                                            const Lame& ref);

/// Γ̂ at DFT bin `bin` of grid `g` (uses the grid's angular frequencies),
/// binned as its Hermitian part: on a Nyquist plane the entries that are
/// odd in the Nyquist components are zero (see elastic.cpp). Off the
/// Nyquist planes this is elastic_green_operator itself.
[[nodiscard]] Green4 elastic_green_at_bin(const Index3& bin, const Grid3& g,
                                          const Lame& ref);

/// Apply Γ̂(ω) to a complex symmetric rank-2 tensor (the Fourier transform
/// of the stress field): (Γ̂ : σ̂)_ij. This is the per-bin inner operation
/// of MASSIF's convolution step.
[[nodiscard]] Sym2c apply_green(const Green4& gamma, const Sym2c& sigma_hat);

}  // namespace lc::green
