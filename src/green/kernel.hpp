// Convolution-kernel abstraction (paper §3.2 "Choice of convolution kernel").
//
// Kernels are evaluated in the frequency domain, bin by bin, so the slab
// pipeline can multiply spectra on the fly without ever materialising an
// N^3 kernel array — the paper's "the closed form of the Green's function
// ... can be computed on-the-fly during convolution, further reducing
// memory requirement".
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <string>

#include "fft/fft3d.hpp"
#include "tensor/field.hpp"

namespace lc::green {

using cplx = std::complex<double>;

/// A scalar convolution kernel given by its DFT on an N^3 grid. The kernel
/// is real, so its spectrum is conjugate-symmetric:
/// Ĝ((N − ξ) mod N) == conj(Ĝ(ξ)). The local pipeline relies on that: it
/// reads only the bins x ≤ nx/2 and lets its c2r stage supply the mirror
/// half (DESIGN.md §16).
class KernelSpectrum {
 public:
  virtual ~KernelSpectrum() = default;

  /// Spectrum value at DFT bin (jx, jy, jz) of grid `g`.
  [[nodiscard]] virtual cplx eval(const Index3& bin, const Grid3& g) const = 0;

  /// Fill out[t] = eval({start.x, start.y, start.z + t}, g) for a run of
  /// bins along z. The default loops eval(); kernels whose spectrum is a
  /// table lookup or factorises per axis (Gaussian, dense) override it so
  /// the slab pipeline's per-bin multiply becomes one vectorized pass per
  /// pencil instead of nz virtual calls.
  virtual void eval_z_run(const Index3& start, const Grid3& g,
                          std::span<cplx> out) const {
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = eval({start.x, start.y, start.z + static_cast<i64>(t)}, g);
    }
  }

  /// Human-readable kernel name (for bench output).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Identity string for resource caching (runtime::ConvolutionService):
  /// two kernels with the same cache_key are assumed interchangeable, so
  /// parameterised kernels MUST fold every parameter into the key (the
  /// default is name(), which suffices only for parameter-free kernels).
  [[nodiscard]] virtual std::string cache_key() const { return name(); }

  /// Materialise the full dense spectrum (test/baseline use).
  [[nodiscard]] ComplexField materialize(const Grid3& g) const;

  /// Materialise only the half grid the pipeline reads: a
  /// (nx/2 + 1) × ny × nz field holding Ĝ at bins x ∈ [0, nx/2] — half the
  /// bytes of materialize(); conjugate symmetry gives the rest.
  [[nodiscard]] ComplexField materialize_half(const Grid3& g) const;
};

/// Half-grid dense spectrum: a materialised spectrum storing only the
/// x ∈ [0, nx/2] bins of logical grid `full` ((nx/2+1) · ny · nz values).
/// eval() serves the mirror half via conjugate symmetry, so it is a
/// drop-in KernelSpectrum on every bin of the full grid.
class HalfDenseSpectrum final : public KernelSpectrum {
 public:
  /// `half` must have shape (full.nx/2 + 1, full.ny, full.nz) — typically
  /// the result of materialize_half(full).
  HalfDenseSpectrum(ComplexField half, const Grid3& full,
                    std::string name = "dense-half");

  [[nodiscard]] cplx eval(const Index3& bin, const Grid3& g) const override;
  void eval_z_run(const Index3& start, const Grid3& g,
                  std::span<cplx> out) const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const ComplexField& half_spectrum() const noexcept {
    return hat_;
  }

 private:
  ComplexField hat_;  // (nx/2+1) × ny × nz, x-fastest
  Grid3 full_;        // logical full grid
  std::string name_;
};

}  // namespace lc::green
