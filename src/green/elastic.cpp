#include "green/elastic.hpp"

#include <array>

#include "common/check.hpp"

namespace lc::green {

using cplx = std::complex<double>;

Green4 elastic_green_operator(const fft::Freq3& omega, const Lame& ref) {
  LC_CHECK_ARG(ref.mu > 0.0, "reference shear modulus must be positive");
  Green4 gamma;  // zero-initialised
  const std::array<double, 3> xi{omega.x, omega.y, omega.z};
  const double norm_sq = omega.norm_sq();
  if (norm_sq == 0.0) return gamma;

  const double mu0 = ref.mu;
  const double lambda0 = ref.lambda;
  const double a = 1.0 / (4.0 * mu0 * norm_sq);
  const double b =
      (lambda0 + mu0) / (mu0 * (lambda0 + 2.0 * mu0) * norm_sq * norm_sq);
  auto delta = [](std::size_t i, std::size_t j) { return i == j ? 1.0 : 0.0; };

  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i; j < 3; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t l = k; l < 3; ++l) {
          const double term1 = delta(k, i) * xi[l] * xi[j] +
                               delta(l, i) * xi[k] * xi[j] +
                               delta(k, j) * xi[l] * xi[i] +
                               delta(l, j) * xi[k] * xi[i];
          gamma.at(i, j, k, l) =
              a * term1 - b * xi[i] * xi[j] * xi[k] * xi[l];
        }
      }
    }
  }
  return gamma;
}

Green4 elastic_green_at_bin(const Index3& bin, const Grid3& g,
                            const Lame& ref) {
  const fft::Freq3 omega{fft::angular_frequency(bin.x, g.nx),
                         fft::angular_frequency(bin.y, g.ny),
                         fft::angular_frequency(bin.z, g.nz)};
  Green4 gamma = elastic_green_operator(omega, ref);
  // Bin Γ̂'s Hermitian part H(ξ) = (Γ̂(ξ) + conj Γ̂(−ξ))/2. A Nyquist bin
  // n/2 and its mirror both map to ω = +π, so Γ̂(mirror(bin)) is Γ̂ at ω
  // with its Nyquist components negated and the raw Γ̂ is not conjugate-
  // symmetric there. With H, the half-spectrum pipeline (x ≤ nx/2, c2r
  // supplies the mirror) computes exactly Re(IFFT(Γ̂ · X̂)) of a real input.
  // Each term of Γ̂_ijkl is odd in an axis's component iff the axis occurs
  // an odd number of times in (i, j, k, l), so H is Γ̂ with the entries that
  // name the Nyquist axes an odd number of times set to zero.
  const std::array<bool, 3> nyquist{g.nx % 2 == 0 && bin.x == g.nx / 2,
                                    g.ny % 2 == 0 && bin.y == g.ny / 2,
                                    g.nz % 2 == 0 && bin.z == g.nz / 2};
  if (!nyquist[0] && !nyquist[1] && !nyquist[2]) return gamma;
  for (std::size_t a = 0; a < 6; ++a) {
    const auto [i, j] = voigt_pair(a);
    for (std::size_t b = 0; b < 6; ++b) {
      const auto [k, l] = voigt_pair(b);
      if ((nyquist[i] + nyquist[j] + nyquist[k] + nyquist[l]) % 2 != 0) {
        gamma.m[a][b] = 0.0;
      }
    }
  }
  return gamma;
}

Sym2c apply_green(const Green4& gamma, const Sym2c& sigma_hat) {
  Sym2c out;
  for (std::size_t a = 0; a < 6; ++a) {
    cplx acc{0.0, 0.0};
    for (std::size_t b = 0; b < 6; ++b) {
      const cplx term = gamma.m[a][b] * sigma_hat.v[b];
      acc += (b < 3) ? term : 2.0 * term;
    }
    out.v[a] = acc;
  }
  return out;
}

}  // namespace lc::green
