// Tests for the Green's-function kernels: Gaussian POC kernel, Poisson
// kernel, and the elastic Green operator of Eqn 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "fft/convolution.hpp"
#include "fft/fft3d.hpp"
#include "green/elastic.hpp"
#include "green/gaussian.hpp"
#include "green/kernel.hpp"
#include "green/poisson.hpp"
#include "massif/green_operator.hpp"

namespace lc::green {
namespace {

TEST(Gaussian, FieldIsNormalizedAndPeaksAtOrigin) {
  const Grid3 g{32, 32, 32};
  const RealField f = gaussian_kernel_field(g, 2.0);
  double sum = 0.0;
  double maxv = 0.0;
  Index3 argmax;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    sum += f(p);
    if (f(p) > maxv) {
      maxv = f(p);
      argmax = p;
    }
  });
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Origin-centred so the convolution response localises on the
  // sub-domain (the paper's N/2 centring is this kernel shifted by N/2).
  EXPECT_EQ(argmax, (Index3{0, 0, 0}));
}

TEST(Gaussian, RapidDecayProperty) {
  const Grid3 g{32, 32, 32};
  const RealField f = gaussian_kernel_field(g, 1.5);
  // Value 8 voxels from the peak is negligible.
  EXPECT_LT(f(8, 0, 0) / f(0, 0, 0), 1e-6);
}

TEST(Gaussian, PeriodicSymmetry) {
  const Grid3 g{32, 32, 32};
  const RealField f = gaussian_kernel_field(g, 2.0);
  EXPECT_DOUBLE_EQ(f(3, 0, 0), f(29, 0, 0));
  EXPECT_DOUBLE_EQ(f(0, 5, 1), f(0, 27, 31));
}

TEST(Gaussian, ConvolutionResponseLocalizesOnImpulse) {
  // A delta at p convolved with the kernel must peak at p — the property
  // the octree's "dense around the sub-domain" pattern depends on.
  const Grid3 g{32, 32, 32};
  RealField delta(g, 0.0);
  delta(20, 9, 13) = 1.0;
  fft::Fft3D plan(g);
  const GaussianSpectrum spec(g, 1.5);
  const RealField out =
      fft::convolve_with_spectrum(delta, spec.materialize(g), plan);
  Index3 argmax;
  double maxv = -1.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    if (out(p) > maxv) {
      maxv = out(p);
      argmax = p;
    }
  });
  EXPECT_EQ(argmax, (Index3{20, 9, 13}));
}

TEST(Gaussian, SpectrumIsRealValued) {
  const Grid3 g{16, 16, 16};
  const RealField f = gaussian_kernel_field(g, 2.0);
  fft::Fft3D plan(g);
  const ComplexField hat = fft::forward_spectrum(f, plan);
  for (const auto& v : hat.span()) EXPECT_NEAR(v.imag(), 0.0, 1e-12);
}

TEST(Gaussian, OnTheFlySpectrumMatchesDenseTransform) {
  const Grid3 g{16, 16, 16};
  const GaussianSpectrum spec(g, 2.0);
  const RealField f = gaussian_kernel_field(g, 2.0);
  fft::Fft3D plan(g);
  const ComplexField want = fft::forward_spectrum(f, plan);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    EXPECT_NEAR(std::abs(spec.eval(p, g) - want(p)), 0.0, 1e-10) << p.str();
  });
}

TEST(Gaussian, MaterializeMatchesEval) {
  const Grid3 g{8, 8, 8};
  const GaussianSpectrum spec(g, 1.0);
  const ComplexField dense = spec.materialize(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    EXPECT_EQ(dense(p), spec.eval(p, g));
  });
}

TEST(Gaussian, WrongGridThrows) {
  const GaussianSpectrum spec(Grid3{8, 8, 8}, 1.0);
  EXPECT_THROW((void)spec.eval({0, 0, 0}, Grid3{16, 16, 16}), InvalidArgument);
  EXPECT_THROW(GaussianSpectrum(Grid3{8, 8, 8}, -1.0), InvalidArgument);
}

// --- Conjugate symmetry & half-spectrum storage (DESIGN.md §16) ----------

/// Mirror bin (N − ξ) mod N of `bin` on grid `g`.
Index3 mirror_bin(const Index3& bin, const Grid3& g) {
  return {(g.nx - bin.x) % g.nx, (g.ny - bin.y) % g.ny, (g.nz - bin.z) % g.nz};
}

/// max |Ĝ(mirror(ξ)) − conj Ĝ(ξ)| over every bin of `g`, relative to
/// max |Ĝ|: zero for the spectrum of a real kernel.
double conjugate_symmetry_defect(const KernelSpectrum& kernel,
                                 const Grid3& g) {
  double defect = 0.0;
  double scale = 0.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    const cplx v = kernel.eval(p, g);
    scale = std::max(scale, std::abs(v));
    const cplx mirror = kernel.eval(mirror_bin(p, g), g);
    defect = std::max(defect, std::abs(mirror - std::conj(v)));
  });
  return scale > 0.0 ? defect / scale : defect;
}

// Every kernel and operator in src/ is the spectrum of a real kernel, the
// contract the half-spectrum pipeline rests on: it reads only x ≤ nx/2 and
// c2r supplies the mirror half. Raw Γ̂ breaks this on its Nyquist planes.
TEST(Hermitian, EveryKernelAndOperatorIsConjugateSymmetric) {
  const Grid3 g = Grid3::cube(16);
  const GaussianSpectrum gauss(g, 1.25);
  EXPECT_LT(conjugate_symmetry_defect(gauss, g), 1e-12);
  EXPECT_LT(conjugate_symmetry_defect(PoissonGreenSpectrum(), g), 1e-12);
  EXPECT_LT(
      conjugate_symmetry_defect(PoissonGreenSpectrum(/*discrete=*/true), g),
      1e-12);
  EXPECT_LT(conjugate_symmetry_defect(
                HalfDenseSpectrum(gauss.materialize_half(g), g), g),
            1e-12);

  const Lame ref = lame_from_young_poisson(100.0, 0.3);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_LT(conjugate_symmetry_defect(
                    massif::ElasticGreenComponentKernel(a, b, ref), g),
                1e-12)
          << "gamma[" << a << "][" << b << "]";
    }
  }

  // The six-channel operator maps a conjugate-symmetric pair of channel
  // vectors (v at ξ, conj v at the mirror) to a conjugate-symmetric pair.
  const massif::ElasticGreenOperator op(ref);
  SplitMix64 rng(5);
  double defect = 0.0;
  double scale = 0.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    std::array<cplx, 6> at{};
    for (auto& v : at) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    std::array<cplx, 6> mirrored{};
    for (std::size_t c = 0; c < 6; ++c) mirrored[c] = std::conj(at[c]);
    op.apply(p, g, at);
    op.apply(mirror_bin(p, g), g, mirrored);
    for (std::size_t c = 0; c < 6; ++c) {
      scale = std::max(scale, std::abs(at[c]));
      defect = std::max(defect, std::abs(mirrored[c] - std::conj(at[c])));
    }
  });
  EXPECT_LT(defect, 1e-12 * scale);
}

TEST(HalfDenseSpectrum, StoresHalfGridAndMirrorsByConjugation) {
  const Grid3 g = Grid3::cube(8);
  const GaussianSpectrum gauss(g, 1.25);
  const HalfDenseSpectrum half(gauss.materialize_half(g), g, "gauss-half");
  EXPECT_EQ(half.half_spectrum().grid().nx, g.nx / 2 + 1);
  EXPECT_EQ(half.half_spectrum().size(),
            static_cast<std::size_t>((g.nx / 2 + 1) * g.ny * g.nz));
  // eval covers the FULL grid: bins past nx/2 come from the conjugate
  // mirror and must match the closed-form kernel everywhere.
  for (i64 x = 0; x < g.nx; ++x) {
    for (i64 y = 0; y < g.ny; ++y) {
      for (i64 z = 0; z < g.nz; ++z) {
        const cplx want = gauss.eval({x, y, z}, g);
        const cplx got = half.eval({x, y, z}, g);
        ASSERT_NEAR(got.real(), want.real(), 1e-12) << x << "," << y << "," << z;
        ASSERT_NEAR(got.imag(), want.imag(), 1e-12) << x << "," << y << "," << z;
      }
    }
  }
}

TEST(HalfDenseSpectrum, RejectsWrongShapes) {
  const Grid3 g = Grid3::cube(8);
  EXPECT_THROW(HalfDenseSpectrum(ComplexField(g), g, "full-sized"),
               InvalidArgument);
  const HalfDenseSpectrum half(GaussianSpectrum(g, 1.0).materialize_half(g), g);
  EXPECT_THROW((void)half.eval({0, 0, 0}, Grid3::cube(16)), InvalidArgument);
}

TEST(Poisson, SolvesManufacturedLaplaceProblem) {
  // u(x) = cos(2π x / N): -∇²u = (2π/N)² u (spectral). Convolving the RHS
  // with the spectral kernel must return u.
  const Grid3 g{16, 16, 16};
  const double w = 2.0 * std::numbers::pi / static_cast<double>(g.nx);
  RealField u(g);
  RealField rhs(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    u(p) = std::cos(w * static_cast<double>(p.x));
    rhs(p) = w * w * u(p);
  });
  const PoissonGreenSpectrum kernel(false);
  fft::Fft3D plan(g);
  const ComplexField khat = kernel.materialize(g);
  const RealField got = fft::convolve_with_spectrum(rhs, khat, plan);
  EXPECT_LT(max_abs_error(got.span(), u.span()), 1e-10);
}

TEST(Poisson, DiscreteKernelSolvesSevenPointStencil) {
  const Grid3 g{16, 16, 16};
  // Random zero-mean RHS; solve with the FD kernel, then check the 7-point
  // Laplacian of the solution reproduces the RHS.
  RealField rhs(g);
  SplitMix64 rng(2);
  double mean = 0.0;
  for (auto& v : rhs.span()) {
    v = rng.uniform(-1, 1);
    mean += v;
  }
  mean /= static_cast<double>(g.size());
  for (auto& v : rhs.span()) v -= mean;

  const PoissonGreenSpectrum kernel(true);
  fft::Fft3D plan(g);
  const RealField u =
      fft::convolve_with_spectrum(rhs, kernel.materialize(g), plan);
  auto wrap = [&](i64 v, i64 n) { return (v % n + n) % n; };
  for_each_point(Box3::of(g), [&](const Index3& p) {
    const double lap =
        6.0 * u(p) - u(wrap(p.x - 1, g.nx), p.y, p.z) -
        u(wrap(p.x + 1, g.nx), p.y, p.z) - u(p.x, wrap(p.y - 1, g.ny), p.z) -
        u(p.x, wrap(p.y + 1, g.ny), p.z) - u(p.x, p.y, wrap(p.z - 1, g.nz)) -
        u(p.x, p.y, wrap(p.z + 1, g.nz));
    EXPECT_NEAR(lap, rhs(p), 1e-9) << p.str();
  });
}

TEST(Poisson, DcBinIsZero) {
  const PoissonGreenSpectrum a(false);
  const PoissonGreenSpectrum b(true);
  const Grid3 g{8, 8, 8};
  EXPECT_EQ(a.eval({0, 0, 0}, g), (cplx{0.0, 0.0}));
  EXPECT_EQ(b.eval({0, 0, 0}, g), (cplx{0.0, 0.0}));
}

TEST(Poisson, SpectrumDecaysWithFrequency) {
  const PoissonGreenSpectrum k(false);
  const Grid3 g{32, 32, 32};
  const double low = k.eval({1, 0, 0}, g).real();
  const double high = k.eval({8, 0, 0}, g).real();
  EXPECT_GT(low, high);
  EXPECT_NEAR(low / high, 64.0, 1e-9);  // 1/ω² scaling
}

class ElasticGreenTest : public ::testing::Test {
 protected:
  Lame ref_ = lame_from_young_poisson(100.0, 0.3);
};

TEST_F(ElasticGreenTest, ZeroFrequencyGivesZeroOperator) {
  const Green4 g0 = elastic_green_operator({0.0, 0.0, 0.0}, ref_);
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = 0; b < 6; ++b) EXPECT_EQ(g0.m[a][b], 0.0);
  }
}

TEST_F(ElasticGreenTest, NyquistParityRuleEqualsHermitianPart) {
  // elastic_green_at_bin zeroes the entries that are odd in the Nyquist
  // components; that must equal the Hermitian part
  // H = (Γ̂(ω) + Γ̂(ω with its Nyquist components negated)) / 2 exactly,
  // and leave Γ̂ untouched off the Nyquist planes.
  for (const i64 n : {8, 16}) {
    const Grid3 g = Grid3::cube(n);
    for_each_point(Box3::of(g), [&](const Index3& p) {
      const fft::Freq3 w{fft::angular_frequency(p.x, n),
                         fft::angular_frequency(p.y, n),
                         fft::angular_frequency(p.z, n)};
      const fft::Freq3 flipped{p.x == n / 2 ? -w.x : w.x,
                               p.y == n / 2 ? -w.y : w.y,
                               p.z == n / 2 ? -w.z : w.z};
      const Green4 raw = elastic_green_operator(w, ref_);
      const Green4 neg = elastic_green_operator(flipped, ref_);
      const Green4 rule = elastic_green_at_bin(p, g, ref_);
      for (std::size_t a = 0; a < 6; ++a) {
        for (std::size_t b = 0; b < 6; ++b) {
          ASSERT_EQ(rule.m[a][b], 0.5 * (raw.m[a][b] + neg.m[a][b]))
              << "n=" << n << " bin " << p.str() << " [" << a << "][" << b
              << "]";
        }
      }
    });
  }
}

TEST_F(ElasticGreenTest, MatchesEqn3ComponentwiseAtSampleFrequency) {
  const fft::Freq3 xi{0.7, -0.3, 1.1};
  const Green4 gamma = elastic_green_operator(xi, ref_);
  const double n2 = xi.norm_sq();
  const std::array<double, 3> v{xi.x, xi.y, xi.z};
  auto delta = [](std::size_t i, std::size_t j) { return i == j ? 1.0 : 0.0; };
  const double b =
      (ref_.lambda + ref_.mu) / (ref_.mu * (ref_.lambda + 2.0 * ref_.mu));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t l = 0; l < 3; ++l) {
          const double want =
              (delta(k, i) * v[l] * v[j] + delta(l, i) * v[k] * v[j] +
               delta(k, j) * v[l] * v[i] + delta(l, j) * v[k] * v[i]) /
                  (4.0 * ref_.mu * n2) -
              b * v[i] * v[j] * v[k] * v[l] / (n2 * n2);
          EXPECT_NEAR(gamma.at(i, j, k, l), want, 1e-14)
              << i << j << k << l;
        }
      }
    }
  }
}

TEST_F(ElasticGreenTest, HasMajorSymmetry) {
  const Green4 gamma = elastic_green_operator({1.0, 2.0, -0.5}, ref_);
  EXPECT_TRUE(gamma.is_major_symmetric(1e-12));
}

TEST_F(ElasticGreenTest, ScalesInverselyWithFrequencySquared) {
  const fft::Freq3 xi{1.0, 0.5, -0.25};
  const fft::Freq3 xi2{2.0, 1.0, -0.5};
  const Green4 a = elastic_green_operator(xi, ref_);
  const Green4 b = elastic_green_operator(xi2, ref_);
  // Γ̂ is homogeneous of degree 0 in ξ direction and -... both terms scale
  // as 1/|ξ|² · ξξ → degree 0? term1: ξ²/|ξ|² degree 0; term2 ξ⁴/|ξ|⁴
  // degree 0. So Γ̂(2ξ) = Γ̂(ξ) / ... actually a/|ξ|² with ξξ on top:
  // doubling ξ multiplies numerators by 4 and |ξ|² by 4 → unchanged ×
  // the explicit 1/|ξ|² prefactor? Check numerically: Γ̂(2ξ)=Γ̂(ξ)/4? No:
  // fully homogeneous of degree -... measure it.
  const double ratio = a.at(0, 0, 0, 0) / b.at(0, 0, 0, 0);
  // Γ̂ is homogeneous of degree 0: scaling ξ leaves it unchanged.
  EXPECT_NEAR(ratio, 1.0, 1e-12);
}

TEST_F(ElasticGreenTest, ApplyGreenMatchesManualContraction) {
  const Green4 gamma = elastic_green_operator({0.9, -1.2, 0.4}, ref_);
  Sym2c sig;
  SplitMix64 rng(7);
  for (auto& v : sig.v) v = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const Sym2c out = apply_green(gamma, sig);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i; j < 3; ++j) {
      cplx want{0.0, 0.0};
      for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t l = 0; l < 3; ++l) {
          want += gamma.at(i, j, k, l) * sig.at(k, l);
        }
      }
      EXPECT_NEAR(std::abs(out.at(i, j) - want), 0.0, 1e-12) << i << j;
    }
  }
}

TEST_F(ElasticGreenTest, RequiresPositiveShearModulus) {
  EXPECT_THROW((void)elastic_green_operator({1, 0, 0}, Lame{1.0, 0.0}),
               InvalidArgument);
}

TEST_F(ElasticGreenTest, SpatialGreenResponseDecays) {
  // Convolve a point stress source with Γ̂ on a periodic grid: the strain
  // response magnitude must decay away from the source — the property the
  // whole compression strategy rests on (paper §2.2, §3.2).
  const Grid3 g{32, 32, 32};
  fft::Fft3D plan(g);
  // Point source: σ_xx = δ at the grid centre.
  ComplexField sig_xx(g);
  sig_xx(16, 16, 16) = cplx{1.0, 0.0};
  plan.forward(sig_xx);
  // Apply Γ̂ bin-wise to the (xx-only) stress spectrum; keep ε̂_xx.
  ComplexField eps_xx(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    const Green4 gamma = elastic_green_at_bin(p, g, ref_);
    Sym2c s;
    s.v[0] = sig_xx(p);
    eps_xx(p) = apply_green(gamma, s).v[0];
  });
  plan.inverse(eps_xx);
  const double near = std::abs(eps_xx(17, 16, 16).real());
  const double far = std::abs(eps_xx(28, 16, 16).real());
  EXPECT_GT(near, 10.0 * far);
}

}  // namespace
}  // namespace lc::green
