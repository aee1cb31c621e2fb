// Tests for the MASSIF use case: microstructures, the elastic Green
// operator as a 6-channel spectral operator, and the fixed-point solver
// with dense (Algorithm 1) and low-communication (Algorithm 2) backends.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "massif/green_operator.hpp"
#include "massif/microstructure.hpp"
#include "massif/solver.hpp"

namespace lc::massif {
namespace {

Phase stiff_phase() { return Phase::isotropic("stiff", 200.0, 0.3); }
Phase soft_phase() { return Phase::isotropic("soft", 100.0, 0.3); }

Sym2 uniaxial_strain(double e) {
  Sym2 s;
  s.at(0, 0) = e;
  return s;
}

TEST(Phase, IsotropicStiffnessFromEngineeringConstants) {
  const Phase p = Phase::isotropic("steel", 210.0, 0.3);
  EXPECT_NEAR(p.lame.mu, 80.77, 0.01);
  // C_1111 = λ + 2μ
  EXPECT_NEAR(p.stiffness.at(0, 0, 0, 0), p.lame.lambda + 2.0 * p.lame.mu,
              1e-12);
  EXPECT_TRUE(p.stiffness.is_major_symmetric());
}

TEST(Microstructure, HomogeneousIsAllOnePhase) {
  const auto m = Microstructure::homogeneous(Grid3::cube(8), stiff_phase());
  EXPECT_EQ(m.volume_fractions().at(0), 1.0);
  EXPECT_EQ(m.phase_at({3, 4, 5}), 0);
}

TEST(Microstructure, CubicInclusionFraction) {
  const auto m = Microstructure::cubic_inclusion(Grid3::cube(16),
                                                 soft_phase(), stiff_phase(), 8);
  const auto frac = m.volume_fractions();
  EXPECT_NEAR(frac.at(1), 8.0 * 8.0 * 8.0 / (16.0 * 16.0 * 16.0), 1e-12);
  EXPECT_EQ(m.phase_at({8, 8, 8}), 1);  // centre inside inclusion
  EXPECT_EQ(m.phase_at({0, 0, 0}), 0);
}

TEST(Microstructure, RandomSpheresHitsTargetFraction) {
  const auto m = Microstructure::random_spheres(
      Grid3::cube(32), soft_phase(), stiff_phase(), 0.2, 3.0, 42);
  const double frac = m.volume_fractions().at(1);
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.30);
}

TEST(Microstructure, RandomSpheresDeterministicBySeed) {
  const auto a = Microstructure::random_spheres(Grid3::cube(16), soft_phase(),
                                                stiff_phase(), 0.15, 2.0, 7);
  const auto b = Microstructure::random_spheres(Grid3::cube(16), soft_phase(),
                                                stiff_phase(), 0.15, 2.0, 7);
  for_each_point(Box3::of(Grid3::cube(16)), [&](const Index3& p) {
    EXPECT_EQ(a.phase_at(p), b.phase_at(p));
  });
}

TEST(Microstructure, LaminateAlternatesLayers) {
  const auto m =
      Microstructure::laminate(Grid3::cube(16), soft_phase(), stiff_phase(), 4);
  EXPECT_EQ(m.phase_at({0, 0, 0}), 0);
  EXPECT_EQ(m.phase_at({0, 0, 4}), 1);
  EXPECT_EQ(m.phase_at({0, 0, 8}), 0);
  EXPECT_NEAR(m.volume_fractions().at(0), 0.5, 1e-12);
}

TEST(Microstructure, ReferenceMediumIsMidpoint) {
  const auto m = Microstructure::laminate(Grid3::cube(8), soft_phase(),
                                          stiff_phase(), 2);
  const Lame ref = m.reference_medium();
  EXPECT_NEAR(ref.mu, (soft_phase().lame.mu + stiff_phase().lame.mu) / 2.0,
              1e-12);
}

TEST(Microstructure, RejectsBadVoxelData) {
  EXPECT_THROW(Microstructure(Grid3::cube(4), {stiff_phase()},
                              std::vector<std::uint8_t>(10, 0)),
               InvalidArgument);
  EXPECT_THROW(Microstructure(Grid3::cube(2), {stiff_phase()},
                              std::vector<std::uint8_t>(8, 3)),
               InvalidArgument);
}

TEST(ElasticGreenOperator, MatchesScalarComponentKernels) {
  const Lame ref{1.2, 0.9};
  const ElasticGreenOperator op(ref);
  const Grid3 g = Grid3::cube(8);
  ASSERT_EQ(op.channels(), 6u);

  std::array<core::cplx, 6> values;
  for (std::size_t a = 0; a < 6; ++a) {
    values[a] = core::cplx{0.1 * static_cast<double>(a + 1),
                           -0.2 * static_cast<double>(a)};
  }
  auto input = values;
  op.apply({1, 2, 3}, g, values);

  for (std::size_t a = 0; a < 6; ++a) {
    core::cplx want{0.0, 0.0};
    for (std::size_t b = 0; b < 6; ++b) {
      const ElasticGreenComponentKernel kab(a, b, ref);
      const double w = (b < 3) ? 1.0 : 2.0;
      want += w * kab.eval({1, 2, 3}, g) * input[b];
    }
    EXPECT_NEAR(std::abs(values[a] - want), 0.0, 1e-12) << a;
  }
}

TEST(ElasticGreenOperator, DcBinIsAnnihilated) {
  const ElasticGreenOperator op(Lame{1.0, 1.0});
  std::array<core::cplx, 6> values;
  values.fill(core::cplx{3.0, -1.0});
  op.apply({0, 0, 0}, Grid3::cube(8), values);
  for (const auto& v : values) EXPECT_EQ(v, (core::cplx{0.0, 0.0}));
}

TEST(ElasticGreenOperator, HalfSpectrumConvolverMatchesRawComplexReference) {
  // For a real input, Re(IFFT(Γ̂ · X̂)) = IFFT(H · X̂) with H the Hermitian
  // part that elastic_green_at_bin bins. So the half-spectrum pipeline must
  // reproduce an independent complex computation with the raw closed form:
  // complex 3D FFTs, raw Γ̂(ω) at every bin, the real part, then sampling.
  const Lame ref{1.2, 0.9};
  for (const i64 n : {16, 32, 64}) {
    const Grid3 g = Grid3::cube(n);
    const i64 k = n / 4;
    const Index3 corner{n / 4, n / 2, 0};
    SplitMix64 rng(static_cast<std::uint64_t>(n));
    std::vector<RealField> chunks;
    for (std::size_t c = 0; c < 6; ++c) {
      RealField chunk(Grid3::cube(k));
      for (auto& v : chunk.span()) v = rng.uniform(-1.0, 1.0);
      chunks.push_back(std::move(chunk));
    }
    auto tree = std::make_shared<sampling::Octree>(
        g, Box3::cube_at(corner, k),
        sampling::SamplingPolicy::paper_default(k));
    const core::LocalConvolver conv(
        g, std::make_shared<ElasticGreenOperator>(ref));
    const auto got = conv.convolve_channels(chunks, corner, tree);

    const fft::Fft3D plan(g);
    std::array<ComplexField, 6> hat;
    for (std::size_t c = 0; c < 6; ++c) {
      RealField padded(g, 0.0);
      padded.insert(chunks[c], corner);
      hat[c] = fft::forward_spectrum(padded, plan);
    }
    for_each_point(Box3::of(g), [&](const Index3& p) {
      const fft::Freq3 w{fft::angular_frequency(p.x, n),
                         fft::angular_frequency(p.y, n),
                         fft::angular_frequency(p.z, n)};
      const Green4 gamma = green::elastic_green_operator(w, ref);
      Sym2c sigma;
      for (std::size_t c = 0; c < 6; ++c) sigma.v[c] = hat[c](p);
      const Sym2c eps = green::apply_green(gamma, sigma);
      for (std::size_t c = 0; c < 6; ++c) hat[c](p) = eps.v[c];
    });

    double err2 = 0.0;
    double ref2 = 0.0;
    for (std::size_t c = 0; c < 6; ++c) {
      const RealField want = fft::inverse_real(std::move(hat[c]), plan);
      const auto samples = got[c].samples();
      for (const auto& cell : tree->cells()) {
        const i64 e = cell.samples_per_edge();
        for (i64 iz = 0; iz < e; ++iz) {
          for (i64 iy = 0; iy < e; ++iy) {
            for (i64 ix = 0; ix < e; ++ix) {
              const Index3 p{(cell.corner.x + ix * cell.rate) % n,
                             (cell.corner.y + iy * cell.rate) % n,
                             (cell.corner.z + iz * cell.rate) % n};
              const double d =
                  samples[cell.sample_offset + cell.sample_index(ix, iy, iz)] -
                  want(p);
              err2 += d * d;
              ref2 += want(p) * want(p);
            }
          }
        }
      }
    }
    ASSERT_GT(ref2, 0.0);
    EXPECT_LT(std::sqrt(err2 / ref2), 1e-12) << "n=" << n;
  }
}

// --- Solver ------------------------------------------------------------------

TEST(MassifSolver, HomogeneousConvergesImmediately) {
  const Grid3 g = Grid3::cube(8);
  const auto micro = Microstructure::homogeneous(g, stiff_phase());
  auto backend = std::make_shared<DenseGreenBackend>(
      g, micro.reference_medium(), nullptr);
  MassifSolver solver(micro, uniaxial_strain(0.01), backend);
  const SolveReport report = solver.solve();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 1);
  // Uniform material: σ = C : E everywhere.
  const Sym2 want = stiff_phase().stiffness.ddot(uniaxial_strain(0.01));
  const Sym2 got = solver.average_stress();
  for (std::size_t a = 0; a < 6; ++a) EXPECT_NEAR(got.v[a], want.v[a], 1e-10);
}

TEST(MassifSolver, TwoPhaseConvergesMonotonically) {
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  auto backend =
      std::make_shared<DenseGreenBackend>(g, micro.reference_medium());
  MassifSolver solver(micro, uniaxial_strain(0.01), backend,
                      {1e-5, 100});
  const SolveReport report = solver.solve();
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.iterations, 1);
  // Strain-change residual decreases (fixed-point contraction).
  for (std::size_t i = 1; i < report.strain_change_history.size(); ++i) {
    EXPECT_LT(report.strain_change_history[i],
              report.strain_change_history[i - 1] * 1.5)
        << i;
  }
}

TEST(MassifSolver, MeanStrainStaysPrescribed) {
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  auto backend =
      std::make_shared<DenseGreenBackend>(g, micro.reference_medium());
  const Sym2 macro = uniaxial_strain(0.02);
  MassifSolver solver(micro, macro, backend, {1e-5, 100});
  (void)solver.solve();
  // Γ̂(0) = 0 keeps the volume-average strain equal to E at every iterate.
  for (std::size_t a = 0; a < 6; ++a) {
    double mean = 0.0;
    for (const auto v : solver.strain().component(a).span()) mean += v;
    mean /= static_cast<double>(g.size());
    EXPECT_NEAR(mean, macro.v[a], 1e-12) << a;
  }
}

TEST(MassifSolver, EffectiveStiffnessBetweenPhaseBounds) {
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::random_spheres(g, soft_phase(), stiff_phase(), 0.3, 3.0, 9);
  auto backend =
      std::make_shared<DenseGreenBackend>(g, micro.reference_medium());
  const double e0 = 0.01;
  MassifSolver solver(micro, uniaxial_strain(e0), backend, {1e-5, 200});
  EXPECT_TRUE(solver.solve().converged);
  const double c_eff = solver.average_stress().at(0, 0) / e0;
  const double c_soft = soft_phase().stiffness.at(0, 0, 0, 0);
  const double c_stiff = stiff_phase().stiffness.at(0, 0, 0, 0);
  EXPECT_GT(c_eff, c_soft);  // stiffer than pure matrix (Reuss direction)
  EXPECT_LT(c_eff, c_stiff);  // softer than pure inclusion (Voigt direction)
}

TEST(MassifSolver, LosslessLowCommMatchesDenseExactly) {
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = uniaxial_strain(0.01);

  auto dense = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver ref_solver(micro, macro, dense, {1e-5, 60});
  const auto ref_report = ref_solver.solve();

  LowCommGreenBackend::Params params;
  params.subdomain = 8;
  params.uniform_rate = 1;  // lossless sampling
  params.batch = 64;
  auto lowcomm = std::make_shared<LowCommGreenBackend>(g, ref, params);
  MassifSolver lc_solver(micro, macro, lowcomm, {1e-5, 60});
  const auto lc_report = lc_solver.solve();

  EXPECT_TRUE(ref_report.converged);
  EXPECT_TRUE(lc_report.converged);
  EXPECT_EQ(lc_report.iterations, ref_report.iterations);
  EXPECT_LT(lc_solver.strain().relative_error_to(ref_solver.strain()), 1e-8);
}

TEST(MassifSolver, CompressedLowCommStaysWithinTolerance) {
  // 32³ grid: the smallest scale where a compressible far field exists
  // (on a 16³ torus with k=8 every point is within k/2 of the domain).
  const Grid3 g = Grid3::cube(32);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = uniaxial_strain(0.01);

  LowCommGreenBackend::Params params;
  params.subdomain = 16;
  params.far_rate = 4;
  params.dense_halo = 4;
  params.batch = 256;

  // Single-application convolution error — the quantity the paper bounds
  // at 3% (§5.3): Γ ∗ σ via the compressed pipeline vs the dense FFT.
  SymTensorField eps(g);
  eps.fill(macro);
  SymTensorField sig(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    sig.set(p, micro.stiffness_at(p).ddot(eps.at(p)));
  });
  DenseGreenBackend dense_once(g, ref);
  LowCommGreenBackend lowcomm_once(g, ref, params);
  SymTensorField want(g);
  SymTensorField got(g);
  dense_once.apply(sig, want);
  lowcomm_once.apply(sig, got);
  EXPECT_LT(got.relative_error_to(want), 0.03);

  // Full fixed-point runs. The compression error bounds the reachable
  // residual, so the tolerance matches the approximation level; the paper
  // reports convergence is "not largely impacted" at its 3% error.
  auto dense = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver ref_solver(micro, macro, dense, {5e-3, 30});
  (void)ref_solver.solve();

  auto lowcomm = std::make_shared<LowCommGreenBackend>(g, ref, params);
  MassifSolver lc_solver(micro, macro, lowcomm, {5e-3, 30});
  const auto report = lc_solver.solve();

  EXPECT_TRUE(report.converged);
  EXPECT_LT(lc_solver.strain().relative_error_to(ref_solver.strain()), 0.02);
  // Compression vs storing each sub-domain's full-resolution result.
  const std::size_t dense_per_domain =
      6u * 8u * sizeof(double) * g.size();  // 8 domains × 6 components
  EXPECT_GT(lowcomm->exchange_bytes_per_apply(), 0u);
  EXPECT_LT(lowcomm->exchange_bytes_per_apply(), dense_per_domain);
}

TEST(Sym4Algebra, InverseComposeIdentity) {
  const Stiffness c = isotropic_stiffness(2.3, 1.7);
  const auto inv = invert_sym4(c);
  const auto id = compose_sym4(inv, c);
  const auto want = identity_sym4();
  Sym2 e;
  e.at(0, 0) = 0.4;
  e.at(1, 2) = -0.7;
  e.at(0, 1) = 0.2;
  const Sym2 round = inv.ddot(c.ddot(e));
  for (std::size_t a = 0; a < 6; ++a) {
    EXPECT_NEAR(round.v[a], e.v[a], 1e-12) << a;
    EXPECT_NEAR(id.ddot(e).v[a], want.ddot(e).v[a], 1e-12) << a;
  }
  EXPECT_THROW((void)invert_sym4(SymTensor4<double>{}), InvalidArgument);
}

TEST(MassifSolver, CgSolvesTheLippmannSchwingerEquation) {
  // The true convergence check: the CG solution must satisfy
  // ε + Γ⁰∗(δC : ε) = E to solver tolerance (the basic scheme's
  // strain-change criterion can stall far from this).
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = uniaxial_strain(0.01);
  auto backend = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver solver(micro, macro, backend,
                      {1e-9, 200, Scheme::kConjugateGradient, ref});
  const auto report = solver.solve();
  ASSERT_TRUE(report.converged);

  // Recompute the equation residual from scratch.
  const Stiffness c0 = isotropic_stiffness(ref.lambda, ref.mu);
  SymTensorField tau(g);
  for_each_point(Box3::of(g), [&](const Index3& p) {
    Stiffness d = micro.stiffness_at(p);
    d -= c0;
    tau.set(p, d.ddot(solver.strain().at(p)));
  });
  SymTensorField gamma_tau(g);
  DenseGreenBackend(g, ref).apply(tau, gamma_tau);
  double num = 0.0;
  double den = 0.0;
  for_each_point(Box3::of(g), [&](const Index3& p) {
    Sym2 r = solver.strain().at(p);
    r += gamma_tau.at(p);
    r -= macro;
    num += r.ddot(r);
    den += macro.ddot(macro);
  });
  EXPECT_LT(std::sqrt(num / den), 1e-7);
}

TEST(MassifSolver, CgMatchesBasicAtLowContrast) {
  // At low contrast the basic scheme genuinely converges; both schemes
  // must then agree on the solution.
  const Grid3 g = Grid3::cube(16);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), stiff_phase(), 8);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = uniaxial_strain(0.01);
  auto b1 = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver basic(micro, macro, b1, {1e-8, 500});
  ASSERT_TRUE(basic.solve().converged);
  auto b2 = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver cg(micro, macro, b2,
                  {1e-9, 200, Scheme::kConjugateGradient, ref});
  ASSERT_TRUE(cg.solve().converged);
  EXPECT_LT(cg.strain().relative_error_to(basic.strain()), 0.02);
  const double s_basic = basic.average_stress().at(0, 0);
  const double s_cg = cg.average_stress().at(0, 0);
  EXPECT_NEAR(s_cg, s_basic, 0.01 * std::abs(s_basic));
}

TEST(MassifSolver, CgNeedsFarFewerIterationsAtHighContrast) {
  const Grid3 g = Grid3::cube(16);
  const Phase very_stiff = Phase::isotropic("stiff20x", 2000.0, 0.3);
  const auto micro =
      Microstructure::cubic_inclusion(g, soft_phase(), very_stiff, 8);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = uniaxial_strain(0.01);
  auto b1 = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver basic(micro, macro, b1, {1e-5, 400});
  const auto basic_report = basic.solve();
  auto b2 = std::make_shared<DenseGreenBackend>(g, ref);
  MassifSolver cg(micro, macro, b2,
                  {1e-8, 400, Scheme::kConjugateGradient, ref});
  const auto cg_report = cg.solve();
  ASSERT_TRUE(cg_report.converged);
  EXPECT_LT(cg_report.iterations * 2, basic_report.iterations);
}

TEST(MassifSolver, CgHandlesHomogeneousImmediately) {
  const Grid3 g = Grid3::cube(8);
  const auto micro = Microstructure::homogeneous(g, stiff_phase());
  const Lame ref{micro.phases()[0].lame.lambda, micro.phases()[0].lame.mu};
  auto backend = std::make_shared<DenseGreenBackend>(g, ref, nullptr);
  MassifSolver solver(micro, uniaxial_strain(0.01), backend,
                      {1e-8, 50, Scheme::kConjugateGradient, ref});
  const auto report = solver.solve();
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.iterations, 1);
}

TEST(MassifSolver, CgRequiresReferenceMedium) {
  const Grid3 g = Grid3::cube(8);
  const auto micro = Microstructure::homogeneous(g, stiff_phase());
  auto backend =
      std::make_shared<DenseGreenBackend>(g, micro.reference_medium());
  SolverOptions opt;
  opt.scheme = Scheme::kConjugateGradient;  // reference left at zero
  EXPECT_THROW(MassifSolver(micro, uniaxial_strain(0.01), backend, opt),
               InvalidArgument);
}

TEST(Microstructure, GeometricReferenceMedium) {
  const auto m = Microstructure::laminate(Grid3::cube(8), soft_phase(),
                                          stiff_phase(), 2);
  const Lame gref = m.reference_medium_geometric();
  EXPECT_NEAR(gref.mu,
              std::sqrt(soft_phase().lame.mu * stiff_phase().lame.mu), 1e-12);
}

TEST(MassifSolver, RejectsZeroMacroStrain) {
  const Grid3 g = Grid3::cube(8);
  const auto micro = Microstructure::homogeneous(g, stiff_phase());
  auto backend =
      std::make_shared<DenseGreenBackend>(g, micro.reference_medium());
  MassifSolver solver(micro, Sym2{}, backend);
  EXPECT_THROW((void)solver.solve(), InvalidArgument);
}

}  // namespace
}  // namespace lc::massif
