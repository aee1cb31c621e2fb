// Unit and property tests for the 1D FFT substrate: radix-2, Bluestein,
// real transforms, pruned transforms — all validated against the direct DFT.
#include <gtest/gtest.h>

#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "fft/dft_direct.hpp"
#include "fft/fft1d.hpp"
#include "fft/freq.hpp"
#include "fft/pruned.hpp"
#include "fft/real_fft.hpp"

namespace lc::fft {
namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

double max_err(std::span<const cplx> a, std::span<const cplx> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Pow2Helpers, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1000));
}

TEST(Pow2Helpers, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Freq, SignedFrequency) {
  EXPECT_EQ(signed_frequency(0, 8), 0);
  EXPECT_EQ(signed_frequency(3, 8), 3);
  EXPECT_EQ(signed_frequency(4, 8), 4);  // Nyquist kept positive
  EXPECT_EQ(signed_frequency(5, 8), -3);
  EXPECT_EQ(signed_frequency(7, 8), -1);
}

TEST(Freq, FrequencyVector) {
  const Grid3 g{8, 8, 8};
  const Freq3 f = frequency_vector({7, 1, 4}, g);
  EXPECT_DOUBLE_EQ(f.x, -1.0);
  EXPECT_DOUBLE_EQ(f.y, 1.0);
  EXPECT_DOUBLE_EQ(f.z, 4.0);
  EXPECT_DOUBLE_EQ(f.norm_sq(), 1.0 + 1.0 + 16.0);
}

// --- Parameterized forward/inverse correctness across lengths ------------

class Fft1DLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1DLengths, ForwardMatchesDirectDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 100 + n);
  std::vector<cplx> want(n);
  dft_direct_forward(x, want);

  std::vector<cplx> got = x;
  Fft1D plan(n);
  plan.forward(got);
  EXPECT_LT(max_err(got, want), 1e-9 * static_cast<double>(n)) << "n=" << n;
}

TEST_P(Fft1DLengths, InverseMatchesDirectDft) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 200 + n);
  std::vector<cplx> want(n);
  dft_direct_inverse(x, want);

  std::vector<cplx> got = x;
  Fft1D plan(n);
  plan.inverse(got);
  EXPECT_LT(max_err(got, want), 1e-9 * static_cast<double>(n)) << "n=" << n;
}

TEST_P(Fft1DLengths, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 300 + n);
  std::vector<cplx> y = x;
  Fft1D plan(n);
  FftWorkspace ws;
  plan.forward(y, ws);
  plan.inverse(y, ws);
  EXPECT_LT(max_err(y, x), 1e-10 * static_cast<double>(n)) << "n=" << n;
}

TEST_P(Fft1DLengths, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, 400 + n);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  Fft1D plan(n);
  plan.forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(AllLengths, Fft1DLengths,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 30,
                                           32, 64, 100, 128, 243, 256, 1000,
                                           1024));

// --- Transform properties -------------------------------------------------

TEST(Fft1D, LinearityProperty) {
  const std::size_t n = 64;
  const auto x = random_signal(n, 1);
  const auto y = random_signal(n, 2);
  const cplx a{1.5, -0.5};
  const cplx b{-2.0, 0.25};

  Fft1D plan(n);
  std::vector<cplx> combo(n), fx = x, fy = y;
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + b * y[i];
  plan.forward(combo);
  plan.forward(fx);
  plan.forward(fy);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(combo[i] - (a * fx[i] + b * fy[i])), 1e-10);
  }
}

TEST(Fft1D, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 32;
  std::vector<cplx> x(n, cplx{0.0, 0.0});
  x[0] = cplx{1.0, 0.0};
  Fft1D plan(n);
  plan.forward(x);
  for (const auto& v : x) EXPECT_LT(std::abs(v - cplx{1.0, 0.0}), 1e-12);
}

TEST(Fft1D, ShiftTheorem) {
  const std::size_t n = 64;
  const std::size_t shift = 5;
  const auto x = random_signal(n, 77);
  std::vector<cplx> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[(i + shift) % n] = x[i];

  Fft1D plan(n);
  std::vector<cplx> fx = x, fs = shifted;
  plan.forward(fx);
  plan.forward(fs);
  for (std::size_t k = 0; k < n; ++k) {
    const double phase = -2.0 * std::numbers::pi *
                         static_cast<double>(k * shift % n) / static_cast<double>(n);
    EXPECT_LT(std::abs(fs[k] - fx[k] * std::polar(1.0, phase)), 1e-9);
  }
}

TEST(Fft1D, WrongBufferSizeThrows) {
  Fft1D plan(16);
  std::vector<cplx> bad(15);
  EXPECT_THROW(plan.forward(bad), InvalidArgument);
}

TEST(Fft1D, StridedMatchesContiguous) {
  const std::size_t n = 32;
  const std::size_t pencils = 5;
  const std::size_t stride = 7;
  // Layout: element i of pencil p at buf[p + i*stride*pencils]? Use
  // elem_stride = pencils (interleaved pencils), pencil_stride = 1.
  std::vector<cplx> interleaved(n * pencils);
  std::vector<std::vector<cplx>> separate(pencils);
  SplitMix64 rng(5);
  for (std::size_t p = 0; p < pencils; ++p) {
    separate[p].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const cplx v{rng.uniform(-1, 1), rng.uniform(-1, 1)};
      separate[p][i] = v;
      interleaved[i * pencils + p] = v;
    }
  }
  (void)stride;
  Fft1D plan(n);
  FftWorkspace ws;
  plan.forward_strided(interleaved.data(), pencils, 1, pencils, ws);
  for (std::size_t p = 0; p < pencils; ++p) {
    plan.forward(separate[p], ws);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(interleaved[i * pencils + p] - separate[p][i]), 1e-10);
    }
  }
}

TEST(Fft1D, InverseStridedRoundTrip) {
  const std::size_t n = 16;
  const std::size_t pencils = 3;
  auto data = random_signal(n * pencils, 9);
  const auto orig = data;
  Fft1D plan(n);
  FftWorkspace ws;
  plan.forward_strided(data.data(), pencils, 1, pencils, ws);
  plan.inverse_strided(data.data(), pencils, 1, pencils, ws);
  EXPECT_LT(max_err(data, orig), 1e-10);
}

// --- Real transforms -------------------------------------------------------

class RealFftLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftLengths, ForwardMatchesComplexDft) {
  const std::size_t n = GetParam();
  SplitMix64 rng(n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  std::vector<cplx> full(n), want(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = cplx{x[i], 0.0};
  dft_direct_forward(full, want);

  RealFft1D plan(n);
  FftWorkspace ws;
  std::vector<cplx> got(plan.spectrum_size());
  plan.forward(x, got, ws);
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_LT(std::abs(got[k] - want[k]), 1e-9) << "n=" << n << " k=" << k;
  }
}

TEST_P(RealFftLengths, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  SplitMix64 rng(n * 3 + 1);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  RealFft1D plan(n);
  FftWorkspace ws;
  std::vector<cplx> spec(plan.spectrum_size());
  std::vector<double> back(n);
  plan.forward(x, spec, ws);
  plan.inverse(spec, back, ws);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RealLengths, RealFftLengths,
                         ::testing::Values(2, 3, 4, 6, 8, 9, 16, 15, 32, 64,
                                           100, 128, 256));

TEST(RealFft, HermitianEdgeBinsAreReal) {
  const std::size_t n = 64;
  SplitMix64 rng(1234);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  RealFft1D plan(n);
  FftWorkspace ws;
  std::vector<cplx> spec(plan.spectrum_size());
  plan.forward(x, spec, ws);
  EXPECT_NEAR(spec[0].imag(), 0.0, 1e-12);
  EXPECT_NEAR(spec[n / 2].imag(), 0.0, 1e-12);
}

// --- Input-pruned transform -------------------------------------------------

TEST(Pruned, InputPrunedMatchesPaddedTransform) {
  const std::size_t n = 128;
  const std::size_t k = 16;
  const std::size_t offset = 40;
  const auto chunk = random_signal(k, 55);

  std::vector<cplx> padded(n, cplx{0.0, 0.0});
  std::copy(chunk.begin(), chunk.end(), padded.begin() + offset);
  Fft1D plan(n);
  FftWorkspace ws;
  std::vector<cplx> want = padded;
  plan.forward(want, ws);

  std::vector<cplx> got(n);
  input_pruned_forward(plan, chunk, offset, got, ws);
  EXPECT_LT(max_err(got, want), 1e-12);
}

TEST(Pruned, InputPrunedRejectsOverflow) {
  Fft1D plan(16);
  FftWorkspace ws;
  std::vector<cplx> chunk(8), out(16);
  EXPECT_THROW(input_pruned_forward(plan, chunk, 10, out, ws), InvalidArgument);
}

}  // namespace
}  // namespace lc::fft
