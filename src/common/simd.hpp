// Portable double-precision SIMD wrapper for the FFT compute engine.
//
// One vector type `Vd` of `kLanes` doubles with the handful of operations
// the batched butterflies need: load/store, broadcast, +, -, *, and fused
// multiply-add/subtract. Backend is chosen at configure time:
//
//   - AVX2 + FMA (x86):  4 lanes  (enabled when the compiler sets __AVX2__,
//                                   e.g. via -march=native; see LC_SIMD in
//                                   the top-level CMakeLists)
//   - NEON (aarch64):    2 lanes
//   - scalar fallback:   1 lane   (forced with -DLC_SIMD_SCALAR=1, cmake
//                                   -DLC_SIMD=off; also the default when no
//                                   vector ISA is detected)
//
// The batch-major FFT path keeps real and imaginary planes separate (SoA),
// so complex arithmetic is plain mul/fma on independent vectors and no
// backend needs shuffle or permute support. The only interleaved-complex
// helper is `complex_mul_inplace`, used by the spectral pointwise multiply.
#pragma once

#include <bit>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(LC_SIMD_SCALAR) && defined(__AVX2__) && defined(__FMA__)
#define LC_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(LC_SIMD_SCALAR) && defined(__ARM_NEON)
#define LC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace lc::simd {

#if defined(LC_SIMD_AVX2)

inline constexpr std::size_t kLanes = 4;
inline constexpr const char* kBackend = "avx2";

using Vd = __m256d;

inline Vd load(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void store(double* p, Vd v) noexcept { _mm256_storeu_pd(p, v); }
inline Vd broadcast(double x) noexcept { return _mm256_set1_pd(x); }
inline Vd add(Vd a, Vd b) noexcept { return _mm256_add_pd(a, b); }
inline Vd sub(Vd a, Vd b) noexcept { return _mm256_sub_pd(a, b); }
inline Vd mul(Vd a, Vd b) noexcept { return _mm256_mul_pd(a, b); }
/// a*b + c
inline Vd fmadd(Vd a, Vd b, Vd c) noexcept { return _mm256_fmadd_pd(a, b, c); }
/// a*b - c
inline Vd fmsub(Vd a, Vd b, Vd c) noexcept { return _mm256_fmsub_pd(a, b, c); }

#elif defined(LC_SIMD_NEON)

inline constexpr std::size_t kLanes = 2;
inline constexpr const char* kBackend = "neon";

using Vd = float64x2_t;

inline Vd load(const double* p) noexcept { return vld1q_f64(p); }
inline void store(double* p, Vd v) noexcept { vst1q_f64(p, v); }
inline Vd broadcast(double x) noexcept { return vdupq_n_f64(x); }
inline Vd add(Vd a, Vd b) noexcept { return vaddq_f64(a, b); }
inline Vd sub(Vd a, Vd b) noexcept { return vsubq_f64(a, b); }
inline Vd mul(Vd a, Vd b) noexcept { return vmulq_f64(a, b); }
inline Vd fmadd(Vd a, Vd b, Vd c) noexcept { return vfmaq_f64(c, a, b); }
inline Vd fmsub(Vd a, Vd b, Vd c) noexcept {
  return vnegq_f64(vfmsq_f64(c, a, b));  // -(c - a*b) = a*b - c
}

#else

inline constexpr std::size_t kLanes = 1;
inline constexpr const char* kBackend = "scalar";

using Vd = double;

inline Vd load(const double* p) noexcept { return *p; }
inline void store(double* p, Vd v) noexcept { *p = v; }
inline Vd broadcast(double x) noexcept { return x; }
inline Vd add(Vd a, Vd b) noexcept { return a + b; }
inline Vd sub(Vd a, Vd b) noexcept { return a - b; }
inline Vd mul(Vd a, Vd b) noexcept { return a * b; }
inline Vd fmadd(Vd a, Vd b, Vd c) noexcept { return a * b + c; }
inline Vd fmsub(Vd a, Vd b, Vd c) noexcept { return a * b - c; }

#endif

/// dst[i] = w * src[i] for i in [0, n): first term of a weighted row sum.
inline void row_scale(double* dst, const double* src, double w,
                      std::size_t n) noexcept {
  const Vd vw = broadcast(w);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) store(dst + i, mul(vw, load(src + i)));
  for (; i < n; ++i) dst[i] = w * src[i];
}

/// dst[i] += w * src[i] for i in [0, n): the row-interpolation axpy.
inline void row_axpy(double* dst, const double* src, double w,
                     std::size_t n) noexcept {
  const Vd vw = broadcast(w);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    store(dst + i, fmadd(vw, load(src + i), load(dst + i)));
  }
  for (; i < n; ++i) dst[i] += w * src[i];
}

/// dst[i] += w0[i]*c0 + w1[i]*c1 + w2[i]*c2 + w3[i]*c3 for i in [0, n):
/// the per-phase x-row kernel of separable interpolation — four broadcast
/// stencil values against four per-point weight lanes.
inline void row_weighted4_add(double* dst, const double* w0, const double* w1,
                              const double* w2, const double* w3, double c0,
                              double c1, double c2, double c3,
                              std::size_t n) noexcept {
  const Vd v0 = broadcast(c0);
  const Vd v1 = broadcast(c1);
  const Vd v2 = broadcast(c2);
  const Vd v3 = broadcast(c3);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Vd acc = load(dst + i);
    acc = fmadd(load(w0 + i), v0, acc);
    acc = fmadd(load(w1 + i), v1, acc);
    acc = fmadd(load(w2 + i), v2, acc);
    acc = fmadd(load(w3 + i), v3, acc);
    store(dst + i, acc);
  }
  for (; i < n; ++i) {
    dst[i] += w0[i] * c0 + w1[i] * c1 + w2[i] * c2 + w3[i] * c3;
  }
}

/// Two-tap variant of row_weighted4_add: dst[i] += w1[i]·c1 + w2[i]·c2.
/// The linear-interpolation fast path — taps 0 and 3 of a trilinear
/// stencil are identically zero, so skipping them halves the fmadds.
inline void row_weighted2_add(double* dst, const double* w1, const double* w2,
                              double c1, double c2, std::size_t n) noexcept {
  const Vd v1 = broadcast(c1);
  const Vd v2 = broadcast(c2);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Vd acc = load(dst + i);
    acc = fmadd(load(w1 + i), v1, acc);
    acc = fmadd(load(w2 + i), v2, acc);
    store(dst + i, acc);
  }
  for (; i < n; ++i) {
    dst[i] += w1[i] * c1 + w2[i] * c2;
  }
}

/// dst[i] += a + (b - a)·t[i]: one linear-interpolation row with broadcast
/// endpoints and a per-point fraction lane (the single-interval-cell fast
/// path of octree reconstruction).
inline void row_lerp_add(double* dst, const double* t, double a, double b,
                         std::size_t n) noexcept {
  const Vd va = broadcast(a);
  const Vd vd = broadcast(b - a);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    store(dst + i, add(load(dst + i), fmadd(vd, load(t + i), va)));
  }
  const double d = b - a;
  for (; i < n; ++i) dst[i] += a + d * t[i];
}

/// Pointwise in-place complex multiply on interleaved storage:
/// a[i] *= b[i] for i in [0, n). The vector path multiplies kLanes/2
/// complex values per step without deinterleaving (dup-even / dup-odd +
/// fmaddsub); the tail and the scalar backend use plain complex math.
inline void complex_mul_inplace(std::complex<double>* a,
                                const std::complex<double>* b,
                                std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(LC_SIMD_AVX2)
  auto* pa = reinterpret_cast<double*>(a);
  const auto* pb = reinterpret_cast<const double*>(b);
  for (; i + 2 <= n; i += 2) {
    const __m256d va = _mm256_loadu_pd(pa + 2 * i);
    const __m256d vb = _mm256_loadu_pd(pb + 2 * i);
    const __m256d br = _mm256_movedup_pd(vb);          // [b0r b0r b1r b1r]
    const __m256d bi = _mm256_permute_pd(vb, 0xF);     // [b0i b0i b1i b1i]
    const __m256d as = _mm256_permute_pd(va, 0x5);     // [a0i a0r a1i a1r]
    // even lanes: ar*br - ai*bi; odd lanes: ai*br + ar*bi
    _mm256_storeu_pd(pa + 2 * i,
                     _mm256_fmaddsub_pd(va, br, _mm256_mul_pd(as, bi)));
  }
#endif
  for (; i < n; ++i) a[i] *= b[i];
}

// ---------------------------------------------------------------------------
// Narrow-precision row conversions for the exchange wire codec
// (comm/wire_codec.hpp, DESIGN.md §17). The scalar bit algorithms below are
// the ground truth; the AVX2 fast paths are property-tested bit-equal
// against them (tests/test_wire_codec.cpp), and the LC_SIMD=off build runs
// the scalar forms exclusively. NaN payloads are not supported by the wire
// formats (fields are finite by construction); conversions assume finite
// inputs.

/// bfloat16 bits of `f` (top 16 bits of the float, round-to-nearest-even).
[[nodiscard]] inline std::uint16_t f32_to_bf16_bits(float f) noexcept {
  std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(bits >> 16);
}

/// Exact widening of bfloat16 bits.
[[nodiscard]] inline float bf16_bits_to_f32(std::uint16_t h) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(h) << 16);
}

// Scalar reference forms — always compiled, dispatch targets under
// LC_SIMD=off, and the bit-equality oracle for the vector paths.

inline void row_f64_to_f32_scalar(float* dst, const double* src,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
}

inline void row_f32_to_f64_scalar(double* dst, const float* src,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

inline void row_f64_to_bf16_scalar(std::uint16_t* dst, const double* src,
                                   std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = f32_to_bf16_bits(static_cast<float>(src[i]));
  }
}

inline void row_bf16_to_f64_scalar(double* dst, const std::uint16_t* src,
                                   std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<double>(bf16_bits_to_f32(src[i]));
  }
}

[[nodiscard]] inline double row_max_abs_scalar(const double* src,
                                               std::size_t n) noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = src[i] < 0.0 ? -src[i] : src[i];
    if (a > m) m = a;
  }
  return m;
}

// Dispatching row forms: AVX2 fast paths with the scalar reference as tail
// and fallback. f64↔f32 conversions are IEEE-exact in both paths; the bf16
// paths are bit-equal by the property tests.

/// dst[i] = (float)src[i] (round-to-nearest-even narrowing).
inline void row_f64_to_f32(float* dst, const double* src,
                           std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(LC_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm256_cvtpd_ps(_mm256_loadu_pd(src + i)));
  }
#endif
  row_f64_to_f32_scalar(dst + i, src + i, n - i);
}

/// dst[i] = (double)src[i] (exact widening).
inline void row_f32_to_f64(double* dst, const float* src,
                           std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(LC_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, _mm256_cvtps_pd(_mm_loadu_ps(src + i)));
  }
#endif
  row_f32_to_f64_scalar(dst + i, src + i, n - i);
}

/// dst[i] = bfloat16 bits of (float)src[i], RNE (integer twiddle — the
/// vector and scalar paths are bit-identical by construction).
inline void row_f64_to_bf16(std::uint16_t* dst, const double* src,
                            std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(LC_SIMD_AVX2)
  const __m128i bias = _mm_set1_epi32(0x7FFF);
  const __m128i one = _mm_set1_epi32(1);
  for (; i + 4 <= n; i += 4) {
    const __m128i b =
        _mm_castps_si128(_mm256_cvtpd_ps(_mm256_loadu_pd(src + i)));
    const __m128i lsb = _mm_and_si128(_mm_srli_epi32(b, 16), one);
    const __m128i r =
        _mm_srli_epi32(_mm_add_epi32(b, _mm_add_epi32(bias, lsb)), 16);
    const __m128i packed = _mm_packus_epi32(r, r);  // 4 × u16 in the low half
    std::memcpy(dst + i, &packed, 4 * sizeof(std::uint16_t));
  }
#endif
  row_f64_to_bf16_scalar(dst + i, src + i, n - i);
}

/// dst[i] = (double) value of bfloat16 bits src[i] (exact widening).
inline void row_bf16_to_f64(double* dst, const std::uint16_t* src,
                            std::size_t n) noexcept {
  std::size_t i = 0;
#if defined(LC_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    __m128i h = _mm_setzero_si128();
    std::memcpy(&h, src + i, 4 * sizeof(std::uint16_t));
    const __m128i w = _mm_slli_epi32(_mm_cvtepu16_epi32(h), 16);
    _mm256_storeu_pd(dst + i, _mm256_cvtps_pd(_mm_castsi128_ps(w)));
  }
#endif
  row_bf16_to_f64_scalar(dst + i, src + i, n - i);
}

/// max_i |src[i]| (0 for an empty row) — the per-cell block scale of the
/// q16 wire codec. Max is exact, so the vector path equals the scalar one.
[[nodiscard]] inline double row_max_abs(const double* src,
                                        std::size_t n) noexcept {
  std::size_t i = 0;
  double m = 0.0;
#if defined(LC_SIMD_AVX2)
  if (n >= 4) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d acc = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      acc = _mm256_max_pd(acc, _mm256_andnot_pd(sign, _mm256_loadu_pd(src + i)));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    m = lanes[0];
    for (int l = 1; l < 4; ++l) {
      if (lanes[l] > m) m = lanes[l];
    }
  }
#endif
  const double tail = row_max_abs_scalar(src + i, n - i);
  return tail > m ? tail : m;
}

}  // namespace lc::simd
