// Wire codec tests (DESIGN.md §17): spelling parsing, per-codec
// round-trip error bounds against the analytic models, bit-exactness of the
// off codec's framing, SIMD-vs-scalar bit equality of the conversion rows,
// and the header-free framing contract (finish() checks on both ends).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "comm/wire_codec.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "sampling/compressed_field.hpp"
#include "sampling/octree.hpp"

namespace lc::comm {
namespace {

std::vector<double> random_samples(std::size_t n, std::uint64_t seed,
                                   double lo = -1.0, double hi = 1.0) {
  std::vector<double> v(n);
  SplitMix64 rng(seed);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Encode `cells` (each a span of samples) under `codec`, decode them back,
/// return the decoded cells. Checks framing invariants along the way.
std::vector<std::vector<double>> round_trip(
    WireCodec codec, const std::vector<std::vector<double>>& cells) {
  std::vector<double> wire;
  WireEncoder enc(codec, wire);
  std::size_t want_bytes = 0;
  for (const auto& c : cells) {
    enc.add_cell(c);
    want_bytes += encoded_cell_bytes(codec, c.size());
  }
  const std::size_t bytes = enc.finish();
  EXPECT_EQ(bytes, want_bytes);
  EXPECT_EQ(enc.encoded_bytes(), want_bytes);
  EXPECT_EQ(wire.size(), wire_doubles(want_bytes));

  WireDecoder dec(codec, wire);
  std::vector<std::vector<double>> out;
  for (const auto& c : cells) {
    out.emplace_back(c.size());
    dec.read_cell(out.back());
  }
  dec.finish();
  EXPECT_EQ(dec.consumed_bytes(), want_bytes);
  return out;
}

TEST(WireCodec, SpellingsRoundTripAndBadValueThrows) {
  for (const WireCodec codec : kAllWireCodecs) {
    EXPECT_EQ(parse_wire_codec(codec_name(codec)), codec);
  }
  try {
    (void)parse_wire_codec("fp8");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    // The error must quote the bad value and the accepted spellings so a
    // typo is diagnosable from the message alone.
    EXPECT_NE(std::string(e.what()).find("fp8"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("q16"), std::string::npos);
  }
}

TEST(WireCodec, SizeArithmetic) {
  EXPECT_EQ(codec_sample_bytes(WireCodec::kOff), 8u);
  EXPECT_EQ(codec_sample_bytes(WireCodec::kFp32), 4u);
  EXPECT_EQ(codec_sample_bytes(WireCodec::kFp16), 2u);
  EXPECT_EQ(codec_sample_bytes(WireCodec::kBf16), 2u);
  EXPECT_EQ(codec_sample_bytes(WireCodec::kQ16), 2u);
  EXPECT_EQ(codec_cell_header_bytes(WireCodec::kQ16), 8u);
  EXPECT_EQ(codec_cell_header_bytes(WireCodec::kBf16), 0u);
  EXPECT_EQ(encoded_cell_bytes(WireCodec::kQ16, 27), 8u + 54u);
  EXPECT_EQ(wire_doubles(0), 0u);
  EXPECT_EQ(wire_doubles(1), 1u);
  EXPECT_EQ(wire_doubles(8), 1u);
  EXPECT_EQ(wire_doubles(9), 2u);
}

TEST(WireCodec, OffIsBitExactPassthrough) {
  // The off codec's wire buffer must be byte-identical to the raw samples —
  // the structural guarantee that the off codec reproduces the pre-codec wire
  // format bit for bit.
  const auto cell_a = random_samples(125, 1);
  const auto cell_b = random_samples(27, 2);
  std::vector<double> wire;
  WireEncoder enc(WireCodec::kOff, wire);
  enc.add_cell(cell_a);
  enc.add_cell(cell_b);
  EXPECT_EQ(enc.finish(), (125u + 27u) * 8u);
  EXPECT_EQ(enc.max_abs_error(), 0.0);
  ASSERT_EQ(wire.size(), 152u);
  EXPECT_EQ(std::memcmp(wire.data(), cell_a.data(), cell_a.size() * 8), 0);
  EXPECT_EQ(std::memcmp(wire.data() + cell_a.size(), cell_b.data(),
                        cell_b.size() * 8),
            0);
}

TEST(WireCodec, Fp32RoundTripWithinMantissaBound) {
  const auto cells = std::vector<std::vector<double>>{
      random_samples(129, 3, -100.0, 100.0), random_samples(1, 4)};
  const auto out = round_trip(WireCodec::kFp32, cells);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (std::size_t i = 0; i < cells[c].size(); ++i) {
      const double x = cells[c][i];
      // Round-to-nearest float: |err| <= |x| * 2^-24.
      EXPECT_LE(std::abs(out[c][i] - x), std::abs(x) * 0x1p-24 + 1e-300)
          << "cell " << c << " sample " << i;
    }
  }
}

TEST(WireCodec, Fp16RoundTripWithinMantissaBoundAndClampsRange) {
  const auto cells = std::vector<std::vector<double>>{
      random_samples(200, 5, -10.0, 10.0)};
  const auto out = round_trip(WireCodec::kFp16, cells);
  for (std::size_t i = 0; i < cells[0].size(); ++i) {
    const double x = cells[0][i];
    // binary16 RNE: |err| <= |x| * 2^-11 for normals; subnormals bottom out
    // at the fixed quantum 2^-25.
    EXPECT_LE(std::abs(out[0][i] - x), std::abs(x) * 0x1p-11 + 0x1p-25)
        << "sample " << i;
  }
  // Out-of-range magnitudes saturate at ±65504 instead of overflowing.
  const std::vector<std::vector<double>> big{{1e9, -1e9, 7e4, -7e4}};
  const auto clamped = round_trip(WireCodec::kFp16, big);
  EXPECT_EQ(clamped[0][0], simd::kF16Max);
  EXPECT_EQ(clamped[0][1], -simd::kF16Max);
  EXPECT_EQ(clamped[0][2], simd::kF16Max);
  EXPECT_EQ(clamped[0][3], -simd::kF16Max);
}

TEST(WireCodec, Bf16RoundTripWithinMantissaBound) {
  const auto cells = std::vector<std::vector<double>>{
      random_samples(200, 6, -1e6, 1e6)};
  const auto out = round_trip(WireCodec::kBf16, cells);
  for (std::size_t i = 0; i < cells[0].size(); ++i) {
    const double x = cells[0][i];
    // bfloat16 RNE: 8-bit mantissa, |err| <= |x| * 2^-8 (float range, no
    // clamping needed for these magnitudes).
    EXPECT_LE(std::abs(out[0][i] - x), std::abs(x) * 0x1p-8 + 1e-300)
        << "sample " << i;
  }
}

TEST(WireCodec, Q16RoundTripWithinBlockScaleBound) {
  // Per-cell bound: |decoded - x| <= cell_max_abs / 65534. Cells with very
  // different dynamic ranges must each get their own scale.
  const auto cells = std::vector<std::vector<double>>{
      random_samples(125, 7, -1.0, 1.0), random_samples(64, 8, -1e-6, 1e-6),
      random_samples(27, 9, -1e4, 1e4)};
  std::vector<double> wire;
  WireEncoder enc(WireCodec::kQ16, wire);
  for (const auto& c : cells) enc.add_cell(c);
  enc.finish();

  WireDecoder dec(WireCodec::kQ16, wire);
  double tracked_max = 0.0;
  for (const auto& c : cells) {
    double max_abs = 0.0;
    for (const double x : c) max_abs = std::max(max_abs, std::abs(x));
    const double bound = max_abs / 65534.0;
    std::vector<double> out(c.size());
    dec.read_cell(out);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const double err = std::abs(out[i] - c[i]);
      EXPECT_LE(err, bound * (1.0 + 1e-12)) << "sample " << i;
      tracked_max = std::max(tracked_max, err);
    }
  }
  dec.finish();
  // The encoder's error gauge must equal the actually realised max error.
  EXPECT_DOUBLE_EQ(enc.max_abs_error(), tracked_max);
}

TEST(WireCodec, Q16EncodesZerosAndConstantsExactly) {
  const std::vector<std::vector<double>> cells{
      std::vector<double>(64, 0.0), std::vector<double>(27, 3.25)};
  const auto out = round_trip(WireCodec::kQ16, cells);
  for (const double v : out[0]) EXPECT_EQ(v, 0.0);
  // A constant cell quantises to ±32767 exactly: scale * 32767 == max_abs.
  for (const double v : out[1]) EXPECT_DOUBLE_EQ(v, 3.25);
}

TEST(WireCodec, EncoderTracksMaxErrorAcrossCodecs) {
  for (const WireCodec codec : kAllWireCodecs) {
    const auto cell = random_samples(100, 11, -5.0, 5.0);
    std::vector<double> wire;
    WireEncoder enc(codec, wire);
    enc.add_cell(cell);
    enc.finish();
    WireDecoder dec(codec, wire);
    std::vector<double> out(cell.size());
    dec.read_cell(out);
    double realised = 0.0;
    for (std::size_t i = 0; i < cell.size(); ++i) {
      realised = std::max(realised, std::abs(out[i] - cell[i]));
    }
    EXPECT_DOUBLE_EQ(enc.max_abs_error(), realised)
        << "codec " << codec_name(codec);
    if (codec == WireCodec::kOff) {
      EXPECT_EQ(realised, 0.0);
    }
  }
}

TEST(WireCodec, FramingViolationsThrow) {
  std::vector<double> nonempty{1.0};
  EXPECT_THROW(WireEncoder(WireCodec::kOff, nonempty), InvalidArgument);

  // Decoder must consume the bundle exactly: reading too little (finish)
  // or too much (read_cell past the end) both throw.
  const auto cell = random_samples(10, 12);
  std::vector<double> wire;
  WireEncoder enc(WireCodec::kFp32, wire);
  enc.add_cell(cell);
  enc.finish();
  {
    // Under-read past the padding tolerance (framing is checked at wire-
    // double granularity — one fp32 sample short still lands in the final
    // padded double, two fall a whole double short).
    WireDecoder dec(WireCodec::kFp32, wire);
    std::vector<double> out(cell.size() - 2);
    dec.read_cell(out);
    EXPECT_THROW(dec.finish(), Error);
  }
  {
    WireDecoder dec(WireCodec::kFp32, wire);
    std::vector<double> out(cell.size() + 4);
    EXPECT_THROW(dec.read_cell(out), Error);
  }
}

TEST(WireCodec, VectorRowsBitEqualScalarReference) {
  // The dispatching rows must produce bit-identical results to the scalar
  // reference algorithms on every input class (normals, subnormal-bound
  // tinies, huge values, zeros, mixed signs) — determinism across machines
  // rides on this.
  std::vector<double> src = random_samples(1003, 13, -1.0, 1.0);
  const auto more = random_samples(64, 14, -1e9, 1e9);
  src.insert(src.end(), more.begin(), more.end());
  src.push_back(0.0);
  src.push_back(-0.0);
  src.push_back(1e-8);
  src.push_back(-3e-5);
  src.push_back(65504.0);
  src.push_back(-65505.0);
  src.push_back(6.1e-5);  // near the binary16 subnormal boundary
  src.push_back(5.9e-8);  // below the binary16 underflow threshold
  const std::size_t n = src.size();

  std::vector<float> f_vec(n), f_ref(n);
  simd::row_f64_to_f32(f_vec.data(), src.data(), n);
  simd::row_f64_to_f32_scalar(f_ref.data(), src.data(), n);
  EXPECT_EQ(std::memcmp(f_vec.data(), f_ref.data(), n * sizeof(float)), 0);

  std::vector<double> d_vec(n), d_ref(n);
  simd::row_f32_to_f64(d_vec.data(), f_vec.data(), n);
  simd::row_f32_to_f64_scalar(d_ref.data(), f_vec.data(), n);
  EXPECT_EQ(std::memcmp(d_vec.data(), d_ref.data(), n * sizeof(double)), 0);

  std::vector<std::uint16_t> h_vec(n), h_ref(n);
  simd::row_f64_to_f16(h_vec.data(), src.data(), n);
  simd::row_f64_to_f16_scalar(h_ref.data(), src.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(h_vec[i], h_ref[i]) << "f16 encode at " << i << " x=" << src[i];
  }
  simd::row_f16_to_f64(d_vec.data(), h_vec.data(), n);
  simd::row_f16_to_f64_scalar(d_ref.data(), h_vec.data(), n);
  EXPECT_EQ(std::memcmp(d_vec.data(), d_ref.data(), n * sizeof(double)), 0);

  simd::row_f64_to_bf16(h_vec.data(), src.data(), n);
  simd::row_f64_to_bf16_scalar(h_ref.data(), src.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(h_vec[i], h_ref[i]) << "bf16 encode at " << i << " x=" << src[i];
  }
  simd::row_bf16_to_f64(d_vec.data(), h_vec.data(), n);
  simd::row_bf16_to_f64_scalar(d_ref.data(), h_vec.data(), n);
  EXPECT_EQ(std::memcmp(d_vec.data(), d_ref.data(), n * sizeof(double)), 0);

  EXPECT_EQ(simd::row_max_abs(src.data(), n),
            simd::row_max_abs_scalar(src.data(), n));
}

TEST(WireCodec, F16BitAlgorithmExhaustiveRoundTrip) {
  // Every finite binary16 pattern must survive f16 -> f32 -> f16 exactly
  // (the decode is injective and the encode rounds to nearest).
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    if ((h & 0x7C00u) == 0x7C00u) continue;  // inf/NaN: not produced on wire
    const float f = simd::f16_bits_to_f32(h);
    const std::uint16_t back = simd::f32_to_f16_bits(f);
    if ((h & 0x7FFFu) == 0 && (back & 0x7FFFu) == 0) continue;  // ±0 merge
    ASSERT_EQ(back, h) << "bits " << bits;
  }
}

TEST(WireCodec, CompressedFieldEncodedBytesMatchEncoder) {
  // CompressedField::encoded_sample_bytes must agree with what a WireEncoder
  // actually produces for the whole field, for every codec.
  const Grid3 g = Grid3::cube(32);
  const sampling::SamplingPolicy policy =
      sampling::SamplingPolicy::uniform(2, 0);
  const auto tree = std::make_shared<const sampling::Octree>(
      g, Box3::cube_at({0, 0, 0}, 16), policy);
  sampling::CompressedField field(tree);
  SplitMix64 rng(15);
  for (auto& v : field.samples()) v = rng.uniform(-1.0, 1.0);

  EXPECT_EQ(field.encoded_sample_bytes(WireCodec::kOff), field.sample_bytes());
  for (const WireCodec codec : kAllWireCodecs) {
    std::vector<double> wire;
    WireEncoder enc(codec, wire);
    const auto cells = field.octree().cells();
    for (const auto& cell : cells) {
      enc.add_cell(field.samples().subspan(cell.sample_offset,
                                           cell.sample_count()));
    }
    EXPECT_EQ(enc.finish(), field.encoded_sample_bytes(codec))
        << "codec " << codec_name(codec);
  }
}

TEST(WireCodec, FuzzedBundlesThrowOrDecodeInBounds) {
  // A real octree payload (banded policy: cells from one sample to whole
  // dense blocks, so per-cell byte counts and the padding tail vary) encoded
  // under every codec, then damaged. Framing comes from the octree alone, so
  // a bundle of the wrong length must throw Error, and a bit-flipped one of
  // the right length decodes to whatever the bits say without reading
  // outside the bundle (the asan-ubsan job runs this).
  const Grid3 g = Grid3::cube(32);
  const auto tree = std::make_shared<const sampling::Octree>(
      g, Box3::cube_at({8, 8, 8}, 8),
      sampling::SamplingPolicy::paper_default(8, 8));
  sampling::CompressedField field(tree);
  SplitMix64 rng(16);
  for (auto& v : field.samples()) v = rng.uniform(-1.0, 1.0);
  const auto cells = field.octree().cells();

  for (const WireCodec codec : kAllWireCodecs) {
    std::vector<double> wire;
    WireEncoder enc(codec, wire);
    for (const auto& cell : cells) {
      enc.add_cell(field.samples().subspan(cell.sample_offset,
                                           cell.sample_count()));
    }
    enc.finish();
    const auto decode = [&](std::span<const double> bundle) {
      sampling::CompressedField out(tree);
      WireDecoder dec(codec, bundle);
      for (const auto& cell : cells) {
        dec.read_cell(out.samples().subspan(cell.sample_offset,
                                            cell.sample_count()));
      }
      dec.finish();
    };
    ASSERT_NO_THROW(decode(wire)) << codec_name(codec);

    std::vector<std::size_t> lengths = {0, 1, wire.size() / 2,
                                        wire.size() - 1};
    for (int i = 0; i < 32; ++i) lengths.push_back(rng.below(wire.size()));
    for (const std::size_t len : lengths) {
      // A copy of exactly `len` doubles, so a sanitizer sees any overread.
      const std::vector<double> truncated(wire.begin(),
                                          wire.begin() + static_cast<
                                              std::ptrdiff_t>(len));
      EXPECT_THROW(decode(truncated), Error)
          << codec_name(codec) << " truncated to " << len;
    }
    for (std::size_t extra = 1; extra <= 3; ++extra) {
      std::vector<double> longer = wire;
      for (std::size_t i = 0; i < extra; ++i) longer.push_back(rng.uniform());
      EXPECT_THROW(decode(longer), Error)
          << codec_name(codec) << " with " << extra << " extra doubles";
    }
    for (int trial = 0; trial < 64; ++trial) {
      std::vector<double> flipped = wire;
      for (int f = 0; f < 1 + trial % 4; ++f) {
        std::uint64_t bits;
        const std::size_t at = rng.below(flipped.size());
        std::memcpy(&bits, &flipped[at], sizeof(bits));
        bits ^= std::uint64_t{1} << rng.below(64);
        std::memcpy(&flipped[at], &bits, sizeof(bits));
      }
      EXPECT_NO_THROW(decode(flipped)) << codec_name(codec) << " trial "
                                       << trial;
    }
  }
}

}  // namespace
}  // namespace lc::comm
