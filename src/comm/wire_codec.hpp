// Wire codec for the octree exchange payloads (DESIGN.md §17).
//
// The exchange ships far-field samples the octree already downsampled
// aggressively, so the per-element representation is the last untapped
// 2–4× of wire volume. Four formats, selected per run by
// core::LowCommParams::wire (the planner searches it as a plan dimension):
//
//   off   fp64 passthrough — bit-exact, the pre-codec wire format
//   fp32  4 B/sample, round-to-nearest narrowing
//   bf16  2 B/sample bfloat16 (float range, 8-bit mantissa)
//   q16   2 B/sample block-scaled int16: one fp64 max-abs scale per octree
//         cell (8 B header), samples quantised to scale·[-32767, 32767].
//         Error-bounded: |decoded − x| ≤ cell_max_abs / 65534 per sample.
//
// Framing stays header-free: both sides derive every bundle's size from the
// deterministic octrees (encoded_cell_bytes summed over the packed cells,
// rounded up to whole wire doubles), so no metadata crosses the wire and
// the static traffic mirror (core::lowcomm_exchange_traffic) stays
// byte-exact against executed CommStats under every codec.
//
// The wire unit of SimCluster is std::vector<double>; encoded streams are
// byte-packed into ceil(bytes / 8) doubles with deterministic zero padding,
// which makes the `off` codec a plain memcpy of the samples — buffers are
// bit-identical to the pre-codec format by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lc::comm {

/// Payload representation of the sample exchange.
enum class WireCodec : std::uint8_t { kOff, kFp32, kBf16, kQ16 };

/// All codecs, in spelling order (sweep helper for benches/tests).
inline constexpr WireCodec kAllWireCodecs[] = {
    WireCodec::kOff, WireCodec::kFp32, WireCodec::kBf16, WireCodec::kQ16};

/// Canonical spelling ("off", "fp32", "bf16", "q16").
[[nodiscard]] const char* codec_name(WireCodec codec) noexcept;

/// Encoded bytes per sample (8, 4, 2, 2).
[[nodiscard]] constexpr std::size_t codec_sample_bytes(
    WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::kOff:
      return 8;
    case WireCodec::kFp32:
      return 4;
    case WireCodec::kBf16:
    case WireCodec::kQ16:
      return 2;
  }
  return 8;
}

/// Per-cell header bytes (the q16 block scale; 0 for the direct formats).
[[nodiscard]] constexpr std::size_t codec_cell_header_bytes(
    WireCodec codec) noexcept {
  return codec == WireCodec::kQ16 ? sizeof(double) : 0;
}

/// Encoded bytes of one octree cell holding `samples` values.
[[nodiscard]] constexpr std::size_t encoded_cell_bytes(
    WireCodec codec, std::size_t samples) noexcept {
  return codec_cell_header_bytes(codec) + samples * codec_sample_bytes(codec);
}

/// Wire doubles occupied by an encoded bundle of `bytes` bytes (SimCluster
/// ships vector<double>; bundles round up to whole doubles, zero-padded).
[[nodiscard]] constexpr std::size_t wire_doubles(std::size_t bytes) noexcept {
  return (bytes + sizeof(double) - 1) / sizeof(double);
}

/// Calibrated relative-error contribution of one codec round trip, the
/// planner's accuracy-screen term (added to the interpolation error model
/// and checked against PlanRequest::max_rel_error). Zero for exact fp64;
/// the lossy values carry a safety margin over the per-sample mantissa
/// bound, matching the measured end-to-end L2 table in README.md.
[[nodiscard]] constexpr double codec_rel_error(WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::kOff:
      return 0.0;
    case WireCodec::kFp32:
      return 1e-7;  // 2^-24 mantissa rounding
    case WireCodec::kBf16:
      return 5e-3;  // 2^-8 mantissa
    case WireCodec::kQ16:
      return 1e-3;  // ≤ cell max-abs / 65534 per sample
  }
  return 0.0;
}

/// Streaming encoder: cells in, byte-packed wire doubles out. One encoder
/// per destination bundle; cells append in the deterministic mask order the
/// decoder replays. finish() zero-pads to the wire-double boundary and
/// returns the encoded byte count (pre-padding).
class WireEncoder {
 public:
  /// Appends into `out` (which must start empty).
  WireEncoder(WireCodec codec, std::vector<double>& out);

  /// Encode one cell's samples (q16 derives and stores the block scale).
  void add_cell(std::span<const double> samples);

  /// Byte-exact passthrough: append one cell exactly as another encoder of
  /// the same codec wrote it (the bytes WireDecoder::read_encoded_cell
  /// returns), so forwarding a cell never re-quantises it.
  void add_encoded_cell(std::span<const unsigned char> encoded);

  /// Pad to a whole number of wire doubles; returns encoded bytes.
  std::size_t finish();

  [[nodiscard]] std::size_t raw_bytes() const noexcept { return raw_bytes_; }
  [[nodiscard]] std::size_t encoded_bytes() const noexcept { return bytes_; }
  /// Largest |decoded − original| over every sample encoded so far (0 for
  /// the off codec) — feeds the exchange.max_quant_error gauge.
  [[nodiscard]] double max_abs_error() const noexcept { return max_error_; }

 private:
  void append(const void* src, std::size_t bytes);

  WireCodec codec_;
  std::vector<double>& out_;
  std::size_t bytes_ = 0;
  std::size_t raw_bytes_ = 0;
  double max_error_ = 0.0;
  std::vector<std::uint16_t> scratch16_;
  std::vector<float> scratch32_;
  std::vector<std::int16_t> scratchq_;
  std::vector<double> scratchd_;
};

/// Streaming decoder over one received bundle. Cells must be read in the
/// exact order (and with the exact sample counts) they were encoded; both
/// sides derive that order from the deterministic octrees. finish() checks
/// the bundle was consumed exactly (padding short of one wire double).
class WireDecoder {
 public:
  WireDecoder(WireCodec codec, std::span<const double> wire);

  /// Decode the next cell into `out` (out.size() = the cell's sample count).
  void read_cell(std::span<double> out);

  /// Consume the next cell of `samples` values without decoding it: its
  /// encoded bytes, valid while the wire buffer lives.
  [[nodiscard]] std::span<const unsigned char> read_encoded_cell(
      std::size_t samples);

  /// Throws InternalError unless the bundle is fully consumed.
  void finish() const;

  [[nodiscard]] std::size_t consumed_bytes() const noexcept { return bytes_; }

 private:
  WireCodec codec_;
  const unsigned char* base_;
  std::size_t size_bytes_;
  std::size_t bytes_ = 0;
  // Encoded cells are memcpy-staged here before widening: the wire buffer's
  // underlying objects are doubles, so reading them through float/int16
  // views would violate aliasing rules.
  std::vector<std::uint16_t> scratch16_;
  std::vector<float> scratch32_;
  std::vector<std::int16_t> scratchq_;
};

}  // namespace lc::comm
