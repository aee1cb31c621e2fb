#include "comm/wire_codec.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/simd.hpp"

namespace lc::comm {

const char* codec_name(WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::kOff:
      return "off";
    case WireCodec::kFp32:
      return "fp32";
    case WireCodec::kBf16:
      return "bf16";
    case WireCodec::kQ16:
      return "q16";
  }
  return "off";
}

// ---------------------------------------------------------------------------

WireEncoder::WireEncoder(WireCodec codec, std::vector<double>& out)
    : codec_(codec), out_(out) {
  LC_CHECK_ARG(out_.empty(), "WireEncoder output buffer must start empty");
}

void WireEncoder::append(const void* src, std::size_t bytes) {
  const std::size_t need = wire_doubles(bytes_ + bytes);
  if (out_.size() < need) {
    if (out_.capacity() < need) {
      out_.reserve(std::max(need, out_.capacity() * 2));
    }
    out_.resize(need, 0.0);  // zero-fill → deterministic tail padding
  }
  std::memcpy(reinterpret_cast<unsigned char*>(out_.data()) + bytes_, src,
              bytes);
  bytes_ += bytes;
}

void WireEncoder::add_cell(std::span<const double> samples) {
  const std::size_t n = samples.size();
  raw_bytes_ += n * sizeof(double);
  switch (codec_) {
    case WireCodec::kOff:
      append(samples.data(), n * sizeof(double));
      return;
    case WireCodec::kFp32: {
      scratch32_.resize(n);
      simd::row_f64_to_f32(scratch32_.data(), samples.data(), n);
      scratchd_.resize(n);
      simd::row_f32_to_f64(scratchd_.data(), scratch32_.data(), n);
      append(scratch32_.data(), n * sizeof(float));
      break;
    }
    case WireCodec::kBf16: {
      scratch16_.resize(n);
      simd::row_f64_to_bf16(scratch16_.data(), samples.data(), n);
      scratchd_.resize(n);
      simd::row_bf16_to_f64(scratchd_.data(), scratch16_.data(), n);
      append(scratch16_.data(), n * sizeof(std::uint16_t));
      break;
    }
    case WireCodec::kQ16: {
      // Per-cell block scaling: one fp64 max-abs-derived scale, then int16
      // quantisation. Zero cells encode (scale 0, all-zero payload) and
      // decode exactly; otherwise |error| ≤ scale / 2 = max_abs / 65534.
      const double max_abs = simd::row_max_abs(samples.data(), n);
      const double scale = max_abs / 32767.0;
      append(&scale, sizeof(double));
      scratchq_.resize(n);
      scratchd_.resize(n);
      if (max_abs == 0.0) {
        std::memset(scratchq_.data(), 0, n * sizeof(std::int16_t));
        std::memset(scratchd_.data(), 0, n * sizeof(double));
      } else {
        const double inv = 32767.0 / max_abs;
        for (std::size_t i = 0; i < n; ++i) {
          long q = std::lrint(samples[i] * inv);
          q = q > 32767 ? 32767 : (q < -32767 ? -32767 : q);
          scratchq_[i] = static_cast<std::int16_t>(q);
          scratchd_[i] = static_cast<double>(q) * scale;
        }
      }
      append(scratchq_.data(), n * sizeof(std::int16_t));
      break;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::fabs(scratchd_[i] - samples[i]);
    if (err > max_error_) max_error_ = err;
  }
}

void WireEncoder::add_encoded_cell(std::span<const unsigned char> encoded) {
  append(encoded.data(), encoded.size());
}

std::size_t WireEncoder::finish() {
  const std::size_t need = wire_doubles(bytes_);
  if (out_.size() != need) out_.resize(need, 0.0);
  return bytes_;
}

// ---------------------------------------------------------------------------

WireDecoder::WireDecoder(WireCodec codec, std::span<const double> wire)
    : codec_(codec),
      base_(reinterpret_cast<const unsigned char*>(wire.data())),
      size_bytes_(wire.size() * sizeof(double)) {}

void WireDecoder::read_cell(std::span<double> out) {
  const std::size_t n = out.size();
  const std::size_t need = encoded_cell_bytes(codec_, n);
  LC_CHECK(bytes_ + need <= size_bytes_, "wire payload framing mismatch");
  const unsigned char* p = base_ + bytes_;
  switch (codec_) {
    case WireCodec::kOff:
      std::memcpy(out.data(), p, n * sizeof(double));
      break;
    case WireCodec::kFp32:
      scratch32_.resize(n);
      std::memcpy(scratch32_.data(), p, n * sizeof(float));
      simd::row_f32_to_f64(out.data(), scratch32_.data(), n);
      break;
    case WireCodec::kBf16:
      scratch16_.resize(n);
      std::memcpy(scratch16_.data(), p, n * sizeof(std::uint16_t));
      simd::row_bf16_to_f64(out.data(), scratch16_.data(), n);
      break;
    case WireCodec::kQ16: {
      double scale;
      std::memcpy(&scale, p, sizeof(double));
      scratchq_.resize(n);
      std::memcpy(scratchq_.data(), p + sizeof(double),
                  n * sizeof(std::int16_t));
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<double>(scratchq_[i]) * scale;
      }
      break;
    }
  }
  bytes_ += need;
}

std::span<const unsigned char> WireDecoder::read_encoded_cell(
    std::size_t samples) {
  const std::size_t need = encoded_cell_bytes(codec_, samples);
  LC_CHECK(bytes_ + need <= size_bytes_, "wire payload framing mismatch");
  const std::span<const unsigned char> cell(base_ + bytes_, need);
  bytes_ += need;
  return cell;
}

void WireDecoder::finish() const {
  // Every byte consumed except the zero padding short of one wire double.
  LC_CHECK(wire_doubles(bytes_) * sizeof(double) == size_bytes_,
           "wire payload not fully consumed: framing mismatch");
}

}  // namespace lc::comm
