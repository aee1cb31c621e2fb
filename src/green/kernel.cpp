#include "green/kernel.hpp"

#include "common/check.hpp"

namespace lc::green {

ComplexField KernelSpectrum::materialize(const Grid3& g) const {
  ComplexField out(g);
  for_each_point(Box3::of(g), [&](const Index3& p) { out(p) = eval(p, g); });
  return out;
}

ComplexField KernelSpectrum::materialize_half(const Grid3& g) const {
  const Grid3 half{g.nx / 2 + 1, g.ny, g.nz};
  ComplexField out(half);
  // Bin indices on the half grid are valid full-grid indices, so eval()
  // needs no half-aware variant.
  for_each_point(Box3::of(half), [&](const Index3& p) { out(p) = eval(p, g); });
  return out;
}

HalfDenseSpectrum::HalfDenseSpectrum(ComplexField half, const Grid3& full,
                                     std::string name)
    : hat_(std::move(half)), full_(full), name_(std::move(name)) {
  const Grid3 want{full.nx / 2 + 1, full.ny, full.nz};
  LC_CHECK_ARG(hat_.grid() == want, "half spectrum shape mismatch");
}

cplx HalfDenseSpectrum::eval(const Index3& bin, const Grid3& g) const {
  LC_CHECK_ARG(g == full_, "half spectrum grid mismatch");
  if (bin.x <= full_.nx / 2) return hat_(bin);
  // Mirror half by conjugate symmetry.
  return std::conj(hat_(full_.nx - bin.x, (full_.ny - bin.y) % full_.ny,
                        (full_.nz - bin.z) % full_.nz));
}

void HalfDenseSpectrum::eval_z_run(const Index3& start, const Grid3& g,
                                   std::span<cplx> out) const {
  LC_CHECK_ARG(g == full_, "half spectrum grid mismatch");
  if (start.x <= full_.nx / 2) {
    // Stored half: contiguous z run straight off the table.
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = hat_({start.x, start.y, start.z + static_cast<i64>(t)});
    }
    return;
  }
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = eval({start.x, start.y, start.z + static_cast<i64>(t)}, g);
  }
}

}  // namespace lc::green
