#include "fft/pruned.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lc::fft {

void input_pruned_forward(const Fft1D& plan, std::span<const cplx> nonzero,
                          std::size_t offset, std::span<cplx> out,
                          FftWorkspace& ws) {
  const std::size_t n = plan.size();
  LC_CHECK_ARG(out.size() == n, "output must hold the full spectrum");
  LC_CHECK_ARG(offset + nonzero.size() <= n, "nonzero block exceeds length");
  std::fill(out.begin(), out.end(), cplx{0.0, 0.0});
  std::copy(nonzero.begin(), nonzero.end(),
            out.begin() + static_cast<std::ptrdiff_t>(offset));
  plan.forward(out, ws);
}

}  // namespace lc::fft
