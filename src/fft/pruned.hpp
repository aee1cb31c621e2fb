// Input-pruned 1D transform: a length-n transform whose input has only k
// contiguous nonzero samples never materialises a padded array anywhere but
// in a per-thread scratch pencil — this is the paper's "zero structure is
// implicit in the 1D calls; padding is applied to the 1D data, and not to
// the full 3D array". The scalar reference for the batched pipeline's
// forward_batch_pruned.
#pragma once

#include <span>

#include "fft/fft1d.hpp"

namespace lc::fft {

/// Forward transform of a length-n signal that is zero outside
/// [offset, offset + nonzero.size()). Writes the full n-bin spectrum to
/// `out`. Equivalent to zero-padding and a full transform, without ever
/// building the padded signal outside scratch.
void input_pruned_forward(const Fft1D& plan, std::span<const cplx> nonzero,
                          std::size_t offset, std::span<cplx> out,
                          FftWorkspace& ws);

}  // namespace lc::fft
