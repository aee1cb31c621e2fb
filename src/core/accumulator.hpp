// Accumulation of sub-domain results (paper §3.2 step 4, Algorithm 2 line 6):
// every sub-domain's compressed convolution contribution is interpolated
// onto each target region and summed. By linearity of convolution the sum
// over all sub-domain contributions equals the full convolution.
//
// Threading contract: when a pool is supplied, the output region is split
// into z-slab tiles dispatched on ThreadPool::parallel_for_blocks; each tile
// is a disjoint contiguous span of the output (x-fastest layout makes z-slabs
// contiguous), so workers never share a write destination and no atomics are
// needed. Within a tile, contributions are added in their vector order — the
// per-point addition order is identical to the serial path, so parallel and
// serial accumulation produce bit-identical results. Calls from inside a
// pool worker (e.g. the runtime service's accumulate tasks, SimCluster
// ranks) degrade to serial automatically.
#pragma once

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "sampling/compressed_field.hpp"

namespace lc::core {

/// Sum the interpolated reconstructions of `contributions` over `region`,
/// returning a tight field covering the region. `pool` enables z-slab
/// parallel accumulation (nullptr → serial).
[[nodiscard]] RealField accumulate_region(
    const std::vector<sampling::CompressedField>& contributions,
    const Box3& region,
    sampling::Interpolation interp = sampling::Interpolation::kTrilinear,
    ThreadPool* pool = nullptr);

/// Streaming form of accumulate_region over several regions at once: add
/// one contribution's reconstruction into `tiles`, where tiles[i] is a
/// tight field covering regions[i] (zero-filled before the first call).
/// Feeding contributions one call at a time in vector order leaves each
/// tile bit-identical to accumulate_region over that vector — the same
/// slab kernel adds them in the same per-point order — while only one
/// contribution has to exist at a time. Serial; records into the same
/// accumulate.region span and timer as accumulate_region.
void accumulate_into(
    const sampling::CompressedField& contribution,
    std::span<const Box3> regions, std::span<RealField> tiles,
    sampling::Interpolation interp = sampling::Interpolation::kTrilinear);

/// Assemble a full dense grid by accumulating every contribution everywhere
/// (test/verification path; a production run only accumulates the regions
/// it owns).
[[nodiscard]] RealField accumulate_full(
    const std::vector<sampling::CompressedField>& contributions,
    const Grid3& grid,
    sampling::Interpolation interp = sampling::Interpolation::kTrilinear,
    ThreadPool* pool = nullptr);

}  // namespace lc::core
