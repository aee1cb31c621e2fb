#include "device/memory_model.hpp"

#include <complex>

namespace lc::device {

namespace {

constexpr std::size_t kReal = sizeof(double);
constexpr std::size_t kComplex = sizeof(std::complex<double>);

std::size_t cube(i64 n) {
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
         static_cast<std::size_t>(n);
}

std::size_t square(i64 n) {
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
}

}  // namespace

std::size_t traditional_fft_bytes(i64 n) { return kReal * cube(n); }

std::size_t local_fft_slab_bytes(i64 n, i64 k) {
  return kReal * square(n) * static_cast<std::size_t>(k);
}

namespace {

/// Elements per spectral z-slice: the Hermitian half plane (nx/2+1)·N the
/// engine stores (must mirror LocalConvolver's `spec_elems` exactly;
/// bench_table4 asserts measured peak == planned actual), or the paper's
/// full c2c N² plane.
std::size_t spec_plane_elems(i64 n, bool real_path) {
  return real_path ? (static_cast<std::size_t>(n) / 2 + 1) *
                         static_cast<std::size_t>(n)
                   : square(n);
}

}  // namespace

std::size_t local_fft_spectrum_bytes(i64 n, i64 k, bool real_path) {
  return kComplex * spec_plane_elems(n, real_path) *
         static_cast<std::size_t>(k);
}

PipelinePlan plan_local_pipeline(i64 n, const Box3& chunk,
                                 const sampling::SamplingPolicy& policy,
                                 std::size_t batch, bool real_path) {
  const Grid3 grid = Grid3::cube(n);
  LC_CHECK_ARG(!chunk.empty() && Box3::of(grid).contains(chunk),
               "chunk box outside grid");
  // The octree's leaf walk without its cells: planning at paper-scale N
  // (hundreds of millions of cells at 8192³) needs only the counts.
  const sampling::OctreeShape tree =
      sampling::octree_shape(grid, chunk, policy);
  const Grid3 ext = chunk.extents();

  PipelinePlan plan;
  plan.chunk_bytes = kReal * ext.size();
  plan.slab_bytes = kComplex * spec_plane_elems(n, real_path) *
                    static_cast<std::size_t>(ext.nz);
  plan.staging_bytes =
      kComplex * spec_plane_elems(n, real_path) * tree.retained_planes;
  plan.pencil_bytes = 2 * kComplex * batch * static_cast<std::size_t>(n);
  plan.payload_bytes = kReal * tree.samples;
  plan.metadata_bytes = tree.cells * 5 * sizeof(std::int32_t);
  // cuFFT-like workspace: double-precision c2c plans may require scratch up
  // to twice the transform size — the batched 2D plan mirrors the slab
  // (×2), the batched 1D z-plan one pencil batch, plus (real path) the N²
  // real plane the c2r store lane writes. This is the paper's "temporaries
  // in the midst of calculations" (Table 4).
  plan.workspace_bytes = 2 * plan.slab_bytes + plan.pencil_bytes / 2 +
                         (real_path ? kReal * square(n) : 0);
  return plan;
}

PipelinePlan plan_local_pipeline(i64 n, i64 k,
                                 const sampling::SamplingPolicy& policy,
                                 std::size_t batch, bool real_path) {
  LC_CHECK_ARG(k >= 1 && k <= n, "sub-domain size outside grid");
  return plan_local_pipeline(n, Box3::cube_at({0, 0, 0}, k), policy, batch,
                             real_path);
}

PipelinePlan estimate_local_pipeline(i64 n, i64 k, i64 far_rate,
                                     std::size_t batch) {
  LC_CHECK_ARG(k >= 1 && k <= n, "sub-domain size outside grid");
  LC_CHECK_ARG(far_rate >= 1, "far rate must be >= 1");
  const auto r = static_cast<std::size_t>(far_rate);

  PipelinePlan plan;
  plan.chunk_bytes = kReal * cube(k);
  const std::size_t plane_elems = spec_plane_elems(n, /*real_path=*/true);
  plan.slab_bytes = kComplex * plane_elems * static_cast<std::size_t>(k);
  // Dense core planes plus one exterior plane every r grid planes.
  const std::size_t planes =
      std::min(static_cast<std::size_t>(n),
               static_cast<std::size_t>(k) +
                   (static_cast<std::size_t>(n - k) + r - 1) / r + 1);
  plan.staging_bytes = kComplex * plane_elems * planes;
  plan.pencil_bytes = 2 * kComplex * batch * static_cast<std::size_t>(n);
  // Eqn 6: the dense k³ core plus the rate-r downsampled exterior.
  plan.payload_bytes =
      kReal * (cube(k) + (cube(n) - cube(k)) / (r * r * r));
  const std::size_t tile = static_cast<std::size_t>(std::max(k, far_rate));
  plan.metadata_bytes =
      (cube(n) / (tile * tile * tile) + 64) * 5 * sizeof(std::int32_t);
  plan.workspace_bytes =
      2 * plan.slab_bytes + plan.pencil_bytes / 2 + kReal * square(n);
  return plan;
}

i64 planning_far_rate(i64 n, i64 k) {
  LC_CHECK_ARG(k >= 1 && n >= k, "bad (n, k)");
  std::size_t r = 2;
  while (r < static_cast<std::size_t>(n / k) && r < 128) r *= 2;
  return static_cast<i64>(r);
}

i64 max_allowable_k(i64 n, const DeviceSpec& spec, std::size_t batch) {
  i64 best = 0;
  for (i64 k = 2; k <= n; k *= 2) {
    const auto policy =
        sampling::SamplingPolicy::uniform(planning_far_rate(n, k));
    const PipelinePlan plan = plan_local_pipeline(n, k, policy, batch);
    if (plan.actual_total() <= spec.capacity_bytes) best = k;
  }
  return best;
}

}  // namespace lc::device
