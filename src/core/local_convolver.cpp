#include "core/local_convolver.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::core {

LocalConvolver::LocalConvolver(const Grid3& grid,
                               std::shared_ptr<const SpectralOperator> op,
                               LocalConvolverConfig config)
    : grid_(grid), op_(std::move(op)), config_(std::move(config)) {
  LC_CHECK_ARG(grid.nx == grid.ny && grid.ny == grid.nz,
               "local convolver requires a cubic grid");
  LC_CHECK_ARG(op_ != nullptr, "null spectral operator");
  LC_CHECK_ARG(op_->channels() >= 1, "operator needs at least one channel");
  LC_CHECK_ARG(config_.batch >= 1, "batch must be >= 1");
  if (config_.plan != nullptr) {
    LC_CHECK_ARG(config_.plan->size() == static_cast<std::size_t>(grid.nx),
                 "injected plan length != grid side");
    fft_n_ = config_.plan;
  } else {
    fft_n_ = std::make_shared<fft::Fft1D>(static_cast<std::size_t>(grid.nx));
  }
  real_path_ = config_.real == LocalConvolverConfig::RealPath::kAuto &&
               op_->hermitian();
  if (real_path_) {
    if (config_.real_plan != nullptr) {
      LC_CHECK_ARG(
          config_.real_plan->size() == static_cast<std::size_t>(grid.nx),
          "injected real plan length != grid side");
      rfft_n_ = config_.real_plan;
    } else {
      rfft_n_ =
          std::make_shared<fft::RealFft1D>(static_cast<std::size_t>(grid.nx));
    }
  }
}

LocalConvolver::LocalConvolver(
    const Grid3& grid, std::shared_ptr<const green::KernelSpectrum> kernel,
    LocalConvolverConfig config)
    : LocalConvolver(grid,
                     std::make_shared<ScalarKernelOperator>(std::move(kernel)),
                     config) {}

namespace {

/// (cell index, lattice z-index) pairs, grouped by absolute z-plane.
std::vector<std::vector<std::pair<std::size_t, i64>>> cells_by_plane(
    const sampling::Octree& tree) {
  const i64 nz = tree.grid().nz;
  std::vector<std::vector<std::pair<std::size_t, i64>>> by_plane(
      static_cast<std::size_t>(nz));
  const auto cells = tree.cells();
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const auto& c = cells[ci];
    for (i64 iz = 0; iz < c.samples_per_edge(); ++iz) {
      const i64 z = (c.corner.z + iz * c.rate) % nz;
      by_plane[static_cast<std::size_t>(z)].emplace_back(ci, iz);
    }
  }
  return by_plane;
}

// Per-stage wall-time distributions ("convolver.stageN_seconds"): one
// sample per convolve_channels call, so p95 across sub-domains/requests is
// meaningful. The matching LC_TRACE spans give the same breakdown per call
// in the Perfetto timeline.
struct ConvolverMetrics {
  obs::Histogram& stage1 = obs::Registry::global().histogram(
      "convolver.stage1_seconds");
  obs::Histogram& stage2 = obs::Registry::global().histogram(
      "convolver.stage2_seconds");
  obs::Histogram& stage3 = obs::Registry::global().histogram(
      "convolver.stage3_seconds");

  static ConvolverMetrics& get() {
    static ConvolverMetrics m;
    return m;
  }
};

void run_blocks(ThreadPool* pool, std::size_t count,
                const std::function<void(std::size_t, std::size_t,
                                         fft::FftWorkspace&)>& body) {
  // Degrade to serial when already running on one of the pool's own workers
  // (LowCommConvolution::convolve parallelizes across sub-domains on the
  // same pool; nesting parallel_for would deadlock-throw).
  if (pool == nullptr || pool->size() <= 1 || count <= 1 ||
      pool->on_worker_thread()) {
    fft::FftWorkspace ws;
    body(0, count, ws);
    return;
  }
  pool->parallel_for_blocks(0, count, [&](std::size_t lo, std::size_t hi) {
    fft::FftWorkspace ws;
    body(lo, hi, ws);
  });
}

}  // namespace

std::vector<sampling::CompressedField> LocalConvolver::convolve_channels(
    std::span<const RealField> chunks, const Index3& corner,
    std::shared_ptr<const sampling::Octree> tree) const {
  LC_TRACE("convolver.convolve_channels");
  const std::size_t nchan = op_->channels();
  LC_CHECK_ARG(tree != nullptr, "null octree");
  LC_CHECK_ARG(tree->grid() == grid_, "octree grid != convolver grid");
  LC_CHECK_ARG(chunks.size() == nchan, "one chunk per operator channel");
  const i64 n = grid_.nx;
  const i64 k = chunks[0].grid().nx;
  for (const auto& c : chunks) {
    LC_CHECK_ARG(c.grid() == Grid3::cube(k), "chunks must be equal cubes");
  }
  const Box3 dom = Box3::cube_at(corner, k);
  LC_CHECK_ARG(Box3::of(grid_).contains(dom), "chunk box outside grid");
  LC_CHECK_ARG(tree->subdomain() == dom,
               "octree sub-domain must match the chunk box");

  const auto un = static_cast<std::size_t>(n);
  const auto uk = static_cast<std::size_t>(k);
  const std::size_t plane_elems = un * un;
  // Real path: spectral planes hold only the nx/2+1 x-bins (Hermitian
  // half-spectrum), y-major so a z-pencil is a unit-stride run of p.
  const std::size_t nxh = un / 2 + 1;
  const std::size_t spec_elems = real_path_ ? nxh * un : plane_elems;
  const std::vector<i64> planes = tree->retained_z_planes();

  // --- Device-registered buffer footprint (scaled by channel count) ------
  ScopedDeviceAlloc chunk_mem(config_.device,
                              nchan * chunks[0].size() * sizeof(double));
  ScopedDeviceAlloc slab_mem(config_.device,
                             nchan * spec_elems * uk * sizeof(cplx));
  ScopedDeviceAlloc staging_mem(
      config_.device, nchan * spec_elems * planes.size() * sizeof(cplx));
  ScopedDeviceAlloc pencil_mem(
      config_.device, 2 * nchan * config_.batch * un * sizeof(cplx));
  // cuFFT-like plan workspace model: double-precision c2c plans may need
  // scratch up to twice the transform size — 2× one slab for the batched
  // 2D plan plus one pencil batch for the z-plan, plus (real path) the N²
  // real plane the c2r store lane writes (see device::memory_model; the
  // two models are kept identical so measured peaks match plans).
  ScopedDeviceAlloc workspace_mem(
      config_.device,
      2 * spec_elems * uk * sizeof(cplx) + config_.batch * un * sizeof(cplx) +
          (real_path_ ? plane_elems * sizeof(double) : 0));

  std::vector<sampling::CompressedField> results;
  results.reserve(nchan);
  for (std::size_t c = 0; c < nchan; ++c) results.emplace_back(tree);
  ScopedDeviceAlloc payload_mem(config_.device,
                                nchan * results[0].sample_bytes());
  // Octree cell metadata (5 int32 per cell, shared across channels) — the
  // sampling callbacks read it on-device, and the memory model prices it.
  ScopedDeviceAlloc metadata_mem(
      config_.device, tree->cells().size() * 5 * sizeof(std::int32_t));

  // Slab / staging scratch comes from the arena when one is wired in, so a
  // serving runtime recycles these multi-MB buffers between requests
  // instead of re-faulting fresh pages. The unpooled fallback keeps one
  // code path.
  const std::size_t slab_elems = nchan * spec_elems * uk;
  auto slab_lease = config_.arena != nullptr
                        ? config_.arena->acquire(slab_elems * sizeof(cplx))
                        : BufferArena::unpooled(slab_elems * sizeof(cplx));
  const std::span<cplx> slab = slab_lease.as<cplx>();
  // Stage 1 scatters only the k×k chunk rows; everything else must be zero
  // (recycled buffers carry the previous request's data).
  std::fill(slab.begin(), slab.end(), cplx{0.0, 0.0});
  const auto slab_of = [&](std::size_t ch) {
    return slab.data() + ch * spec_elems * uk;
  };

  // --- Stage 1: zero-pad xy per slice, 2D transform into slabs ------------
  {
  LC_TRACE("convolver.stage1_xy");
  ScopedTimer stage_timer(ConvolverMetrics::get().stage1);
  run_blocks(
      config_.pool, uk * nchan,
      [&](std::size_t lo, std::size_t hi, fft::FftWorkspace& ws) {
        LC_TRACE("convolver.stage1.block");
        for (std::size_t job = lo; job < hi; ++job) {
          const std::size_t ch = job / uk;
          const auto zl = static_cast<i64>(job % uk);
          cplx* plane = slab_of(ch) + static_cast<std::size_t>(zl) * spec_elems;
          if (real_path_) {
            // r2c straight off the chunk rows: the pruned window supplies
            // the x zero-padding (no complex scatter at all), rows outside
            // [corner.y, corner.y + k) keep the slab's zero fill.
            rfft_n_->forward_batch_pruned(
                &chunks[ch](0, 0, zl), 1, uk, uk,
                static_cast<std::size_t>(corner.x),
                plane + static_cast<std::size_t>(corner.y) * nxh, 1, nxh, uk,
                ws);
            // y transform: the nx/2+1 retained x-bins, full length N.
            fft_n_->forward_batch(plane, nxh, 1, nxh, ws);
            continue;
          }
          // Scatter the chunk slice; the rest of the plane stays zero.
          for (i64 y = 0; y < k; ++y) {
            cplx* row = plane +
                        static_cast<std::size_t>(corner.y + y) * un +
                        static_cast<std::size_t>(corner.x);
            for (i64 x = 0; x < k; ++x) {
              row[x] = cplx{chunks[ch](x, y, zl), 0.0};
            }
          }
          // x transform: only the k nonzero rows need transforming.
          fft_n_->forward_batch(plane + static_cast<std::size_t>(corner.y) * un,
                                1, un, static_cast<std::size_t>(k), ws);
          // y transform: all N pencils (x spectra fill the whole row).
          fft_n_->forward_batch(plane, un, 1, un, ws);
        }
      });
  }

  // --- Stage 2: batched z pencils with the per-bin operator ---------------
  // Staging needs no zero fill: every pencil writes every retained plane.
  const std::size_t staging_elems = nchan * planes.size() * spec_elems;
  auto staging_lease =
      config_.arena != nullptr
          ? config_.arena->acquire(staging_elems * sizeof(cplx))
          : BufferArena::unpooled(staging_elems * sizeof(cplx));
  const std::span<cplx> staging = staging_lease.as<cplx>();
  const auto staging_plane = [&](std::size_t ch, std::size_t i) {
    return staging.data() + (ch * planes.size() + i) * spec_elems;
  };

  // Real path: half as many z-pencils — the tentpole FLOP saving. Pencil
  // p decodes as (x, y) = (p % nxh, p / nxh) on the half plane.
  const std::size_t xbins = real_path_ ? nxh : un;
  const std::size_t pencils = spec_elems;
  const std::size_t batches = (pencils + config_.batch - 1) / config_.batch;
  {
  LC_TRACE("convolver.stage2_z");
  ScopedTimer stage_timer(ConvolverMetrics::get().stage2);
  run_blocks(
      config_.pool, batches,
      [&](std::size_t blo, std::size_t bhi, fft::FftWorkspace& ws) {
        LC_TRACE("convolver.stage2.block");
        // Batch-major pencil scratch, layout [channel][pencil][z]:
        // channel ch of pencil p is the contiguous run
        // zbuf[(ch * config_.batch + p) * n .. +n). One lease per block.
        const std::size_t zbuf_elems = nchan * config_.batch * un;
        auto zbuf_lease =
            config_.arena != nullptr
                ? config_.arena->acquire(zbuf_elems * sizeof(cplx))
                : BufferArena::unpooled(zbuf_elems * sizeof(cplx));
        cplx* zbuf = zbuf_lease.as<cplx>().data();
        const std::size_t chan_stride = config_.batch * un;
        for (std::size_t b = blo; b < bhi; ++b) {
          const std::size_t p0 = b * config_.batch;
          const std::size_t np = std::min(pencils, p0 + config_.batch) - p0;
          // Input-pruned forward z transforms, kBatchTile pencils per SIMD
          // tile (offset = global corner.z; only k inputs are nonzero).
          for (std::size_t ch = 0; ch < nchan; ++ch) {
            fft_n_->forward_batch_pruned(
                slab_of(ch) + p0, spec_elems, 1, static_cast<std::size_t>(k),
                static_cast<std::size_t>(corner.z), zbuf + ch * chan_stride,
                un, np, ws);
          }
          // Per-bin operator, one vectorized pass per pencil (on the real
          // path this is the Γ̂·half-spectrum fusion: only x ≤ nx/2 bins
          // are ever multiplied).
          for (std::size_t p = 0; p < np; ++p) {
            const i64 x = static_cast<i64>((p0 + p) % xbins);
            const i64 y = static_cast<i64>((p0 + p) / xbins);
            op_->apply_z_pencil(x, y, 0, grid_, zbuf + p * un, un,
                                chan_stride);
          }
          // Inverse z transforms; keep only the retained planes (the
          // "store callback" of Fig 4).
          for (std::size_t ch = 0; ch < nchan; ++ch) {
            fft_n_->inverse_batch(zbuf + ch * chan_stride, 1, un, np, ws);
            for (std::size_t i = 0; i < planes.size(); ++i) {
              cplx* dst = staging_plane(ch, i) + p0;
              const cplx* src =
                  zbuf + ch * chan_stride + static_cast<std::size_t>(planes[i]);
              for (std::size_t p = 0; p < np; ++p) dst[p] = src[p * un];
            }
          }
        }
      });
  }
  slab_lease.release();  // slab memory is dead after the z stage

  // --- Stage 3: per retained plane, 2D inverse + octree sampling ----------
  const auto by_plane = cells_by_plane(*tree);
  const auto cells = tree->cells();
  {
  LC_TRACE("convolver.stage3_planes");
  ScopedTimer stage_timer(ConvolverMetrics::get().stage3);
  run_blocks(
      config_.pool, planes.size() * nchan,
      [&](std::size_t lo, std::size_t hi, fft::FftWorkspace& ws) {
        LC_TRACE("convolver.stage3.block");
        // Real path: the c2r inverse's store lane writes into one leased
        // N² real plane per block — the octree sampling below reads it
        // directly, so the full complex plane never exists.
        auto rplane_lease =
            !real_path_ ? BufferArena::Lease{}
            : config_.arena != nullptr
                ? config_.arena->acquire(plane_elems * sizeof(double))
                : BufferArena::unpooled(plane_elems * sizeof(double));
        double* rplane = rplane_lease.as<double>().data();
        for (std::size_t job = lo; job < hi; ++job) {
          const std::size_t ch = job / planes.size();
          const std::size_t i = job % planes.size();
          cplx* plane = staging_plane(ch, i);
          if (real_path_) {
            // Inverse y over the nx/2+1 x-bins, then c2r rows (fused
            // Hermitian mirror + real store).
            fft_n_->inverse_batch(plane, nxh, 1, nxh, ws);
            rfft_n_->inverse_batch(plane, 1, nxh, rplane, 1, un, un, ws);
          } else {
            // Inverse y (pencils, stride N), then inverse x (rows).
            fft_n_->inverse_batch(plane, un, 1, un, ws);
            fft_n_->inverse_batch(plane, 1, un, un, ws);
          }
          auto payload = results[ch].samples();
          // Store callback: extract this plane's octree lattice samples.
          for (const auto& [ci, iz] :
               by_plane[static_cast<std::size_t>(planes[i])]) {
            const auto& c = cells[ci];
            const i64 e = c.samples_per_edge();
            for (i64 iy = 0; iy < e; ++iy) {
              const i64 yy = (c.corner.y + iy * c.rate) % n;
              for (i64 ix = 0; ix < e; ++ix) {
                const i64 xx = (c.corner.x + ix * c.rate) % n;
                const std::size_t at = static_cast<std::size_t>(yy) * un +
                                       static_cast<std::size_t>(xx);
                payload[c.sample_offset + c.sample_index(ix, iy, iz)] =
                    real_path_ ? rplane[at] : plane[at].real();
              }
            }
          }
        }
      });
  }

  return results;
}

sampling::CompressedField LocalConvolver::convolve_subdomain(
    const RealField& chunk, const Index3& corner,
    std::shared_ptr<const sampling::Octree> tree) const {
  LC_CHECK_ARG(op_->channels() == 1,
               "scalar convolve_subdomain needs a 1-channel operator");
  auto results = convolve_channels({&chunk, 1}, corner, std::move(tree));
  return std::move(results[0]);
}

}  // namespace lc::core
