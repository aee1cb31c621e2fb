#include "core/accumulator.hpp"

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::core {

namespace {

obs::Histogram& region_seconds() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("accumulate.region_seconds");
  return h;
}

// The slab kernel: add every contribution's reconstruction over z-planes
// [zlo, zhi) of `region` into `out`, the tight x-fastest storage of the
// whole region. Those planes are one contiguous span of `out`, so
// concurrent slabs never share a write destination.
void add_slab(std::span<const sampling::CompressedField> contributions,
              std::span<double> out, const Box3& region, std::size_t zlo,
              std::size_t zhi, sampling::Interpolation interp) {
  const Grid3 ext = region.extents();
  const std::size_t plane =
      static_cast<std::size_t>(ext.nx) * static_cast<std::size_t>(ext.ny);
  const Box3 tile{{region.lo.x, region.lo.y,
                   region.lo.z + static_cast<i64>(zlo)},
                  {region.hi.x, region.hi.y,
                   region.lo.z + static_cast<i64>(zhi)}};
  const auto span = out.subspan(zlo * plane, (zhi - zlo) * plane);
  for (const auto& c : contributions) {
    c.reconstruct_add_into(span, tile, interp);
  }
}

}  // namespace

RealField accumulate_region(
    const std::vector<sampling::CompressedField>& contributions,
    const Box3& region, sampling::Interpolation interp, ThreadPool* pool) {
  LC_TRACE("accumulate.region");
  ScopedTimer region_timer(region_seconds());
  LC_CHECK_ARG(!region.empty(), "empty accumulation region");
  RealField out(region.extents(), 0.0);
  const auto nz = static_cast<std::size_t>(region.extents().nz);

  auto slab = [&](std::size_t zlo, std::size_t zhi) {
    LC_TRACE("accumulate.slab");
    add_slab(contributions, out.span(), region, zlo, zhi, interp);
  };

  if (pool == nullptr || pool->size() <= 1 || nz <= 1 ||
      pool->on_worker_thread()) {
    slab(0, nz);
  } else {
    pool->parallel_for_blocks(0, nz, slab);
  }
  return out;
}

void accumulate_into(const sampling::CompressedField& contribution,
                     std::span<const Box3> regions, std::span<RealField> tiles,
                     sampling::Interpolation interp) {
  LC_TRACE("accumulate.region");
  ScopedTimer region_timer(region_seconds());
  LC_CHECK_ARG(regions.size() == tiles.size(), "one tile per region");
  for (std::size_t i = 0; i < regions.size(); ++i) {
    LC_CHECK_ARG(!regions[i].empty() &&
                     tiles[i].grid() == regions[i].extents(),
                 "tile does not cover its accumulation region");
    add_slab({&contribution, 1}, tiles[i].span(), regions[i], 0,
             static_cast<std::size_t>(regions[i].extents().nz), interp);
  }
}

RealField accumulate_full(
    const std::vector<sampling::CompressedField>& contributions,
    const Grid3& grid, sampling::Interpolation interp, ThreadPool* pool) {
  for (const auto& c : contributions) {
    LC_CHECK_ARG(c.octree().grid() == grid, "contribution grid mismatch");
  }
  return accumulate_region(contributions, Box3::of(grid), interp, pool);
}

}  // namespace lc::core
