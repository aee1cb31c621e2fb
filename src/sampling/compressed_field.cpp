#include "sampling/compressed_field.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "obs/trace.hpp"
#include "sampling/row_interp.hpp"

namespace lc::sampling {

CompressedField::CompressedField(std::shared_ptr<const Octree> tree)
    : tree_(std::move(tree)) {
  LC_CHECK_ARG(tree_ != nullptr, "null octree");
  samples_.assign(tree_->total_samples(), 0.0);
}

CompressedField CompressedField::compress(const RealField& full,
                                          std::shared_ptr<const Octree> tree) {
  LC_TRACE("sampling.compress");
  LC_CHECK_ARG(tree != nullptr, "null octree");
  LC_CHECK_ARG(full.grid() == tree->grid(), "field grid != octree grid");
  const Grid3& g = full.grid();
  CompressedField out(std::move(tree));
  for (const auto& c : out.tree_->cells()) {
    const i64 e = c.samples_per_edge();
    const i64 r = c.rate;
    // Wrap handling hoisted out of the gather loops: cells sit inside the
    // grid, so only the edge-inclusive top lattice plane of a coarse cell
    // can wrap (corner + side == n → index 0), and only on that one plane.
    const bool xwrap = c.corner.x + (e - 1) * r >= g.nx;
    const i64 ex = xwrap ? e - 1 : e;
    double* dst = out.samples_.data() + c.sample_offset;
    for (i64 iz = 0; iz < e; ++iz) {
      i64 z = c.corner.z + iz * r;
      if (z >= g.nz) z = 0;
      for (i64 iy = 0; iy < e; ++iy) {
        i64 y = c.corner.y + iy * r;
        if (y >= g.ny) y = 0;
        const double* src = &full(c.corner.x, y, z);
        if (r == 1) {
          std::copy(src, src + e, dst);
        } else {
          for (i64 ix = 0; ix < ex; ++ix) dst[ix] = src[ix * r];
          if (xwrap) dst[e - 1] = full(0, y, z);
        }
        dst += e;
      }
    }
  }
  return out;
}

double CompressedField::interpolate_in_cell(const OctreeCell& cell,
                                            std::span<const double> payload,
                                            const Index3& p,
                                            Interpolation interp) {
  const std::span<const double> s =
      payload.subspan(cell.sample_offset, cell.sample_count());
  if (cell.rate == 1) {  // dense cell: exact lookup
    return s[cell.sample_index(p.x - cell.corner.x, p.y - cell.corner.y,
                               p.z - cell.corner.z)];
  }
  // Edge-inclusive lattice: base+1 is always a stored sample.
  const i64 e = cell.samples_per_edge();
  const double inv_r = 1.0 / static_cast<double>(cell.rate);
  auto split = [&](i64 coord, i64 corner) {
    const i64 off = coord - corner;
    const i64 base = off / cell.rate;
    const double frac = static_cast<double>(off - base * cell.rate) * inv_r;
    return std::pair<i64, double>(base, frac);
  };
  const auto [bx, fx] = split(p.x, cell.corner.x);
  const auto [by, fy] = split(p.y, cell.corner.y);
  const auto [bz, fz] = split(p.z, cell.corner.z);

  auto at = [&](i64 ix, i64 iy, i64 iz) {
    return s[cell.sample_index(ix, iy, iz)];
  };

  if (interp == Interpolation::kTrilinear) {
    const i64 bx1 = bx + 1;
    const i64 by1 = by + 1;
    const i64 bz1 = bz + 1;
    const double c00 = at(bx, by, bz) * (1 - fx) + at(bx1, by, bz) * fx;
    const double c10 = at(bx, by1, bz) * (1 - fx) + at(bx1, by1, bz) * fx;
    const double c01 = at(bx, by, bz1) * (1 - fx) + at(bx1, by, bz1) * fx;
    const double c11 = at(bx, by1, bz1) * (1 - fx) + at(bx1, by1, bz1) * fx;
    const double c0 = c00 * (1 - fy) + c10 * fy;
    const double c1 = c01 * (1 - fy) + c11 * fy;
    return c0 * (1 - fz) + c1 * fz;
  }

  // Tricubic Catmull-Rom on the 4³ stencil around the base sample. Axes
  // whose stencil would leave the cell's lattice reduce to linear order
  // (clamping the stencil instead would break even linear reproduction:
  // duplicated sample positions violate the first moment condition).
  auto axis_weights = [&](i64 b, double t) {
    if (b >= 1 && b + 2 <= e - 1) return detail::catmull_rom_weights(t);
    return std::array<double, 4>{0.0, 1.0 - t, t, 0.0};
  };
  const auto wx = axis_weights(bx, fx);
  const auto wy = axis_weights(by, fy);
  const auto wz = axis_weights(bz, fz);
  auto clamp_idx = [&](i64 v) { return std::clamp<i64>(v, 0, e - 1); };
  double acc = 0.0;
  for (int dz = -1; dz <= 2; ++dz) {
    const double wzv = wz[static_cast<std::size_t>(dz + 1)];
    if (wzv == 0.0) continue;
    const i64 iz = clamp_idx(bz + dz);
    for (int dy = -1; dy <= 2; ++dy) {
      const double wyz = wy[static_cast<std::size_t>(dy + 1)] * wzv;
      if (wyz == 0.0) continue;
      const i64 iy = clamp_idx(by + dy);
      for (int dx = -1; dx <= 2; ++dx) {
        const double w = wx[static_cast<std::size_t>(dx + 1)];
        if (w == 0.0) continue;
        acc += w * wyz * at(clamp_idx(bx + dx), iy, iz);
      }
    }
  }
  return acc;
}

double CompressedField::value_at(const Index3& p, Interpolation interp) const {
  const OctreeCell& cell = tree_->cell_containing(p);
  return interpolate_in_cell(cell, samples(), p, interp);
}

namespace {

/// Dense (rate-1) cell: the stored lattice IS the grid — add rows directly.
void add_dense_cell(const OctreeCell& c, std::span<const double> payload,
                    std::span<double> out, const Box3& region,
                    const Box3& overlap) {
  const Grid3 rext = region.extents();
  const i64 e = c.samples_per_edge();
  const i64 len = overlap.hi.x - overlap.lo.x;
  for (i64 z = overlap.lo.z; z < overlap.hi.z; ++z) {
    const i64 iz = z - c.corner.z;
    for (i64 y = overlap.lo.y; y < overlap.hi.y; ++y) {
      const i64 iy = y - c.corner.y;
      const double* src = payload.data() + c.sample_offset +
                          static_cast<std::size_t>((iz * e + iy) * e +
                                                   (overlap.lo.x - c.corner.x));
      double* dst = out.data() +
                    rext.index(overlap.lo.x - region.lo.x, y - region.lo.y,
                               z - region.lo.z);
      simd::row_axpy(dst, src, 1.0, static_cast<std::size_t>(len));
    }
  }
}

/// Single-interval coarse cell (samples_per_edge == 2, i.e. side == rate):
/// no axis ever has interior cubic support, so both interpolation orders
/// reduce to trilinear from the cell's 8 corner samples. Evaluated directly
/// — the paper-default octree fragments band boundaries into thousands of
/// such cells, where the general table machinery costs more than the cell.
void add_corner_cell(const OctreeCell& c, std::span<const double> payload,
                     std::span<double> out, const Box3& region,
                     const Box3& overlap, AlignedVector<double>& xfrac) {
  const Grid3 rext = region.extents();
  const double inv_r = 1.0 / static_cast<double>(c.rate);
  const double* s = payload.data() + c.sample_offset;
  const auto xlen = static_cast<std::size_t>(overlap.hi.x - overlap.lo.x);
  // Fractional x positions of the overlap columns, shared by every row.
  if (xfrac.size() < xlen) xfrac.resize(xlen);
  for (std::size_t i = 0; i < xlen; ++i) {
    xfrac[i] = static_cast<double>(overlap.lo.x + static_cast<i64>(i) -
                                   c.corner.x) *
               inv_r;
  }
  for (i64 z = overlap.lo.z; z < overlap.hi.z; ++z) {
    const double fz = static_cast<double>(z - c.corner.z) * inv_r;
    // Blend the two corner planes along z: a<x><y>.
    const double a00 = s[0] + (s[4] - s[0]) * fz;
    const double a10 = s[1] + (s[5] - s[1]) * fz;
    const double a01 = s[2] + (s[6] - s[2]) * fz;
    const double a11 = s[3] + (s[7] - s[3]) * fz;
    for (i64 y = overlap.lo.y; y < overlap.hi.y; ++y) {
      const double fy = static_cast<double>(y - c.corner.y) * inv_r;
      const double c0 = a00 + (a01 - a00) * fy;
      const double c1 = a10 + (a11 - a10) * fy;
      double* dst = out.data() +
                    rext.index(overlap.lo.x - region.lo.x, y - region.lo.y,
                               z - region.lo.z);
      simd::row_lerp_add(dst, xfrac.data(), c0, c1, xlen);
    }
  }
}

}  // namespace

void CompressedField::reconstruct_add_rows(std::span<double> out,
                                           const Box3& region,
                                           Interpolation interp) const {
  LC_CHECK_ARG(out.size() == region.volume(),
               "output span must tile the region exactly");
  LC_CHECK_ARG(Box3::of(tree_->grid()).contains(region),
               "region outside compressed grid");
  const auto payload = samples();
  const Grid3 rext = region.extents();
  const bool cubic = interp == Interpolation::kTricubic;

  // Scratch reused across cells. `crow` holds one y/z-combined sample row
  // with one front and two back guard elements so the 4-tap x kernel never
  // reads out of bounds; guard taps carry exact zero weights, so their
  // (finite) contents never contribute.
  detail::AxisTable xt;
  detail::AxisTable yt;
  detail::AxisTable zt;
  AlignedVector<double> crow;
  AlignedVector<double> xfrac;

  // Only the cells in the region's Morton key range can overlap it; they
  // are visited in the same (ascending) order as a full scan.
  const auto cells = tree_->cells();
  const auto [first, last] = tree_->cell_range(region);
  for (std::size_t ci = first; ci < last; ++ci) {
    const OctreeCell& c = cells[ci];
    const Box3 overlap = c.box().intersect(region);
    if (overlap.empty()) continue;
    if (c.rate == 1) {
      add_dense_cell(c, payload, out, region, overlap);
      continue;
    }

    const i64 e = c.samples_per_edge();
    if (e == 2) {
      add_corner_cell(c, payload, out, region, overlap, xfrac);
      continue;
    }
    xt.build(overlap.lo.x, overlap.hi.x, c.corner.x, c.rate, e, cubic);
    yt.build(overlap.lo.y, overlap.hi.y, c.corner.y, c.rate, e, cubic);
    zt.build(overlap.lo.z, overlap.hi.z, c.corner.z, c.rate, e, cubic);
    if (crow.size() < static_cast<std::size_t>(e) + 3) {
      crow.assign(static_cast<std::size_t>(e) + 3, 0.0);
    }
    double* crow_p = crow.data() + 1;
    const double* s = payload.data() + c.sample_offset;
    const auto ue = static_cast<std::size_t>(e);
    const auto xlen = static_cast<std::size_t>(overlap.hi.x - overlap.lo.x);

    for (i64 z = overlap.lo.z; z < overlap.hi.z; ++z) {
      const auto zi = static_cast<std::size_t>(z - overlap.lo.z);
      const i64 bz = zt.base[zi];
      for (i64 y = overlap.lo.y; y < overlap.hi.y; ++y) {
        const auto yi = static_cast<std::size_t>(y - overlap.lo.y);
        const i64 by = yt.base[yi];

        // Collapse the y/z stencil: crow[ix] = Σ wz·wy · s[ix, iy, iz].
        bool first = true;
        for (int dz = 0; dz < 4; ++dz) {
          const double wzv = zt.w[dz][zi];
          if (wzv == 0.0) continue;
          const i64 iz = bz - 1 + dz;
          for (int dy = 0; dy < 4; ++dy) {
            const double wyz = yt.w[dy][yi] * wzv;
            if (wyz == 0.0) continue;
            const i64 iy = by - 1 + dy;
            const double* srow = s + static_cast<std::size_t>((iz * e + iy) * e);
            if (first) {
              simd::row_scale(crow_p, srow, wyz, ue);
              first = false;
            } else {
              simd::row_axpy(crow_p, srow, wyz, ue);
            }
          }
        }

        // Evaluate the whole x-row: coordinates sharing a base sample form
        // runs of up to `rate` points — broadcast the 4 stencil values once
        // per run and sweep the per-point weight lanes with SIMD.
        double* orow = out.data() +
                       rext.index(overlap.lo.x - region.lo.x, y - region.lo.y,
                                  z - region.lo.z);
        std::size_t i = 0;
        while (i < xlen) {
          const std::int32_t b = xt.base[i];
          std::size_t j = i + 1;
          while (j < xlen && xt.base[j] == b) ++j;
          if (cubic) {
            simd::row_weighted4_add(orow + i, xt.w[0].data() + i,
                                    xt.w[1].data() + i, xt.w[2].data() + i,
                                    xt.w[3].data() + i, crow_p[b - 1],
                                    crow_p[b], crow_p[b + 1], crow_p[b + 2],
                                    j - i);
          } else {
            // Trilinear taps 0/3 are identically zero along every axis.
            simd::row_weighted2_add(orow + i, xt.w[1].data() + i,
                                    xt.w[2].data() + i, crow_p[b],
                                    crow_p[b + 1], j - i);
          }
          i = j;
        }
      }
    }
  }
}

void CompressedField::reconstruct_add_scalar(std::span<double> out,
                                             const Box3& region,
                                             Interpolation interp) const {
  LC_CHECK_ARG(out.size() == region.volume(),
               "output span must tile the region exactly");
  LC_CHECK_ARG(Box3::of(tree_->grid()).contains(region),
               "region outside compressed grid");
  const auto payload = samples();
  const Grid3 rext = region.extents();
  for (const auto& c : tree_->cells()) {
    const Box3 overlap = c.box().intersect(region);
    if (overlap.empty()) continue;
    if (c.rate == 1) {
      add_dense_cell(c, payload, out, region, overlap);
    } else {
      for_each_point(overlap, [&](const Index3& p) {
        out[rext.index(p.x - region.lo.x, p.y - region.lo.y,
                       p.z - region.lo.z)] +=
            interpolate_in_cell(c, payload, p, interp);
      });
    }
  }
}

void CompressedField::reconstruct_add_into(std::span<double> out,
                                           const Box3& region,
                                           Interpolation interp) const {
  LC_TRACE("sampling.reconstruct_add");
#if defined(LC_SIMD_SCALAR)
  reconstruct_add_scalar(out, region, interp);
#else
  reconstruct_add_rows(out, region, interp);
#endif
}

void CompressedField::reconstruct_add(RealField& out, const Box3& region,
                                      Interpolation interp) const {
  LC_CHECK_ARG(out.grid() == region.extents(),
               "output field must tile the region exactly");
  reconstruct_add_into(out.span(), region, interp);
}

RealField CompressedField::reconstruct(Interpolation interp) const {
  RealField out(tree_->grid(), 0.0);
  reconstruct_add(out, Box3::of(tree_->grid()), interp);
  return out;
}

}  // namespace lc::sampling
