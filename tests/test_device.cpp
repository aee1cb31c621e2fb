// Tests for the simulated device and the memory model behind Tables 1/2/4.
#include <gtest/gtest.h>

#include "device/device.hpp"
#include "device/memory_model.hpp"
#include "sampling/octree.hpp"

namespace lc::device {
namespace {

TEST(DeviceContext, TracksUsageAndPeak) {
  DeviceContext ctx({"test", 1000});
  ctx.register_alloc(400);
  EXPECT_EQ(ctx.used_bytes(), 400u);
  ctx.register_alloc(300);
  EXPECT_EQ(ctx.used_bytes(), 700u);
  EXPECT_EQ(ctx.peak_bytes(), 700u);
  ctx.register_free(300);
  EXPECT_EQ(ctx.used_bytes(), 400u);
  EXPECT_EQ(ctx.peak_bytes(), 700u);  // peak persists
  ctx.reset_peak();
  EXPECT_EQ(ctx.peak_bytes(), 400u);
}

TEST(DeviceContext, EnforcesCapacity) {
  DeviceContext ctx({"small", 100});
  ctx.register_alloc(80);
  EXPECT_THROW(ctx.register_alloc(21), ResourceExhausted);
  EXPECT_EQ(ctx.used_bytes(), 80u);  // failed alloc does not leak usage
  ctx.register_alloc(20);            // exactly fits
  EXPECT_EQ(ctx.used_bytes(), 100u);
}

TEST(DeviceBuffer, RaiiReturnsBytes) {
  DeviceContext ctx({"test", 1 << 20});
  {
    DeviceBuffer<double> buf(ctx, 1024);
    EXPECT_EQ(ctx.used_bytes(), 1024 * sizeof(double));
    EXPECT_EQ(buf.size(), 1024u);
    buf.data()[0] = 42.0;
    EXPECT_EQ(buf.span()[0], 42.0);
  }
  EXPECT_EQ(ctx.used_bytes(), 0u);
  EXPECT_EQ(ctx.peak_bytes(), 1024 * sizeof(double));
}

TEST(DeviceBuffer, MoveTransfersOwnership) {
  DeviceContext ctx({"test", 1 << 20});
  DeviceBuffer<double> a(ctx, 100);
  DeviceBuffer<double> b = std::move(a);
  EXPECT_EQ(ctx.used_bytes(), 100 * sizeof(double));
  b = DeviceBuffer<double>(ctx, 50);
  EXPECT_EQ(ctx.used_bytes(), 50 * sizeof(double));
}

TEST(DeviceSpec, PaperDevices) {
  EXPECT_EQ(DeviceSpec::v100_16gb().capacity_bytes, 16ull << 30);
  EXPECT_EQ(DeviceSpec::v100_32gb().capacity_bytes, 32ull << 30);
}

TEST(MemoryModel, Table1FormulasMatchPaperRows) {
  // Paper Table 1 values in GB (traditional = 8N³, ours = 8N²k).
  auto gb = [](std::size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  };
  EXPECT_DOUBLE_EQ(gb(traditional_fft_bytes(1024)), 8.0);
  EXPECT_DOUBLE_EQ(gb(traditional_fft_bytes(2048)), 64.0);
  EXPECT_DOUBLE_EQ(gb(traditional_fft_bytes(4096)), 512.0);
  EXPECT_DOUBLE_EQ(gb(traditional_fft_bytes(8192)), 4096.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(1024, 128)), 1.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(1024, 512)), 4.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(2048, 128)), 4.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(4096, 512)), 64.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(8192, 64)), 32.0);
  EXPECT_DOUBLE_EQ(gb(local_fft_slab_bytes(8192, 128)), 64.0);
}

TEST(MemoryModel, PipelinePlanComponentsAreConsistent) {
  const auto policy = sampling::SamplingPolicy::paper_default(32);
  // Complex-path pricing (real_path = false): the documented formulas.
  const PipelinePlan plan =
      plan_local_pipeline(256, 32, policy, 1024, /*real_path=*/false);
  EXPECT_EQ(plan.slab_bytes, 16u * 256 * 256 * 32);
  EXPECT_EQ(plan.chunk_bytes, 8u * 32 * 32 * 32);
  EXPECT_EQ(plan.pencil_bytes, 2u * 16 * 1024 * 256);
  EXPECT_GT(plan.payload_bytes, 8u * 32 * 32 * 32);  // at least the dense dom
  EXPECT_LT(plan.payload_bytes, 8u * 256 * 256 * 256);  // well below dense N³
  EXPECT_EQ(plan.actual_total(),
            plan.estimated_total() + plan.workspace_bytes);
  EXPECT_GT(plan.workspace_bytes, 0u);
}

TEST(MemoryModel, RealPathHalvesSlabAndStagingBytes) {
  const auto policy = sampling::SamplingPolicy::paper_default(32);
  const auto cplx_plan =
      plan_local_pipeline(256, 32, policy, 1024, /*real_path=*/false);
  const auto real_plan =
      plan_local_pipeline(256, 32, policy, 1024, /*real_path=*/true);
  // Half-spectrum planes hold (n/2+1)·n bins instead of n².
  EXPECT_EQ(real_plan.slab_bytes, 16u * 129 * 256 * 32);
  EXPECT_EQ(real_plan.staging_bytes,
            cplx_plan.staging_bytes / (256 * 256) * (129 * 256));
  // Pencils are full length-N z transforms on both paths.
  EXPECT_EQ(real_plan.pencil_bytes, cplx_plan.pencil_bytes);
  // Workspace gains the c2r store lane's N² real plane but still shrinks
  // overall (the dominant 2× slab term halves).
  EXPECT_LT(real_plan.workspace_bytes, cplx_plan.workspace_bytes);
  EXPECT_LT(real_plan.actual_total(), cplx_plan.actual_total());
}

TEST(MemoryModel, PlanScalesWithGridAndSubdomain) {
  const auto p32 = sampling::SamplingPolicy::paper_default(32);
  const auto p64 = sampling::SamplingPolicy::paper_default(64);
  const auto small = plan_local_pipeline(256, 32, p32, 1024);
  const auto bigger_k = plan_local_pipeline(256, 64, p64, 1024);
  const auto bigger_n = plan_local_pipeline(512, 32, p32, 1024);
  EXPECT_GT(bigger_k.actual_total(), small.actual_total());
  EXPECT_GT(bigger_n.actual_total(), small.actual_total());
}

TEST(OctreeShape, PlanCountsMatchMaterialisedOctree) {
  // plan_local_pipeline takes its cell count, sample total and retained
  // planes from the octree's leaf walk without storing cells; they must be
  // a materialised Octree's, for sub-domain cubes and group boxes, with and
  // without the dense boundary band.
  constexpr std::size_t kComplex = 16;
  for (const i64 n : {64, 256}) {
    const i64 k = n / 4;
    const Box3 boxes[] = {Box3::cube_at({0, 0, 0}, k),
                          Box3::cube_at({k, 2 * k, k}, k),
                          Box3{{0, 2 * k, 3 * k}, {n, n, 4 * k}}};
    for (const i64 band : {0, 2}) {
      const auto policy = sampling::SamplingPolicy::paper_default(k, 16, band);
      for (const Box3& box : boxes) {
        const sampling::Octree tree(Grid3::cube(n), box, policy);
        const PipelinePlan plan = plan_local_pipeline(n, box, policy, 256);
        const std::size_t spec = static_cast<std::size_t>(n / 2 + 1) *
                                 static_cast<std::size_t>(n);
        EXPECT_EQ(plan.payload_bytes, tree.total_samples() * sizeof(double));
        EXPECT_EQ(plan.metadata_bytes, tree.cells().size() * 5 * 4);
        EXPECT_EQ(plan.staging_bytes,
                  kComplex * spec * tree.retained_z_planes().size());
        EXPECT_EQ(plan.chunk_bytes, box.volume() * sizeof(double));
        EXPECT_EQ(plan.slab_bytes, kComplex * spec *
                                       static_cast<std::size_t>(k));
      }
      // The k overload prices the cube at the origin.
      EXPECT_EQ(plan_local_pipeline(n, k, policy, 256).actual_total(),
                plan_local_pipeline(n, boxes[0], policy, 256).actual_total());
    }
  }
}

TEST(MemoryModel, PaperScalePlanningIsFeasible) {
  // Planning at the paper's largest sizes must run without dense arrays.
  const auto policy = sampling::SamplingPolicy::paper_default(128);
  const PipelinePlan plan =
      plan_local_pipeline(8192, 128, policy, 32768, /*real_path=*/false);
  // Table 1: the slab alone is 64 GB at this shape.
  EXPECT_EQ(plan.slab_bytes, 16ull * 8192 * 8192 * 128);
}

TEST(MemoryModel, MaxAllowableKMatchesTable2Shape) {
  // Table 2 shape: allowable k grows with N at small N, then collapses at
  // N = 2048 (the N² slab term dominates); 2048 must still fit some k on
  // 32 GB (the paper's "8× more points than traditional cuFFT" result).
  const auto v16 = DeviceSpec::v100_16gb();
  const auto v32 = DeviceSpec::v100_32gb();
  const i64 k128 = max_allowable_k(128, v16, 512);
  const i64 k512 = max_allowable_k(512, v16, 1024);
  const i64 k1024 = max_allowable_k(1024, v32, 2048);
  const i64 k2048 = max_allowable_k(2048, v32, 4096);
  EXPECT_GE(k128, 64);
  EXPECT_GE(k512, 64);
  EXPECT_GT(k1024, 0);
  EXPECT_GT(k2048, 0);
  EXPECT_LT(k2048, k1024);  // the collapse at 2048
}

TEST(MemoryModel, RejectsBadShapes) {
  const auto policy = sampling::SamplingPolicy::paper_default(32);
  EXPECT_THROW((void)plan_local_pipeline(16, 32, policy, 64), InvalidArgument);
}

}  // namespace
}  // namespace lc::device
