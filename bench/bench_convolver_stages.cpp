// Complex vs real half-spectrum LocalConvolver stage walls (DESIGN.md §16).
//
// Runs the same N=128 / k=32 single-channel Gaussian convolution through
// the full complex pipeline (RealPath::kOff, the bit-exact ground truth)
// and the Hermitian r2c/c2r pipeline (RealPath::kAuto), reading the
// per-stage wall clocks from the "convolver.stageN_seconds" histograms.
// Serial pool, fixed seed: the work is deterministic, only the walls vary.
//
// Acceptance gate: the real path must be >= 1.5x faster on the combined
// stage1-3 wall (ISSUE/ROADMAP perf target). The binary exits nonzero when
// the best-of-5 speedup falls short. Also writes
// BENCH_convolver_stages.json (schema of check_perf_regression.py; the
// gated row is the real-path stage123 throughput) for the CI perf-smoke
// baseline comparison.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "core/local_convolver.hpp"
#include "green/gaussian.hpp"
#include "obs/metrics.hpp"
#include "sampling/octree.hpp"

namespace {

using namespace lc;
using namespace lc::core;

constexpr i64 kN = 128;
constexpr i64 kK = 32;
constexpr std::size_t kBatch = 512;
constexpr int kRuns = 5;
constexpr double kRequiredSpeedup = 1.5;

struct StageWall {
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  [[nodiscard]] double total() const { return s1 + s2 + s3; }
};

StageWall run_once(const LocalConvolver& engine,
                   std::span<const RealField> chunks, const Index3& corner,
                   const std::shared_ptr<const sampling::Octree>& tree) {
  auto& reg = obs::Registry::global();
  obs::Histogram& h1 = reg.histogram("convolver.stage1_seconds");
  obs::Histogram& h2 = reg.histogram("convolver.stage2_seconds");
  obs::Histogram& h3 = reg.histogram("convolver.stage3_seconds");
  const double b1 = h1.sum();
  const double b2 = h2.sum();
  const double b3 = h3.sum();
  const auto out = engine.convolve_channels(chunks, corner, tree);
  if (out.empty()) std::abort();  // keep the result observable
  return {h1.sum() - b1, h2.sum() - b2, h3.sum() - b3};
}

}  // namespace

int main() {
  const Grid3 g = Grid3::cube(kN);
  const Index3 corner{0, 0, 0};
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  auto tree = std::make_shared<sampling::Octree>(
      g, Box3::cube_at(corner, kK), sampling::SamplingPolicy::paper_default(kK));

  std::vector<RealField> chunks;
  chunks.emplace_back(Grid3::cube(kK));
  SplitMix64 rng(42);
  for (auto& v : chunks[0].span()) v = rng.uniform(-1.0, 1.0);

  LocalConvolverConfig real_cfg;
  real_cfg.real = LocalConvolverConfig::RealPath::kAuto;
  real_cfg.batch = kBatch;
  real_cfg.pool = nullptr;  // serial: stage walls are pure compute
  LocalConvolverConfig cplx_cfg = real_cfg;
  cplx_cfg.real = LocalConvolverConfig::RealPath::kOff;

  const LocalConvolver real_engine(g, kernel, real_cfg);
  const LocalConvolver cplx_engine(g, kernel, cplx_cfg);
  if (!real_engine.uses_real_path()) {
    std::fprintf(stderr, "FAIL: the kAuto engine did not take the real path\n");
    return 1;
  }

  // Warm plans, twiddles, and allocator pools once per engine.
  (void)run_once(cplx_engine, chunks, corner, tree);
  (void)run_once(real_engine, chunks, corner, tree);

  StageWall best_cplx;
  StageWall best_real;
  for (int run = 0; run < kRuns; ++run) {
    const StageWall c = run_once(cplx_engine, chunks, corner, tree);
    const StageWall r = run_once(real_engine, chunks, corner, tree);
    if (run == 0 || c.total() < best_cplx.total()) best_cplx = c;
    if (run == 0 || r.total() < best_real.total()) best_real = r;
  }

  const double speedup = best_cplx.total() / best_real.total();
  const auto points = static_cast<double>(g.size());  // N^3 results per call

  lc::bench::JsonWriter json("convolver_stages");
  json.meta("units", "mitems_per_s (N^3 results / stage wall)");
  json.meta("grid", "N=128 k=32 B=512 gaussian serial");
  json.header({"case", "n", "batch", "path", "mitems_per_s", "gated"});
  std::printf("%-10s %-8s %12s %12s %9s\n", "stage", "", "complex ms",
              "real ms", "speedup");
  const auto row = [&](const char* name, double cs, double rs, bool gated) {
    std::printf("%-10s %-8s %12.3f %12.3f %8.2fx\n", name, gated ? "[gated]" : "",
                cs * 1e3, rs * 1e3, cs / rs);
    char cm[32];
    char rm[32];
    std::snprintf(cm, sizeof(cm), "%.1f", points / cs / 1e6);
    std::snprintf(rm, sizeof(rm), "%.1f", points / rs / 1e6);
    json.row({name, "128", "512", "complex", cm, "0"});
    json.row({name, "128", "512", "real", rm, gated ? "1" : "0"});
  };
  row("stage1", best_cplx.s1, best_real.s1, false);
  row("stage2", best_cplx.s2, best_real.s2, false);
  row("stage3", best_cplx.s3, best_real.s3, false);
  row("stage123", best_cplx.total(), best_real.total(), true);

  const std::string path = json.write();
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_convolver_stages.json\n");
    return 1;
  }
  std::printf("[json] wrote %s\n", path.c_str());

  if (speedup < kRequiredSpeedup) {
    std::fprintf(stderr,
                 "FAIL: real-path stage1-3 speedup %.2fx < required %.2fx\n",
                 speedup, kRequiredSpeedup);
    return 1;
  }
  std::printf("acceptance: real-path stage1-3 speedup %.2fx (>= %.2fx)\n",
              speedup, kRequiredSpeedup);
  return 0;
}
