// Half-spectrum LocalConvolver stage walls (DESIGN.md §16).
//
// Runs an N=128 / k=32 single-channel Gaussian convolution through the
// r2c/c2r pipeline, reading the per-stage wall clocks from the
// "convolver.stageN_seconds" histograms. Serial pool, fixed seed: the work
// is deterministic, only the walls vary. Reports the best of 5 runs and
// writes BENCH_convolver_stages.json (schema of check_perf_regression.py;
// the gated row is the stage123 throughput) for the CI perf-smoke baseline
// comparison.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
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

  LocalConvolverConfig cfg;
  cfg.batch = kBatch;
  cfg.pool = nullptr;  // serial: stage walls are pure compute
  const LocalConvolver engine(g, kernel, cfg);

  // Warm plans, twiddles, and allocator pools once.
  (void)run_once(engine, chunks, corner, tree);

  StageWall best;
  for (int run = 0; run < kRuns; ++run) {
    const StageWall r = run_once(engine, chunks, corner, tree);
    if (run == 0 || r.total() < best.total()) best = r;
  }

  const auto points = static_cast<double>(g.size());  // N^3 results per call

  lc::bench::JsonWriter json("convolver_stages");
  json.meta("units", "mitems_per_s (N^3 results / stage wall)");
  json.meta("grid", "N=128 k=32 B=512 gaussian serial");
  json.header({"case", "n", "batch", "path", "mitems_per_s", "gated"});
  std::printf("%-10s %-8s %12s %14s\n", "stage", "", "ms", "Mitems/s");
  const auto row = [&](const char* name, double secs, bool gated) {
    std::printf("%-10s %-8s %12.3f %14.1f\n", name, gated ? "[gated]" : "",
                secs * 1e3, points / secs / 1e6);
    char m[32];
    std::snprintf(m, sizeof(m), "%.1f", points / secs / 1e6);
    json.row({name, "128", "512", "real", m, gated ? "1" : "0"});
  };
  row("stage1", best.s1, false);
  row("stage2", best.s2, false);
  row("stage3", best.s3, false);
  row("stage123", best.total(), true);

  const std::string path = json.write();
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_convolver_stages.json\n");
    return 1;
  }
  std::printf("[json] wrote %s\n", path.c_str());
  return 0;
}
