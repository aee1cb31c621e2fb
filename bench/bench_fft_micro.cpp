// Micro-benchmarks of the FFT substrate: 1D radix-2 vs Bluestein, real vs
// complex transforms, 3D sweeps, the input-pruned forward, strided pencils,
// and batch-major SIMD pencils vs the scalar path.
//
// Two modes:
//   (default)      google-benchmark over everything registered below.
//   --json-probe   deterministic best-of-N timing of the pencil scalar/batch
//                  pairs only; writes BENCH_fft_micro.json (bench_json.hpp)
//                  for the CI perf-smoke gate (bench/check_perf_regression.py).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft3d.hpp"
#include "fft/pruned.hpp"
#include "fft/real_fft.hpp"

namespace {

using namespace lc;
using namespace lc::fft;

std::vector<cplx> random_signal(std::size_t n) {
  SplitMix64 rng(n);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return v;
}

void BM_Fft1D_Pow2(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n);
  for (auto _ : state) {
    plan.forward(data, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft1D_Pow2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_Fft1D_Bluestein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n);
  for (auto _ : state) {
    plan.forward(data, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft1D_Bluestein)->Arg(255)->Arg(1000)->Arg(4095);

void BM_RealFft_Forward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RealFft1D plan(n);
  FftWorkspace ws;
  SplitMix64 rng(n);
  std::vector<double> in(n);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<cplx> out(plan.spectrum_size());
  for (auto _ : state) {
    plan.forward(in, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_RealFft_Forward)->Arg(1024)->Arg(4096);

void BM_ComplexAsReal_Forward(benchmark::State& state) {
  // Baseline for BM_RealFft_Forward: same data through the complex path.
  const auto n = static_cast<std::size_t>(state.range(0));
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n);
  for (auto& v : data) v = cplx{v.real(), 0.0};
  for (auto _ : state) {
    auto copy = data;
    plan.forward(copy, ws);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_ComplexAsReal_Forward)->Arg(1024)->Arg(4096);

void BM_Fft3D_Forward(benchmark::State& state) {
  const auto n = state.range(0);
  const Grid3 g = Grid3::cube(n);
  Fft3D plan(g);
  ComplexField f(g);
  SplitMix64 rng(7);
  for (auto& v : f.span()) v = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto _ : state) {
    plan.forward(f);
    benchmark::DoNotOptimize(f.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.size()));
}
BENCHMARK(BM_Fft3D_Forward)->Arg(32)->Arg(64)->Arg(128);

void BM_InputPrunedForward(benchmark::State& state) {
  // k nonzero inputs in an N-point transform (the slab z-stage inner op).
  const std::size_t n = 1024;
  const auto k = static_cast<std::size_t>(state.range(0));
  Fft1D plan(n);
  FftWorkspace ws;
  const auto chunk = random_signal(k);
  std::vector<cplx> out(n);
  for (auto _ : state) {
    input_pruned_forward(plan, chunk, n / 2, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_InputPrunedForward)->Arg(16)->Arg(64)->Arg(256);

void BM_StridedPencils(benchmark::State& state) {
  // The z-pencil access pattern: stride = N², one plane of pencils.
  const std::size_t n = 64;
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n * n * n);
  for (auto _ : state) {
    plan.forward_strided(data.data(), n * n, 1, n * n, ws);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_StridedPencils);

void BM_PencilBatch_Scalar(benchmark::State& state) {
  // Reference: B contiguous pencils one at a time (scalar butterflies).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n * batch);
  for (auto _ : state) {
    plan.forward_strided(data.data(), 1, n, batch, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * batch));
}
BENCHMARK(BM_PencilBatch_Scalar)
    ->Args({128, 8})->Args({128, 32})->Args({256, 8})->Args({256, 32});

void BM_PencilBatch_Simd(benchmark::State& state) {
  // Batch-major SoA path: SIMD lanes across pencils (kBatchTile at a time).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Fft1D plan(n);
  FftWorkspace ws;
  auto data = random_signal(n * batch);
  for (auto _ : state) {
    plan.forward_batch(data.data(), 1, n, batch, ws);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * batch));
}
BENCHMARK(BM_PencilBatch_Simd)
    ->Args({128, 8})->Args({128, 32})->Args({256, 8})->Args({256, 32});

// ---------------------------------------------------------------------------
// --json-probe: deterministic pencil scalar/batch timings for the CI gate.

/// Median-free best-of-runs throughput of `op` over `items` complex items.
double probe_mitems(const std::function<void()>& op, std::size_t items) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches and scratch
  // Calibrate rep count for ~30 ms per timed run.
  auto t0 = clock::now();
  op();
  double once = std::chrono::duration<double>(clock::now() - t0).count();
  const int reps = std::max(1, static_cast<int>(0.03 / std::max(once, 1e-7)));
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    t0 = clock::now();
    for (int r = 0; r < reps; ++r) op();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    const double rate =
        static_cast<double>(items) * reps / dt / 1e6;  // Mitems/s
    best = std::max(best, rate);
  }
  return best;
}

int run_json_probe() {
  lc::bench::JsonWriter json("fft_micro");
  json.meta("simd_backend", std::string(simd::kBackend));
  json.meta("units", "mitems_per_s");
  json.header({"case", "n", "batch", "path", "mitems_per_s", "gated"});

  const auto emit = [&](const char* name, std::size_t n, std::size_t batch,
                        const char* path, bool gated,
                        const std::function<void()>& op) {
    const double rate = probe_mitems(op, n * batch);
    char num[32];
    std::snprintf(num, sizeof(num), "%.1f", rate);
    json.row({name, std::to_string(n), std::to_string(batch), path, num,
              gated ? "1" : "0"});
    std::printf("%-18s n=%-4zu B=%-3zu %-7s %8.1f Mitems/s%s\n", name, n,
                batch, path, rate, gated ? "  [gated]" : "");
  };

  struct Case {
    const char* name;
    std::size_t n;
    std::size_t batch;
  };
  // The pow2 batch rows are the regression gate; the Bluestein row is
  // informational (the chirp length's allocator behaviour adds noise), as
  // are the scalar rows (the reference path).
  const Case cases[] = {{"pencil_pow2", 128, 8},
                        {"pencil_pow2", 128, 32},
                        {"pencil_pow2", 256, 8},
                        {"pencil_pow2", 256, 32},
                        {"pencil_bluestein", 100, 32}};
  for (const auto& c : cases) {
    Fft1D plan(c.n);
    FftWorkspace ws;
    auto data = random_signal(c.n * c.batch);
    const bool gate = std::string_view(c.name) == "pencil_pow2";
    emit(c.name, c.n, c.batch, "scalar", false, [&] {
      plan.forward_strided(data.data(), 1, c.n, c.batch, ws);
    });
    emit(c.name, c.n, c.batch, "batch", gate, [&] {
      plan.forward_batch(data.data(), 1, c.n, c.batch, ws);
    });
  }

  // Real half-spectrum pencils (r2c forward / c2r inverse): the batched
  // rows are the LocalConvolver real-path substrate (DESIGN.md §16) and gate
  // alongside the complex pencils; the per-pencil scalar rows are the
  // reference.
  struct RealCase {
    std::size_t n;
    std::size_t batch;
  };
  const RealCase rcases[] = {{128, 32}, {256, 32}};
  for (const auto& c : rcases) {
    RealFft1D plan(c.n);
    FftWorkspace ws;
    SplitMix64 rng(c.n);
    std::vector<double> in(c.n * c.batch);
    for (auto& v : in) v = rng.uniform(-1, 1);
    const std::size_t sbins = plan.spectrum_size();
    std::vector<cplx> spec(sbins * c.batch);
    std::vector<double> out(c.n * c.batch);
    emit("r2c_pow2", c.n, c.batch, "scalar", false, [&] {
      for (std::size_t p = 0; p < c.batch; ++p) {
        plan.forward(std::span(in).subspan(p * c.n, c.n),
                     std::span(spec).subspan(p * sbins, sbins), ws);
      }
    });
    emit("r2c_pow2", c.n, c.batch, "batch", true, [&] {
      plan.forward_batch(in.data(), 1, c.n, spec.data(), 1, sbins, c.batch,
                         ws);
    });
    emit("c2r_pow2", c.n, c.batch, "scalar", false, [&] {
      for (std::size_t p = 0; p < c.batch; ++p) {
        plan.inverse(std::span(std::as_const(spec)).subspan(p * sbins, sbins),
                     std::span(out).subspan(p * c.n, c.n), ws);
      }
    });
    emit("c2r_pow2", c.n, c.batch, "batch", true, [&] {
      plan.inverse_batch(spec.data(), 1, sbins, out.data(), 1, c.n, c.batch,
                         ws);
    });
  }
  const std::string path = json.write();
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_fft_micro.json\n");
    return 1;
  }
  std::printf("[json] wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json-probe") return run_json_probe();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
