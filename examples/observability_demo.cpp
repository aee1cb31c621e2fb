// One instrumented pass over the whole pipeline (DESIGN.md §13): run a
// local LowCommConvolution, a distributed SimCluster convolve, and a pair
// of ConvolutionService requests with tracing + metrics on, then put the
// measured communication volume next to the paper's Eqn 1 / Eqn 6 models.
//
//   build/examples/observability_demo --ranks 4 --nodes 2
//       --trace trace.json --metrics metrics.json --report comm_volume.json
//
// Load trace.json at ui.perfetto.dev to see the nested spans: the
// pipeline.convolve root over the three convolver stages, the sampling
// compress/reconstruct leaves, the exchange phases, and the service waves.
// Exits non-zero when the measured payload disagrees with Eqn 6 by more
// than 10% (the acceptance gate; holds for uniform exterior rate r = 2),
// when the distributed result is less accurate than the local one, or when
// the hierarchical route or a rerun does not reproduce the flat route's
// bits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <algorithm>

#include "baseline/dense.hpp"
#include "comm/topology.hpp"
#include "common/rng.hpp"
#include "core/hyperparams.hpp"
#include "core/pipeline.hpp"
#include "green/gaussian.hpp"
#include "obs/cli.hpp"
#include "obs/comm_volume.hpp"
#include "runtime/service.hpp"

namespace {

/// Distributed calls per route. Each call emits one plan-vs-actual record
/// under LC_TELEMETRY; the calibration fit and the drift gate both take
/// medians over a history's records, so a history needs enough of them
/// that one slow call (a process's first runs cold) moves neither median.
constexpr int kCallsPerRoute = 8;

bool same_bits(const lc::RealField& a, const lc::RealField& b) {
  return std::equal(a.span().begin(), a.span().end(), b.span().begin(),
                    b.span().end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lc;
  const auto obs_cli = obs::ObsCli::parse(argc, argv);

  // N = 128 gives each distributed call ≈0.1 s of compute, so the
  // telemetry records it emits time the pipelines rather than scheduling
  // noise; k >= 32 keeps the octree face overhead inside the 10% gate.
  i64 n = 128;
  i64 k = 32;
  i64 r = 2;
  int ranks = 2;
  int nodes = 2;
  std::string report_path;
  std::string rank_stats_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) n = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--k") == 0) k = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--r") == 0) r = std::atoll(argv[i + 1]);
    if (std::strcmp(argv[i], "--ranks") == 0) ranks = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--nodes") == 0) nodes = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--report") == 0) report_path = argv[i + 1];
    if (std::strcmp(argv[i], "--rank-stats") == 0) {
      rank_stats_path = argv[i + 1];
    }
  }
  nodes = std::clamp(nodes, 1, ranks);
  std::printf("observability demo: n=%lld k=%lld r=%lld ranks=%d\n",
              static_cast<long long>(n), static_cast<long long>(k),
              static_cast<long long>(r), ranks);

  const Grid3 grid = Grid3::cube(n);
  auto kernel = std::make_shared<green::GaussianSpectrum>(grid, 2.0);
  core::LowCommParams params;
  params.subdomain = k;
  params.far_rate = r;
  params.uniform_rate = r;  // uniform exterior → Eqn 6 applies exactly
  params.dense_halo = 0;
  params.batch = core::recommended_batch(n);

  RealField input(grid);
  SplitMix64 rng(7);
  for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

  // --- 1. Local pipeline: stages 1-3, compression, accumulation -----------
  core::LowCommConvolution engine(grid, kernel, params);
  const core::LowCommResult local = engine.convolve(input);
  std::printf("local convolve: %zu compressed samples (ratio %.1fx)\n",
              local.compressed_samples, local.compression_ratio);

  // --- 2. Distributed run: comm.* counters + per-rank accounting ----------
  // Ranks convolve groups of sub-domains (one octree per group), so the
  // distributed result differs from the local one; both are checked
  // against the dense reference, and the distributed one must be no less
  // accurate.
  const RealField dense = baseline::dense_convolve_r2c(input, *kernel);
  const double local_err = relative_l2_error(local.output.span(), dense.span());
  comm::SimCluster cluster(ranks);
  const RealField distributed =
      core::distributed_lowcomm_convolve(cluster, input, grid, kernel, params);
  const std::size_t flat_wire_bytes = cluster.stats().bytes_sent.load();
  const double err = relative_l2_error(distributed.span(), dense.span());
  std::printf("error vs dense: local %.3e, distributed %.3e\n", local_err,
              err);
  for (int rank = 0; rank < ranks; ++rank) {
    const comm::RankCommStats rs = cluster.rank_stats(rank);
    std::printf(
        "  rank %d: sent %zu B in %zu msgs, received %zu B, "
        "barrier wait %.3f ms\n",
        rank, rs.bytes_sent, rs.messages_sent, rs.bytes_received,
        rs.barrier_wait_seconds * 1e3);
  }

  // --- 2b. Hierarchical route: node leaders ship each bundle once ---------
  const comm::Topology topo =
      comm::Topology::grouped(ranks, std::max(1, ranks / nodes));
  comm::SimCluster grouped_cluster(topo);
  const RealField hier = core::distributed_lowcomm_convolve(
      grouped_cluster, input, grid, kernel, params,
      core::ExchangeRoute::kHierarchical);
  const bool hier_same = same_bits(hier, distributed);
  const comm::LevelTraffic levels = grouped_cluster.stats().level_traffic();
  std::printf(
      "hierarchical route (%d nodes): %s the flat route, "
      "wire bytes intra %zu / inter %zu\n",
      topo.nodes(), hier_same ? "bit-identical to" : "DIFFERS from",
      levels.intra_bytes, levels.inter_bytes);

  // --- 2c. Reruns: the telemetry history, and determinism ----------------
  // Both clusters reuse their memoised exchange plans, alternating routes;
  // every rerun must reproduce the first call's bits.
  bool reruns_same = true;
  for (int call = 1; call < kCallsPerRoute; ++call) {
    reruns_same =
        reruns_same &&
        same_bits(core::distributed_lowcomm_convolve(cluster, input, grid,
                                                     kernel, params),
                  distributed) &&
        same_bits(core::distributed_lowcomm_convolve(
                      grouped_cluster, input, grid, kernel, params,
                      core::ExchangeRoute::kHierarchical),
                  distributed);
  }
  std::printf("reruns: %d calls per route, %s\n", kCallsPerRoute,
              reruns_same ? "bit-identical" : "DIFFER");

  // --- 3. Service: cache + admission + wave spans --------------------------
  {
    runtime::ConvolutionService service;
    const auto request = [&] {
      runtime::ConvolutionRequest req;
      req.input = input;
      req.kernel = kernel;
      req.params = params;
      req.subdomain = 0;
      return req;
    };
    (void)service.run(request());                 // cold: builds resources
    const auto warm = service.run(request());     // warm: result-cache hit
    std::printf("service: warm request result_cache_hit=%d\n",
                warm.stats.result_cache_hit ? 1 : 0);
  }

  // --- 4. Measured vs model (Eqn 1 / Eqn 6) -------------------------------
  const obs::CommVolumeReport report =
      obs::measure_comm_volume(engine, ranks, flat_wire_bytes);
  std::puts("");
  report.table().print();
  if (!report_path.empty()) {
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f != nullptr) {
      std::fputs(report.to_json().c_str(), f);
      std::fclose(f);
      std::printf("report: %s\n", report_path.c_str());
    } else {
      std::fprintf(stderr, "report: failed to write %s\n",
                   report_path.c_str());
    }
  }

  // --- 5. Executed per-rank ground truth (--rank-stats) -------------------
  // Exact integer byte / message / wait-nanosecond totals per rank id,
  // summed over the flat and hierarchical clusters and every call — the
  // reference tools/critical_path.py asserts its trace attribution against.
  // Each cluster labels its rank threads "rank N", so a trace of this
  // process carries every call's spans under the same per-rank labels the
  // sums here aggregate over.
  if (!rank_stats_path.empty()) {
    std::FILE* f = std::fopen(rank_stats_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "rank-stats: failed to write %s\n",
                   rank_stats_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\"ranks\":%d,\"per_rank\":[", ranks);
    for (int rank = 0; rank < ranks; ++rank) {
      const comm::RankCommStats a = cluster.rank_stats(rank);
      const comm::RankCommStats b = grouped_cluster.rank_stats(rank);
      std::fprintf(
          f,
          "%s{\"rank\":%d,\"bytes_sent\":%zu,\"bytes_received\":%zu,"
          "\"messages_sent\":%zu,\"messages_received\":%zu,"
          "\"intra_bytes_sent\":%zu,\"inter_bytes_sent\":%zu,"
          "\"barrier_wait_ns\":%lld,\"recv_wait_ns\":%lld}",
          rank == 0 ? "" : ",", rank, a.bytes_sent + b.bytes_sent,
          a.bytes_received + b.bytes_received,
          a.messages_sent + b.messages_sent,
          a.messages_received + b.messages_received,
          a.intra_bytes_sent + b.intra_bytes_sent,
          a.inter_bytes_sent + b.inter_bytes_sent,
          static_cast<long long>(a.barrier_wait_ns + b.barrier_wait_ns),
          static_cast<long long>(a.recv_wait_ns + b.recv_wait_ns));
    }
    std::fputs("]}\n", f);
    std::fclose(f);
    std::printf("rank stats: %s\n", rank_stats_path.c_str());
  }

  obs_cli.finish();

  if (!(err <= local_err)) {
    std::puts("FAIL: distributed result less accurate than the local one");
    return 1;
  }
  if (!hier_same) {
    std::puts("FAIL: hierarchical route differs from the flat route");
    return 1;
  }
  if (!reruns_same) {
    std::puts("FAIL: a rerun differs from the first call");
    return 1;
  }
  if (!report.within(0.10)) {
    std::printf("FAIL: measured/model %.4f outside the 10%% gate\n",
                report.measured_over_model());
    return 1;
  }
  std::puts("\nOK: measured exchange volume within 10% of Eqn 6.");
  return 0;
}
