// Communication results (Fig 1 quantified; Eqns 1, 2, 6; §2.1):
//   1. Modelled per-node communication time — traditional 3D FFT
//      (2 all-to-alls, Eqn 1) vs our single sparse exchange (Eqn 6),
//      swept over N and P.
//   2. Executed byte/round counts on the simulated cluster — the
//      distributed slab FFT baseline vs the low-communication pipeline on
//      the same problem, same ranks.
//   3. The §2.1 communication-fraction shift: ~49% of runtime on CPUs
//      becomes ~97% when compute accelerates 43× (GPUs) with the network
//      unchanged.
#include <cstdio>
#include <utility>

#include "baseline/distributed_fft.hpp"
#include "comm/cost_model.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "green/gaussian.hpp"
#include "bench_json.hpp"

int main() {
  using namespace lc;

  // --- 1. Model sweep (Eqn 1 vs Eqn 6) -----------------------------------
  {
    bench::JsonTable table("comm_model_modelled","Eqn 1 vs Eqn 6 — modelled comm time per node (s)");
    table.header({"N", "P", "k", "r", "T_FFT (Eqn 1)", "T_ours (Eqn 6)",
                  "Reduction"});
    const double beta_link = 1e9;  // points/s per link
    for (const i64 n : {512, 1024, 2048, 4096}) {
      for (const int p : {16, 256, 4096}) {
        const i64 k = 32;
        const double r = 8.0;
        const double t_fft = comm::traditional_fft_comm_time(n, p, beta_link);
        const double t_ours = comm::lowcomm_comm_time(n, k, r, p, beta_link);
        table.row({std::to_string(n), std::to_string(p), std::to_string(k),
                   format_fixed(r, 0), format_sig(t_fft, 4),
                   format_sig(t_ours, 4),
                   format_fixed(t_fft / t_ours, 1) + "x"});
      }
    }
    table.print();
    std::puts("Shape check: ours wins by ~2 r^3 at large N (Eqn 6 < Eqn 1).\n");
  }

  // --- 2. Executed transfers on the simulated cluster ---------------------
  {
    bench::JsonTable table("comm_model_executed","Executed bytes/rounds — slab FFT vs low-comm (SimCluster)");
    table.header({"N", "ranks", "method", "bytes sent", "rounds", "messages"});
    for (const i64 n : {32, 64}) {
      const int ranks = 4;
      const Grid3 g = Grid3::cube(n);
      auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
      RealField input(g);
      SplitMix64 rng(static_cast<std::uint64_t>(n));
      for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);

      comm::SimCluster cluster(ranks);
      (void)baseline::distributed_fft_convolve(cluster, input, kernel);
      table.row({std::to_string(n), std::to_string(ranks), "slab FFT (trad.)",
                 std::to_string(cluster.stats().bytes_sent.load()),
                 std::to_string(cluster.stats().collective_rounds.load()),
                 std::to_string(cluster.stats().messages.load())});

      comm::SimCluster cluster2(ranks);
      core::LowCommParams params;
      params.subdomain = n / 2;
      params.far_rate = 4;
      params.batch = 512;
      (void)core::distributed_lowcomm_convolve(cluster2, input, g, kernel,
                                               params);
      table.row({std::to_string(n), std::to_string(ranks), "low-comm (ours)",
                 std::to_string(cluster2.stats().bytes_sent.load()),
                 std::to_string(cluster2.stats().collective_rounds.load()),
                 std::to_string(cluster2.stats().messages.load())});
    }
    table.print();
    std::puts(
        "Shape check: traditional needs 2 all-to-all rounds moving the whole\n"
        "spectrum twice; ours needs 1 round of compressed samples. Tiny grids\n"
        "(N=32) have nothing to compress; the crossover appears by N=64.\n");
  }

  // --- 2b. Executed per-level split: flat vs hierarchical routing ---------
  {
    bench::JsonTable table(
        "comm_model_levels_executed",
        "Executed per-level bytes — flat vs hierarchical route (SimCluster)");
    table.header({"N", "ranks", "nodes", "route", "intra bytes", "inter bytes",
                  "messages", "modelled (s)"});
    const i64 n = 64;
    const int ranks = 8;
    const Grid3 g = Grid3::cube(n);
    auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
    RealField input(g);
    SplitMix64 rng(7);
    for (auto& v : input.span()) v = rng.uniform(-1.0, 1.0);
    core::LowCommParams params;
    params.subdomain = n / 4;
    params.far_rate = 4;
    // Uniform exterior rate: the banded paper policy on this small grid
    // tiles cells one-per-subdomain, so node-mates' needs are disjoint and
    // the union dedup has nothing to remove; the uniform policy's coarse
    // cells straddle subdomain boundaries, which is the regime the
    // hierarchical route is for (and the regime of Table 3's rows).
    params.uniform_rate = 4;
    params.batch = 512;

    for (const int per_node : {1, 2, 4}) {
      const comm::Topology topo = comm::Topology::grouped(ranks, per_node);
      for (const auto route :
           {core::ExchangeRoute::kFlat, core::ExchangeRoute::kHierarchical}) {
        comm::SimCluster cluster(topo);
        (void)core::distributed_lowcomm_convolve(cluster, input, g, kernel,
                                                 params, route);
        const auto& s = cluster.stats();
        table.row({std::to_string(n), std::to_string(ranks),
                   std::to_string(topo.nodes()),
                   route == core::ExchangeRoute::kFlat ? "flat" : "hier",
                   std::to_string(s.intra_bytes_sent.load()),
                   std::to_string(s.inter_bytes_sent.load()),
                   std::to_string(s.messages.load()),
                   format_fixed(s.modeled_seconds(), 6)});
      }
    }
    table.print();
    std::puts(
        "Shape check: with ranks grouped into nodes the hierarchical route\n"
        "moves fewer inter-node bytes than the flat per-rank exchange (each\n"
        "cell crosses the node boundary once) and collapses the inter-node\n"
        "message count to nodes*(nodes-1).\n");
  }

  // --- 2c. Analytic per-level sweep across node counts --------------------
  {
    bench::JsonTable table(
        "comm_model_levels",
        "Analytic per-level exchange time vs node count (Eqn 2 per level)");
    table.header({"P", "nodes", "route", "inter bytes", "T_exchange (s)",
                  "dense bytes (Eqn 1)"});
    const i64 n = 1024;
    const i64 k = 32;
    const double r = 8.0;
    const int p = 64;
    comm::HierarchicalLinkModel links;  // default: inter link 10x costlier
    const double volume =
        comm::lowcomm_exchange_points(n, k, r) * sizeof(double);
    // Total dense all-to-all volume (Eqn 1 numerator): 2 N^3 points, in
    // bytes — the like-for-like comparison for the total wire bytes below.
    const double dense_bytes = 2.0 * static_cast<double>(n) *
                               static_cast<double>(n) *
                               static_cast<double>(n) * sizeof(double);
    for (const int nodes : {64, 16, 8, 4, 2}) {
      const int per_node = p / nodes;
      const auto flat = comm::flat_exchange_traffic(p, per_node, volume);
      // Dedup 1 = disjoint member needs (the route only collapses the
      // message count); dedup g = every node-mate needs the same cells
      // (each cell crosses the inter link once instead of g times). Real
      // octree overlaps sit between the two (≈2x in the measured sweeps).
      const auto hier_lo =
          comm::hierarchical_exchange_traffic(p, per_node, volume, 1.0);
      const auto hier_hi = comm::hierarchical_exchange_traffic(
          p, per_node, volume, static_cast<double>(per_node));
      for (const auto& [route, t] :
           {std::pair{"flat", flat}, std::pair{"hier dedup=1", hier_lo},
            std::pair{"hier dedup=g", hier_hi}}) {
        const auto secs = comm::predict_exchange_times(t, links);
        table.row({std::to_string(p), std::to_string(nodes), route,
                   std::to_string(t.inter_bytes),
                   format_fixed(secs.total_seconds(), 6),
                   format_fixed(dense_bytes, 0)});
      }
    }
    table.print();
    std::puts(
        "Shape check: without overlap the hierarchical route matches the\n"
        "flat inter-node bytes while collapsing inter-node messages to\n"
        "nodes*(nodes-1); with per-node overlap the inter bytes drop by the\n"
        "dedup factor on top. Either way the exchange sits far under the\n"
        "dense Eqn 1 all-to-all at this N.\n");
  }

  // --- 3. §2.1 communication fractions ------------------------------------
  {
    bench::JsonTable table("comm_model_fraction","§2.1 — communication fraction, CPU vs 43x-accelerated");
    table.header({"platform", "comm fraction", "paper"});
    const i64 n = 1024;
    const int p = 4;
    const double beta_link = 2.2e9;
    const double cpu_rate = 1.15e9;  // grid points/s of FFT compute
    const double comm_time = comm::traditional_fft_comm_time(n, p, beta_link);
    const double points = static_cast<double>(n) * static_cast<double>(n) *
                          static_cast<double>(n) / p;
    const double cpu = comm::comm_fraction(comm_time, points, cpu_rate);
    const double gpu = comm::comm_fraction(comm_time, points, 43.0 * cpu_rate);
    table.row({"4 CPU nodes", format_fixed(cpu * 100.0, 1) + "%", "49.45%"});
    table.row({"4 GPU nodes (43x compute)", format_fixed(gpu * 100.0, 1) + "%",
               "97%"});
    table.print();
    std::puts(
        "Shape check: accelerating compute 43x with the same network pushes\n"
        "the communication share from ~half to ~all of the runtime.");
  }
  return 0;
}
