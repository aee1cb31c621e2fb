#include "comm/cost_model.hpp"

#include <cmath>

#include "common/check.hpp"

namespace lc::comm {

namespace {

std::size_t rounded(double bytes) {
  return static_cast<std::size_t>(std::llround(bytes));
}

}  // namespace

LevelTimes predict_exchange_times(const LevelTraffic& traffic,
                                  const HierarchicalLinkModel& links) {
  LevelTimes t;
  t.intra_seconds =
      static_cast<double>(traffic.intra_messages) * links.intra.alpha +
      static_cast<double>(traffic.intra_bytes) * links.intra.beta;
  t.inter_seconds =
      static_cast<double>(traffic.inter_messages) * links.inter.alpha +
      static_cast<double>(traffic.inter_bytes) * links.inter.beta;
  return t;
}

LevelTraffic flat_exchange_traffic(int ranks, int ranks_per_node,
                                   double bytes_per_rank) {
  LC_CHECK_ARG(ranks >= 1 && ranks_per_node >= 1 && ranks_per_node <= ranks,
               "bad cluster shape");
  LC_CHECK_ARG(bytes_per_rank >= 0.0, "negative volume");
  LevelTraffic t;
  if (ranks == 1) return t;
  const double p = static_cast<double>(ranks);
  const double g = static_cast<double>(ranks_per_node);
  const double m = bytes_per_rank / (p - 1.0);  // per destination rank
  t.intra_messages = rounded(p * (g - 1.0));
  t.intra_bytes = rounded(p * (g - 1.0) * m);
  t.inter_messages = rounded(p * (p - g));
  t.inter_bytes = rounded(p * (p - g) * m);
  return t;
}

LevelTraffic hierarchical_exchange_traffic(int ranks, int ranks_per_node,
                                           double bytes_per_rank,
                                           double node_dedup) {
  LC_CHECK_ARG(ranks >= 1 && ranks_per_node >= 1 && ranks_per_node <= ranks,
               "bad cluster shape");
  LC_CHECK_ARG(ranks % ranks_per_node == 0,
               "model assumes uniform nodes (ranks %% ranks_per_node == 0)");
  LC_CHECK_ARG(bytes_per_rank >= 0.0, "negative volume");
  LC_CHECK_ARG(node_dedup >= 1.0, "dedup factor must be >= 1");
  LevelTraffic t;
  if (ranks == 1) return t;
  const double p = static_cast<double>(ranks);
  const double g = static_cast<double>(ranks_per_node);
  const double nodes = p / g;
  // Each rank's Eqn-6 volume under the flat per-pair spread (the volume the
  // routing re-arranges): `pair` per destination rank, and its remote share
  // as node bundles, deduplicated over each node's members.
  const double pair = bytes_per_rank / (p - 1.0);
  const double remote = bytes_per_rank * (p - g) / (p - 1.0) / node_dedup;
  // Own node: every rank hands each of its g−1 node peers its pair buffer
  // directly.
  t.intra_messages = rounded(p * (g - 1.0));
  t.intra_bytes = rounded(p * (g - 1.0) * pair);
  // Gather: every non-leader funnels its whole remote share to the leader
  // in one message.
  t.intra_messages += rounded(nodes * (g - 1.0));
  t.intra_bytes += rounded(nodes * (g - 1.0) * remote);
  // Inter: one combined message per ordered node pair, carrying the g
  // senders' (deduplicated) share for that destination node.
  t.inter_messages = rounded(nodes * (nodes - 1.0));
  t.inter_bytes = rounded(p * remote);
  // Redistribute: the destination leader sends each of its g−1 peers, in
  // one message per source node, only that peer's pair buffers from the
  // p−g remote ranks (the node dedup does not reach below the leader).
  t.intra_messages += rounded(nodes * (nodes - 1.0) * (g - 1.0));
  t.intra_bytes += rounded(nodes * (g - 1.0) * (p - g) * pair);
  return t;
}

double traditional_fft_comm_time(i64 n, int workers,
                                 double beta_link_points_per_sec) {
  LC_CHECK_ARG(n >= 1 && workers >= 1, "bad problem shape");
  LC_CHECK_ARG(beta_link_points_per_sec > 0.0, "bandwidth must be positive");
  const double n3 = static_cast<double>(n) * static_cast<double>(n) *
                    static_cast<double>(n);
  return 2.0 * n3 /
         (static_cast<double>(workers) * beta_link_points_per_sec);
}

double lowcomm_exchange_points(i64 n, i64 k, double r) {
  LC_CHECK_ARG(n >= k && k >= 1, "sub-domain larger than grid");
  LC_CHECK_ARG(r >= 1.0, "downsampling rate must be >= 1");
  const double n3 = static_cast<double>(n) * static_cast<double>(n) *
                    static_cast<double>(n);
  const double k3 = static_cast<double>(k) * static_cast<double>(k) *
                    static_cast<double>(k);
  return k3 + (n3 - k3) / (r * r * r);
}

double lowcomm_comm_time(i64 n, i64 k, double r, int workers,
                         double beta_link_points_per_sec) {
  LC_CHECK_ARG(workers >= 1, "need at least one worker");
  LC_CHECK_ARG(beta_link_points_per_sec > 0.0, "bandwidth must be positive");
  return lowcomm_exchange_points(n, k, r) /
         (static_cast<double>(workers) * beta_link_points_per_sec);
}

double comm_fraction(double comm_time, double compute_points,
                     double compute_rate) {
  LC_CHECK_ARG(comm_time >= 0.0 && compute_points >= 0.0, "negative cost");
  LC_CHECK_ARG(compute_rate > 0.0, "compute rate must be positive");
  const double compute_time = compute_points / compute_rate;
  const double total = comm_time + compute_time;
  return total == 0.0 ? 0.0 : comm_time / total;
}

}  // namespace lc::comm
