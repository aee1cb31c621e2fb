#include "comm/hierarchical.hpp"

#include <cstddef>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::comm {

namespace {

// Wire bytes by level for the composed exchanges, feeding the PR-5
// comm-volume accounting (tools/check_obs_outputs.py asserts these fire).
struct ExchangeLevelMetrics {
  obs::Counter& inter_bytes =
      obs::Registry::global().counter("exchange.inter_node_bytes");
  obs::Counter& intra_bytes =
      obs::Registry::global().counter("exchange.intra_node_bytes");

  static ExchangeLevelMetrics& get() {
    static ExchangeLevelMetrics m;
    return m;
  }
};

void count_send(const Topology& topo, int src, int dst, std::size_t doubles) {
  ExchangeLevelMetrics& m = ExchangeLevelMetrics::get();
  (topo.same_node(src, dst) ? m.intra_bytes : m.inter_bytes)
      .add(doubles * sizeof(double));
}

std::vector<double> recv_exact(Rank& rank, int src, std::size_t doubles,
                               const char* what) {
  std::vector<double> got = rank.recv(src);
  LC_CHECK(got.size() == doubles, what);
  return got;
}

}  // namespace

std::vector<std::vector<double>> hierarchical_exchange(
    Rank& rank, std::vector<std::vector<double>> direct,
    std::vector<std::vector<double>> bundles,
    const HierarchicalFraming& framing) {
  LC_TRACE("comm.hier_exchange");
  const Topology& topo = rank.topology();
  const int me = rank.id();
  const int my_node = topo.node_of(me);
  const auto members = topo.members(my_node);
  const int leader = members.front();
  const int nodes = topo.nodes();
  LC_CHECK_ARG(static_cast<int>(direct.size()) == rank.size(),
               "hierarchical_exchange needs one direct buffer per rank");
  LC_CHECK_ARG(static_cast<int>(bundles.size()) == nodes,
               "hierarchical_exchange needs one bundle per node");
  for (int q = 0; q < rank.size(); ++q) {
    const std::size_t want =
        topo.same_node(me, q) ? framing.pair_doubles(me, q) : 0;
    LC_CHECK_ARG(direct[static_cast<std::size_t>(q)].size() == want,
                 "direct buffer size disagrees with the size oracle");
  }
  for (int d = 0; d < nodes; ++d) {
    const std::size_t want = d == my_node ? 0 : framing.node_doubles(me, d);
    LC_CHECK_ARG(bundles[static_cast<std::size_t>(d)].size() == want,
                 "node bundle size disagrees with the size oracle");
  }

  std::vector<std::vector<double>> incoming(
      static_cast<std::size_t>(rank.size()));

  // Split phase (intra): own-node buffers travel directly between
  // node-mates; remote-bound bundles funnel through the leader.
  {
    LC_TRACE("comm.hier_split");
    for (const int q : members) {
      if (q == me) continue;
      const auto& b = direct[static_cast<std::size_t>(q)];
      rank.send(q, b);
      count_send(topo, me, q, b.size());
    }
    incoming[static_cast<std::size_t>(me)] =
        std::move(direct[static_cast<std::size_t>(me)]);
    direct.clear();
    if (me != leader) {
      std::vector<double> remote;
      for (int d = 0; d < nodes; ++d) {
        const auto& b = bundles[static_cast<std::size_t>(d)];
        remote.insert(remote.end(), b.begin(), b.end());
      }
      bundles.clear();
      rank.send(leader, remote);
      count_send(topo, me, leader, remote.size());
    }
  }

  if (me == leader) {
    // Each mate's channel carries its direct buffer, then its gather
    // message (its bundles for the other nodes, ascending node order).
    std::vector<std::vector<double>> gathered(members.size());
    for (std::size_t i = 1; i < members.size(); ++i) {
      const int q = members[i];
      incoming[static_cast<std::size_t>(q)] = recv_exact(
          rank, q, framing.pair_doubles(q, me), "direct framing mismatch");
      std::size_t remote = 0;
      for (int d = 0; d < nodes; ++d) {
        if (d != my_node) remote += framing.node_doubles(q, d);
      }
      gathered[i] = recv_exact(rank, q, remote, "gather framing mismatch");
    }

    // Inter phase: ONE combined message per ordered node pair, holding
    // every local rank's bundle for that node in rank order.
    {
      LC_TRACE("comm.hier_inter");
      std::vector<std::size_t> read(members.size(), 0);
      for (int d = 0; d < nodes; ++d) {
        if (d == my_node) continue;
        std::vector<double> combined =
            std::move(bundles[static_cast<std::size_t>(d)]);
        for (std::size_t i = 1; i < members.size(); ++i) {
          const std::size_t len = framing.node_doubles(members[i], d);
          const auto from = gathered[i].begin() +
                            static_cast<std::ptrdiff_t>(read[i]);
          combined.insert(combined.end(), from,
                          from + static_cast<std::ptrdiff_t>(len));
          read[i] += len;
        }
        rank.send(topo.leader_of(d), combined);
        count_send(topo, me, topo.leader_of(d), combined.size());
      }
    }
    bundles.clear();
    gathered.clear();

    // Intra phase: cut each source's bundle into per-member pieces, keep
    // mine, and send every mate its pieces from that node in one message.
    {
      LC_TRACE("comm.hier_intra");
      for (int s = 0; s < nodes; ++s) {
        if (s == my_node) continue;
        const auto sources = topo.members(s);
        std::size_t total = 0;
        for (const int src : sources) {
          total += framing.node_doubles(src, my_node);
        }
        const std::vector<double> combined = recv_exact(
            rank, topo.leader_of(s), total, "inter framing mismatch");
        std::vector<std::vector<double>> to_mate(members.size());
        std::size_t offset = 0;
        for (const int src : sources) {
          const std::size_t len = framing.node_doubles(src, my_node);
          auto pieces = framing.split(
              src, std::span<const double>(combined).subspan(offset, len));
          offset += len;
          LC_CHECK(pieces.size() == members.size(),
                   "bundle split must give one piece per node member");
          for (std::size_t i = 0; i < members.size(); ++i) {
            LC_CHECK(pieces[i].size() == framing.pair_doubles(src, members[i]),
                     "bundle piece disagrees with the size oracle");
          }
          incoming[static_cast<std::size_t>(src)] = std::move(pieces[0]);
          for (std::size_t i = 1; i < members.size(); ++i) {
            to_mate[i].insert(to_mate[i].end(), pieces[i].begin(),
                              pieces[i].end());
          }
        }
        for (std::size_t i = 1; i < members.size(); ++i) {
          rank.send(members[i], to_mate[i]);
          count_send(topo, me, members[i], to_mate[i].size());
        }
      }
    }
  } else {
    // Own-node buffers (each local channel's first message)...
    for (const int q : members) {
      if (q == me) continue;
      incoming[static_cast<std::size_t>(q)] = recv_exact(
          rank, q, framing.pair_doubles(q, me), "direct framing mismatch");
    }
    // ...then my pieces of each remote node's bundles, in ascending
    // source-node order (the order the leader sends them).
    LC_TRACE("comm.hier_intra");
    for (int s = 0; s < nodes; ++s) {
      if (s == my_node) continue;
      const auto sources = topo.members(s);
      std::size_t total = 0;
      for (const int src : sources) total += framing.pair_doubles(src, me);
      const std::vector<double> pieces =
          recv_exact(rank, leader, total, "forward framing mismatch");
      std::size_t offset = 0;
      for (const int src : sources) {
        const std::size_t len = framing.pair_doubles(src, me);
        const auto from = pieces.begin() + static_cast<std::ptrdiff_t>(offset);
        incoming[static_cast<std::size_t>(src)].assign(
            from, from + static_cast<std::ptrdiff_t>(len));
        offset += len;
      }
    }
  }

  if (me == 0) rank.collective_round();
  rank.barrier();
  return incoming;
}

}  // namespace lc::comm
