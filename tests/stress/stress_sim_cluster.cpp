// Stress tests for comm::SimCluster: many ranks, overlapping collectives,
// exact stats accounting under concurrency, and the error path (a throwing
// rank must release peers stuck in barriers or blocking receives — for any
// number of subsequent barriers, not just the first one).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "comm/hierarchical.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/topology.hpp"

namespace lc::comm {
namespace {

std::size_t stress_iters(std::size_t base) {
  if (const char* env = std::getenv("LC_STRESS_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return base;
}

TEST(SimClusterStress, OverlappingCollectivesManyRanks) {
  // Every rank runs a mixed collective schedule many times over; payload
  // values encode (iteration, src, dst) so any cross-iteration bleed or
  // mis-delivery is caught immediately.
  const int p = 8;
  SimCluster cluster(p);
  const std::size_t iters = stress_iters(60);
  cluster.run([&](Rank& rank) {
    for (std::size_t it = 0; it < iters; ++it) {
      std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d) {
        outgoing[static_cast<std::size_t>(d)] = {
            static_cast<double>(it * 10000 + rank.id() * 100 + d)};
      }
      const auto incoming = rank.all_to_all(outgoing);
      for (int s = 0; s < p; ++s) {
        ASSERT_EQ(incoming[static_cast<std::size_t>(s)].at(0),
                  static_cast<double>(it * 10000 + s * 100 + rank.id()));
      }
      const double sum = rank.all_reduce_sum(static_cast<double>(rank.id()));
      ASSERT_DOUBLE_EQ(sum, static_cast<double>(p * (p - 1) / 2));
      if (it % 4 == 0) {
        const auto all =
            rank.all_gather(std::vector<double>{static_cast<double>(rank.id())});
        for (int s = 0; s < p; ++s) {
          ASSERT_EQ(all[static_cast<std::size_t>(s)].at(0),
                    static_cast<double>(s));
        }
      }
      rank.barrier();
    }
  });
}

TEST(SimClusterStress, StatsStayExactUnderConcurrentSends) {
  // All ranks blast point-to-point messages at once; the byte/message
  // counters must come out exact (a non-atomic counter under-counts here
  // and TSAN flags the increments).
  const int p = 8;
  const std::size_t per_pair = stress_iters(50);
  const std::size_t payload = 16;
  SimCluster cluster(p);
  cluster.run([&](Rank& rank) {
    const std::vector<double> msg(payload, static_cast<double>(rank.id()));
    for (std::size_t m = 0; m < per_pair; ++m) {
      for (int d = 0; d < p; ++d) {
        if (d != rank.id()) rank.send(d, msg);
      }
    }
    for (std::size_t m = 0; m < per_pair; ++m) {
      for (int s = 0; s < p; ++s) {
        if (s != rank.id()) {
          const auto got = rank.recv(s);
          ASSERT_EQ(got.size(), payload);
          ASSERT_EQ(got.front(), static_cast<double>(s));
        }
      }
    }
  });
  const std::size_t messages = static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(p - 1) * per_pair;
  EXPECT_EQ(cluster.stats().messages.load(), messages);
  EXPECT_EQ(cluster.stats().bytes_sent.load(),
            messages * payload * sizeof(double));
}

TEST(SimClusterStress, RepeatedRunsReuseClusterCleanly) {
  // run() reuse churn: the barrier generation, reduction scratch, and
  // channels must all be reusable across many back-to-back SPMD bodies.
  const int p = 6;
  SimCluster cluster(p);
  const std::size_t runs = stress_iters(80);
  for (std::size_t r = 0; r < runs; ++r) {
    std::atomic<int> checks{0};
    cluster.run([&](Rank& rank) {
      const double sum =
          rank.all_reduce_sum(static_cast<double>(rank.id() + 1));
      ASSERT_DOUBLE_EQ(sum, static_cast<double>(p * (p + 1) / 2));
      checks++;
    });
    ASSERT_EQ(checks.load(), p);
  }
}

TEST(SimClusterStress, ThrowingRankReleasesRepeatedBarriers) {
  // Rank 0 throws while the peers still have MANY barriers ahead of them.
  // The original error path only advanced one barrier generation, so peers
  // deadlocked on their second barrier; the abort protocol must unwind them
  // all, and the run must rethrow the ORIGINAL error.
  const int p = 8;
  SimCluster cluster(p);
  const std::size_t iters = stress_iters(30);
  for (std::size_t it = 0; it < iters; ++it) {
    try {
      cluster.run([&](Rank& rank) {
        if (rank.id() == 0) throw std::runtime_error("original failure");
        for (int b = 0; b < 20; ++b) rank.barrier();
      });
      FAIL() << "expected the rank error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "original failure");
    }
    // The cluster must stay fully usable after every failed run.
    std::atomic<int> survivors{0};
    cluster.run([&](Rank& rank) {
      rank.barrier();
      survivors++;
    });
    ASSERT_EQ(survivors.load(), p);
  }
}

TEST(SimClusterStress, ThrowingRankReleasesCollectivesAndRecv) {
  // Peers blocked inside collectives (barrier-based) and raw recv() on the
  // throwing rank must all unwind instead of hanging.
  const int p = 6;
  SimCluster cluster(p);
  const std::size_t iters = stress_iters(30);
  for (std::size_t it = 0; it < iters; ++it) {
    EXPECT_THROW(
        cluster.run([&](Rank& rank) {
          if (rank.id() == 0) throw std::runtime_error("sender died");
          if (rank.id() == 1) {
            (void)rank.recv(0);  // never arrives
          } else {
            (void)rank.all_reduce_sum(1.0);  // rank 0 never joins
          }
        }),
        std::runtime_error);
    cluster.run([](Rank& rank) { rank.barrier(); });
  }
}

// Concatenation framing for hierarchical_exchange: rank src's bundle for a
// node is its pair buffers for that node's members, in member order, and
// the receiving leader slices it back apart. `fill(src, dst)` is the pair
// buffer src sends dst.
template <class Fill>
std::vector<std::vector<double>> concat_exchange(
    Rank& rank, const std::function<std::size_t(int, int)>& len,
    const Fill& fill) {
  const Topology& topo = rank.topology();
  const int me = rank.id();
  const int my_node = topo.node_of(me);
  std::vector<std::vector<double>> direct(
      static_cast<std::size_t>(rank.size()));
  std::vector<std::vector<double>> bundles(
      static_cast<std::size_t>(topo.nodes()));
  for (int dst = 0; dst < rank.size(); ++dst) {
    const auto buf = fill(me, dst);
    const int node = topo.node_of(dst);
    if (node == my_node) {
      direct[static_cast<std::size_t>(dst)] = buf;
    } else {
      auto& b = bundles[static_cast<std::size_t>(node)];
      b.insert(b.end(), buf.begin(), buf.end());
    }
  }
  const auto members = topo.members(my_node);
  const HierarchicalFraming framing{
      len,
      [&topo, &len](int src, int node) {
        std::size_t doubles = 0;
        for (const int q : topo.members(node)) doubles += len(src, q);
        return doubles;
      },
      [members, &len](int src, std::span<const double> bundle) {
        std::vector<std::vector<double>> pieces;
        std::size_t offset = 0;
        for (const int q : members) {
          const auto piece = bundle.subspan(offset, len(src, q));
          pieces.emplace_back(piece.begin(), piece.end());
          offset += piece.size();
        }
        return pieces;
      }};
  return hierarchical_exchange(rank, std::move(direct), std::move(bundles),
                               framing);
}

TEST(SimClusterStress, HierarchicalExchangeAbortUnwindsAllRoles) {
  // The composed hierarchical exchange blocks in recv() at three different
  // points depending on role (leader gathering, leader awaiting a remote
  // leader, non-leader awaiting its pieces). Whichever role the throwing
  // rank leaves stranded must unwind with the ORIGINAL error, and the
  // cluster must stay reusable — the composed collective inherits the
  // abort protocol from Rank::recv/barrier with no code of its own.
  const Topology topo = Topology::grouped(6, 3);
  SimCluster cluster(topo);
  const std::size_t iters = stress_iters(30);
  const std::function<std::size_t(int, int)> len = [](int, int) {
    return std::size_t{4};
  };
  const auto fill = [](int src, int) {
    return std::vector<double>(4, static_cast<double>(src));
  };
  for (std::size_t it = 0; it < iters; ++it) {
    // Rotate the dying rank across roles: leader of node 0, a non-leader,
    // leader of node 1.
    const int dying = (it % 3 == 0) ? 0 : (it % 3 == 1) ? 2 : 3;
    try {
      cluster.run([&](Rank& rank) {
        if (rank.id() == dying) throw std::runtime_error("exchange peer died");
        (void)concat_exchange(rank, len, fill);
      });
      FAIL() << "expected the rank error to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "exchange peer died");
    }
    // Fully usable afterwards, including another hierarchical exchange.
    cluster.run([&](Rank& rank) {
      const auto incoming = concat_exchange(rank, len, fill);
      ASSERT_EQ(incoming.size(), static_cast<std::size_t>(rank.size()));
      for (int s = 0; s < rank.size(); ++s) {
        ASSERT_EQ(incoming[static_cast<std::size_t>(s)], fill(s, rank.id()));
      }
    });
  }
}

TEST(SimClusterStress, HierarchicalExchangeSurvivesRepeatedRuns) {
  // Back-to-back hierarchical exchanges with per-iteration payloads: any
  // channel bleed between iterations (a stale piece left behind by the
  // leader's per-mate sends) shows up as a wrong value immediately.
  const Topology topo = Topology::grouped(8, 4);
  SimCluster cluster(topo);
  const std::size_t iters = stress_iters(40);
  const std::function<std::size_t(int, int)> len = [](int src, int dst) {
    return static_cast<std::size_t>((src + dst) % 3 + 1);
  };
  cluster.run([&](Rank& rank) {
    for (std::size_t it = 0; it < iters; ++it) {
      const auto value = [it](int src, int dst) {
        return static_cast<double>(it * 10000 + src * 100 + dst);
      };
      const auto incoming =
          concat_exchange(rank, len, [&](int src, int dst) {
            return std::vector<double>(len(src, dst), value(src, dst));
          });
      for (int s = 0; s < rank.size(); ++s) {
        const auto& b = incoming[static_cast<std::size_t>(s)];
        ASSERT_EQ(b.size(), len(s, rank.id()));
        for (const double v : b) ASSERT_EQ(v, value(s, rank.id()));
      }
    }
  });
}

TEST(SimClusterStress, ReductionValuesNeverTearAcrossIterations) {
  // Back-to-back reductions with distinct per-iteration contributions: any
  // unsynchronised read of the shared result slot shows up as a wrong sum.
  const int p = 8;
  SimCluster cluster(p);
  const std::size_t iters = stress_iters(200);
  cluster.run([&](Rank& rank) {
    for (std::size_t it = 0; it < iters; ++it) {
      const double mine = static_cast<double>(it * p + rank.id());
      const double want =
          static_cast<double>(it * p * p + p * (p - 1) / 2);
      ASSERT_DOUBLE_EQ(rank.all_reduce_sum(mine), want);
    }
  });
}

}  // namespace
}  // namespace lc::comm
