// Tests for the topology-aware hierarchical exchange (ROADMAP item 1):
// node grouping, the composed node-multicast / all-to-all collectives, the
// per-level byte accounting, and the pipeline route equivalence (the
// hierarchical route must reproduce the flat exchange's result exactly —
// only the routing may change).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/hierarchical.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/topology.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "green/gaussian.hpp"
#include "green/kernel.hpp"

namespace lc::comm {
namespace {

TEST(Topology, FlatEveryRankItsOwnNode) {
  const Topology t = Topology::flat(4);
  EXPECT_EQ(t.ranks(), 4);
  EXPECT_EQ(t.nodes(), 4);
  EXPECT_TRUE(t.is_flat());
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(t.node_of(r), r);
    EXPECT_TRUE(t.is_leader(r));
    EXPECT_EQ(t.leader_of(r), r);
  }
  EXPECT_FALSE(t.same_node(0, 1));
  EXPECT_TRUE(t.same_node(2, 2));
}

TEST(Topology, GroupedContiguousBlocks) {
  const Topology t = Topology::grouped(8, 4);
  EXPECT_EQ(t.ranks(), 8);
  EXPECT_EQ(t.nodes(), 2);
  EXPECT_FALSE(t.is_flat());
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.leader_of(1), 4);
  EXPECT_TRUE(t.is_leader(0));
  EXPECT_TRUE(t.is_leader(4));
  EXPECT_FALSE(t.is_leader(5));
  EXPECT_TRUE(t.same_node(1, 3));
  EXPECT_FALSE(t.same_node(3, 4));
  const auto m = t.members(1);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.front(), 4);
  EXPECT_EQ(m.back(), 7);
}

TEST(Topology, RemainderRanksJoinLastNode) {
  const Topology t = Topology::grouped(10, 4);
  EXPECT_EQ(t.nodes(), 3);
  EXPECT_EQ(t.members(2).size(), 2u);
  EXPECT_EQ(t.node_of(9), 2);
  EXPECT_EQ(t.leader_of(2), 8);
}

TEST(Topology, RejectsBadShapes) {
  EXPECT_THROW(Topology::flat(0), InvalidArgument);
  EXPECT_THROW(Topology::grouped(4, 0), InvalidArgument);
  EXPECT_THROW(Topology::grouped(2, 4), InvalidArgument);
}

// Deterministic payload for (src rank, dst node, slot): both sides of every
// test below agree on it without communicating.
double bundle_value(int src, int dst_node, std::size_t j) {
  return 1000.0 * src + 10.0 * dst_node + static_cast<double>(j);
}

std::size_t bundle_len(int src, int dst_node, int nodes) {
  return static_cast<std::size_t>(src + dst_node * nodes + 1);
}

TEST(HierarchicalComm, NodeMulticastDeliversEverySourceBundle) {
  const Topology topo = Topology::grouped(6, 2);
  const int nodes = topo.nodes();
  SimCluster cluster(topo);
  cluster.run([&](Rank& rank) {
    const int me = rank.id();
    std::vector<std::vector<double>> outgoing(
        static_cast<std::size_t>(nodes));
    for (int d = 0; d < nodes; ++d) {
      auto& b = outgoing[static_cast<std::size_t>(d)];
      b.resize(bundle_len(me, d, nodes));
      for (std::size_t j = 0; j < b.size(); ++j) b[j] = bundle_value(me, d, j);
    }
    const auto incoming = node_multicast_exchange(
        rank, outgoing,
        [&](int src, int dst_node) { return bundle_len(src, dst_node, nodes); });

    // EVERY rank receives EVERY source's bundle for its own node — that is
    // the node-multicast contract (each receiver filters what it needs).
    const int my_node = rank.topology().node_of(me);
    ASSERT_EQ(incoming.size(), static_cast<std::size_t>(rank.size()));
    for (int src = 0; src < rank.size(); ++src) {
      const auto& b = incoming[static_cast<std::size_t>(src)];
      ASSERT_EQ(b.size(), bundle_len(src, my_node, nodes))
          << "src=" << src << " me=" << me;
      for (std::size_t j = 0; j < b.size(); ++j) {
        EXPECT_EQ(b[j], bundle_value(src, my_node, j));
      }
    }
  });
  EXPECT_EQ(cluster.stats().collective_rounds.load(), 1u);
}

TEST(HierarchicalComm, FlatTopologyDegeneratesToPersonalisedExchange) {
  // On a flat topology "node" == "rank": the collective must behave exactly
  // like a personalised all-to-all, one message per ordered pair.
  const int p = 4;
  SimCluster cluster(Topology::flat(p));
  cluster.run([&](Rank& rank) {
    const int me = rank.id();
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      outgoing[static_cast<std::size_t>(d)] = {
          static_cast<double>(me * 100 + d)};
    }
    const auto incoming = node_multicast_exchange(
        rank, outgoing, [](int, int) { return std::size_t{1}; });
    for (int s = 0; s < p; ++s) {
      EXPECT_EQ(incoming[static_cast<std::size_t>(s)].at(0),
                static_cast<double>(s * 100 + me));
    }
  });
  EXPECT_EQ(cluster.stats().messages.load(),
            static_cast<std::size_t>(p * (p - 1)));
  EXPECT_EQ(cluster.stats().intra_bytes_sent.load(), 0u);
}

TEST(HierarchicalComm, AllToAllMatchesBuiltinExactly) {
  const Topology topo = Topology::grouped(6, 3);
  const int p = topo.ranks();
  const auto pair_len = [p](int src, int dst) {
    return static_cast<std::size_t>((src * p + dst) % 5 + 1);
  };
  SimCluster cluster(topo);
  cluster.run([&](Rank& rank) {
    const int me = rank.id();
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      auto& b = outgoing[static_cast<std::size_t>(d)];
      b.resize(pair_len(me, d));
      for (std::size_t j = 0; j < b.size(); ++j) {
        b[j] = bundle_value(me, d, j);
      }
    }
    const auto via_hier = hierarchical_all_to_all(rank, outgoing, pair_len);
    const auto via_flat = rank.all_to_all(outgoing);
    ASSERT_EQ(via_hier.size(), via_flat.size());
    for (std::size_t s = 0; s < via_flat.size(); ++s) {
      EXPECT_EQ(via_hier[s], via_flat[s]) << "source " << s;
    }
  });
}

TEST(HierarchicalComm, PerLevelByteAccountingIsExact) {
  // Replay the schedule by hand for a 2-node/4-rank cluster with known
  // bundle sizes and demand the cluster's per-level counters match to the
  // byte: own-node multicast + non-leader gather + one inter message per
  // ordered node pair + leader redistribution.
  const Topology topo = Topology::grouped(4, 2);
  const int nodes = topo.nodes();
  const auto len = [nodes](int src, int dst_node) {
    return bundle_len(src, dst_node, nodes);
  };
  SimCluster cluster(topo);
  cluster.run([&](Rank& rank) {
    const int me = rank.id();
    std::vector<std::vector<double>> outgoing(
        static_cast<std::size_t>(nodes));
    for (int d = 0; d < nodes; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(len(me, d), 1.0);
    }
    (void)node_multicast_exchange(rank, outgoing, len);
  });

  std::size_t intra = 0, inter = 0, intra_msgs = 0, inter_msgs = 0;
  for (int me = 0; me < topo.ranks(); ++me) {
    const int my_node = topo.node_of(me);
    const auto members = topo.members(my_node);
    const std::size_t peers = members.size() - 1;
    intra += peers * len(me, my_node);  // own-node multicast
    intra_msgs += peers;
    if (!topo.is_leader(me)) {  // gather to leader
      for (int d = 0; d < nodes; ++d) {
        if (d != my_node) intra += len(me, d);
      }
      intra_msgs += 1;
      continue;
    }
    for (int d = 0; d < nodes; ++d) {  // leader: inter + redistribution
      if (d == my_node) continue;
      for (const int q : members) inter += len(q, d);
      inter_msgs += 1;
      std::size_t inbound = 0;
      for (const int q : topo.members(d)) inbound += len(q, my_node);
      intra += peers * inbound;
      intra_msgs += peers;
    }
  }
  const auto& s = cluster.stats();
  EXPECT_EQ(s.intra_bytes_sent.load(), intra * sizeof(double));
  EXPECT_EQ(s.inter_bytes_sent.load(), inter * sizeof(double));
  EXPECT_EQ(s.intra_messages.load(), intra_msgs);
  EXPECT_EQ(s.inter_messages.load(), inter_msgs);
  EXPECT_EQ(s.bytes_sent.load(), (intra + inter) * sizeof(double));
  EXPECT_EQ(s.bytes_received.load(), s.bytes_sent.load());
  EXPECT_EQ(s.messages_received.load(), s.messages.load());
}

TEST(HierarchicalComm, OracleMismatchThrows) {
  const Topology topo = Topology::grouped(4, 2);
  SimCluster cluster(topo);
  EXPECT_THROW(
      cluster.run([&](Rank& rank) {
        std::vector<std::vector<double>> outgoing(
            static_cast<std::size_t>(topo.nodes()),
            std::vector<double>(3, 0.0));
        // Oracle disagrees with the actual bundle sizes.
        (void)node_multicast_exchange(rank, outgoing,
                                      [](int, int) { return std::size_t{2}; });
      }),
      InvalidArgument);
}

TEST(HierarchicalComm, OracleDisagreementThrowsOrDeliversSentBundles) {
  // One rank's size oracle disagrees with every other rank's for one
  // (source, node) pair, one double shorter or longer. Over all choices the
  // perturbing rank takes every role in turn — the source itself, the
  // gathering leader, the receiving leader, a forwarded-to peer, a
  // bystander — and the exchange must either throw or hand every rank
  // exactly the bundles that were sent: never mis-framed data, never a
  // hang. The cluster must still run a correct exchange afterwards.
  const Topology topo = Topology::grouped(6, 3);
  const int nodes = topo.nodes();
  SimCluster cluster(topo);
  // Ships the true bundles; `believed(me, src, node)` is the size rank `me`
  // expects from src for node. Returns how many received bundles differ
  // from what was sent.
  const auto exchange = [&](const auto& believed) {
    std::atomic<int> misframed{0};
    cluster.run([&](Rank& rank) {
      const int me = rank.id();
      std::vector<std::vector<double>> outgoing(
          static_cast<std::size_t>(nodes));
      for (int d = 0; d < nodes; ++d) {
        auto& b = outgoing[static_cast<std::size_t>(d)];
        b.resize(bundle_len(me, d, nodes));
        for (std::size_t j = 0; j < b.size(); ++j) b[j] = bundle_value(me, d, j);
      }
      const auto incoming = node_multicast_exchange(
          rank, outgoing,
          [&](int src, int dst_node) { return believed(me, src, dst_node); });
      const int my_node = rank.topology().node_of(me);
      for (int src = 0; src < rank.size(); ++src) {
        std::vector<double> sent(bundle_len(src, my_node, nodes));
        for (std::size_t j = 0; j < sent.size(); ++j) {
          sent[j] = bundle_value(src, my_node, j);
        }
        if (incoming[static_cast<std::size_t>(src)] != sent) {
          misframed.fetch_add(1);
        }
      }
    });
    return misframed.load();
  };

  int threw = 0;
  int delivered = 0;
  for (int perturber = 0; perturber < topo.ranks(); ++perturber) {
    for (int src = 0; src < topo.ranks(); ++src) {
      for (int node = 0; node < nodes; ++node) {
        for (const int delta : {-1, 1}) {
          const auto believed = [&](int me, int s, int d) {
            const std::size_t len = bundle_len(s, d, nodes);
            if (me != perturber || s != src || d != node) return len;
            return delta < 0 ? len - 1 : len + 1;
          };
          try {
            EXPECT_EQ(exchange(believed), 0)
                << "rank " << perturber << " mis-sizes (" << src << ", "
                << node << ") by " << delta;
            ++delivered;
          } catch (const Error&) {
            ++threw;
          }
        }
      }
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(exchange([nodes](int, int s, int d) {
              return bundle_len(s, d, nodes);
            }),
            0);
}

class LowCommPipelineHierarchical : public ::testing::Test {
 protected:
  static core::LowCommParams params(i64 k, i64 rate) {
    core::LowCommParams p;
    p.subdomain = k;
    p.far_rate = rate;
    p.uniform_rate = rate;
    p.batch = 256;
    return p;
  }

  static RealField random_field(const Grid3& g, std::uint64_t seed) {
    RealField f(g);
    SplitMix64 rng(seed);
    for (auto& v : f.span()) v = rng.uniform(-1.0, 1.0);
    return f;
  }

  static void expect_bit_equal(const RealField& want, const RealField& got,
                               const std::string& what) {
    const auto ws = want.span();
    const auto gs = got.span();
    ASSERT_EQ(ws.size(), gs.size()) << what;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      ASSERT_EQ(ws[i], gs[i]) << what << " at " << i;
    }
  }
};

TEST_F(LowCommPipelineHierarchical, RouteMatchesFlatExchange) {
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 42);
  const auto p = params(16, 2);
  const Topology topo = Topology::grouped(4, 2);

  SimCluster flat_cluster(topo);
  const RealField flat = core::distributed_lowcomm_convolve(
      flat_cluster, input, g, kernel, p, core::ExchangeRoute::kFlat);
  SimCluster hier_cluster(topo);
  const RealField hier = core::distributed_lowcomm_convolve(
      hier_cluster, input, g, kernel, p, core::ExchangeRoute::kHierarchical);

  const auto fs = flat.span();
  const auto hs = hier.span();
  ASSERT_EQ(fs.size(), hs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    ASSERT_NEAR(fs[i], hs[i], 1e-12) << "at " << i;
  }
}

TEST_F(LowCommPipelineHierarchical, AutoRoutePicksTopology) {
  // kAuto on a grouped cluster must take the hierarchical schedule (visible
  // in the collapsed message count) and still equal the flat-route result.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 7);
  const auto p = params(16, 2);

  SimCluster grouped(Topology::grouped(4, 2));
  const RealField auto_routed =
      core::distributed_lowcomm_convolve(grouped, input, g, kernel, p);
  const comm::LevelTraffic want = core::lowcomm_exchange_traffic(
      core::LowCommConvolution(g, kernel, p), grouped.topology(),
      core::ExchangeRoute::kHierarchical);
  EXPECT_EQ(grouped.stats().messages.load(), want.total_messages());

  SimCluster flat_cluster(4);
  const RealField flat =
      core::distributed_lowcomm_convolve(flat_cluster, input, g, kernel, p);
  const auto as = auto_routed.span();
  const auto fs = flat.span();
  for (std::size_t i = 0; i < fs.size(); ++i) {
    ASSERT_NEAR(fs[i], as[i], 1e-12) << "at " << i;
  }
}

TEST_F(LowCommPipelineHierarchical, StaticTrafficMirrorsExecutedStats) {
  // The static per-level mirror must equal the executed per-level counters
  // byte for byte and message for message, on BOTH routes — that is the
  // header-free-framing guarantee (the wire carries no metadata, so the
  // whole schedule is computable offline).
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 3);
  const auto p = params(16, 2);
  const Topology topo = Topology::grouped(4, 2);
  const core::LowCommConvolution engine(g, kernel, p);

  for (const auto route :
       {core::ExchangeRoute::kFlat, core::ExchangeRoute::kHierarchical}) {
    SimCluster cluster(topo);
    (void)core::distributed_lowcomm_convolve(cluster, input, g, kernel, p,
                                             route);
    const comm::LevelTraffic want =
        core::lowcomm_exchange_traffic(engine, topo, route);
    const comm::LevelTraffic got = cluster.stats().level_traffic();
    EXPECT_EQ(got.intra_bytes, want.intra_bytes);
    EXPECT_EQ(got.inter_bytes, want.inter_bytes);
    EXPECT_EQ(got.intra_messages, want.intra_messages);
    EXPECT_EQ(got.inter_messages, want.inter_messages);
  }
}

TEST_F(LowCommPipelineHierarchical, GroupedRouteCutsInterNodeBytes) {
  // The acceptance shape of the PR at test scale: with coarse cells
  // straddling several ranks' regions, packing per NODE dedups the
  // inter-node volume strictly below the flat route's. 12 ranks over the 64
  // sub-domains leave uneven Morton runs that straddle octants — under the
  // blocked assignment an octant-aligned rank count (e.g. 8) gives every
  // rank a cell-aligned cube, node-local sharing vanishes, and the two
  // routes tie on bytes (locality already captured the dedup win).
  const Grid3 g = Grid3::cube(64);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const auto p = params(16, 4);
  const core::LowCommConvolution engine(g, kernel, p);
  const Topology topo = Topology::grouped(12, 4);

  const auto flat =
      core::lowcomm_exchange_traffic(engine, topo, core::ExchangeRoute::kFlat);
  const auto hier = core::lowcomm_exchange_traffic(
      engine, topo, core::ExchangeRoute::kHierarchical);
  EXPECT_LT(hier.inter_bytes, flat.inter_bytes);
  EXPECT_LT(hier.inter_messages, flat.inter_messages);
  // Payload conservation: whatever the route, every (cell, destination
  // rank) pair still gets delivered — the flat wire volume lower-bounds
  // nothing about the hierarchical intra level, but the inter level can
  // only shrink (never grow) under node-union packing.
  EXPECT_LE(hier.inter_bytes, flat.inter_bytes);
}

// Wire-codec behaviour of the full distributed pipeline (DESIGN.md §17):
// route equivalence, static-mirror byte-exactness, and run-to-run
// determinism must all hold under every codec, not just fp64 passthrough.
class LowCommPipelineWire : public LowCommPipelineHierarchical {};

TEST_F(LowCommPipelineWire, FlatAndHierarchicalBitIdenticalUnderEveryCodec) {
  // Encoding is pure per cell and every contribution (own and remote) is
  // codec round-tripped on both routes, so flat and hierarchical must stay
  // BIT-identical under lossy codecs too — not merely close.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 21);
  const Topology topo = Topology::grouped(4, 2);

  for (const WireCodec codec : kAllWireCodecs) {
    auto p = params(16, 2);
    p.wire = codec;
    SimCluster flat_cluster(topo);
    const RealField flat = core::distributed_lowcomm_convolve(
        flat_cluster, input, g, kernel, p, core::ExchangeRoute::kFlat);
    SimCluster hier_cluster(topo);
    const RealField hier = core::distributed_lowcomm_convolve(
        hier_cluster, input, g, kernel, p, core::ExchangeRoute::kHierarchical);
    const auto fs = flat.span();
    const auto hs = hier.span();
    ASSERT_EQ(fs.size(), hs.size());
    for (std::size_t i = 0; i < fs.size(); ++i) {
      ASSERT_EQ(fs[i], hs[i]) << codec_name(codec) << " at " << i;
    }
  }
}

TEST_F(LowCommPipelineWire, StaticMirrorMatchesExecutedStatsUnderEveryCodec) {
  // The header-free framing contract extended to encoded payloads: the
  // static mirror must equal the executed per-level counters byte for byte
  // for every codec on both routes.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 22);
  const Topology topo = Topology::grouped(4, 2);

  for (const WireCodec codec : kAllWireCodecs) {
    auto p = params(16, 2);
    p.wire = codec;
    const core::LowCommConvolution engine(g, kernel, p);
    for (const auto route :
         {core::ExchangeRoute::kFlat, core::ExchangeRoute::kHierarchical}) {
      SimCluster cluster(topo);
      (void)core::distributed_lowcomm_convolve(cluster, input, g, kernel, p,
                                               route);
      const comm::LevelTraffic want =
          core::lowcomm_exchange_traffic(engine, topo, route);
      const comm::LevelTraffic got = cluster.stats().level_traffic();
      EXPECT_EQ(got.intra_bytes, want.intra_bytes) << codec_name(codec);
      EXPECT_EQ(got.inter_bytes, want.inter_bytes) << codec_name(codec);
      EXPECT_EQ(got.intra_messages, want.intra_messages) << codec_name(codec);
      EXPECT_EQ(got.inter_messages, want.inter_messages) << codec_name(codec);
    }
  }
}

TEST_F(LowCommPipelineWire, ExchangeBytesOracleMatchesFlatRunUnderQ16) {
  // lowcomm_exchange_bytes is the flat-topology wire-byte oracle; under a
  // codec it must still equal what a flat cluster actually records.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 23);
  auto p = params(16, 2);
  p.wire = WireCodec::kQ16;
  const core::LowCommConvolution engine(g, kernel, p);

  SimCluster cluster(Topology::flat(4));
  (void)core::distributed_lowcomm_convolve(cluster, input, g, kernel, p,
                                           core::ExchangeRoute::kFlat);
  EXPECT_EQ(cluster.stats().bytes_sent.load(),
            core::lowcomm_exchange_bytes(engine, 4));

  // And the 2-byte codec must actually cut the volume vs fp64: ≥2× fewer
  // wire bytes even with the per-cell scale headers.
  auto p_off = params(16, 2);
  p_off.wire = WireCodec::kOff;
  const core::LowCommConvolution engine_off(g, kernel, p_off);
  EXPECT_GE(core::lowcomm_exchange_bytes(engine_off, 4),
            2 * core::lowcomm_exchange_bytes(engine, 4));
}

TEST_F(LowCommPipelineWire, RepeatedRunsBitIdenticalUnderQ16) {
  // Decode→accumulate must stay bit-identical across repeated runs whatever
  // the thread interleaving (slot-based accumulation ordering, PR-6): the
  // codec adds per-cell encode/decode but no order-dependent arithmetic.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 24);
  auto p = params(16, 2);
  p.wire = WireCodec::kQ16;
  const Topology topo = Topology::grouped(4, 2);

  SimCluster first(topo);
  const RealField reference =
      core::distributed_lowcomm_convolve(first, input, g, kernel, p);
  for (int run = 1; run < 4; ++run) {
    SimCluster cluster(topo);
    const RealField again =
        core::distributed_lowcomm_convolve(cluster, input, g, kernel, p);
    expect_bit_equal(reference, again, "fresh cluster run " +
                                           std::to_string(run));
  }
  // Repeated calls on one reused cluster run from its kept exchange plan
  // and must give the same bits as the call that built it.
  for (int run = 1; run < 4; ++run) {
    const RealField again =
        core::distributed_lowcomm_convolve(first, input, g, kernel, p);
    expect_bit_equal(reference, again, "reused cluster run " +
                                           std::to_string(run));
  }
}

// One cluster serving a sequence of different plans: the memo keeps only
// the latest plan, so every change of codec, rate or route rebuilds it, and
// returning to an earlier configuration rebuilds that one again.
class LowCommPipelineReuse : public LowCommPipelineHierarchical {
 protected:
  struct Config {
    WireCodec codec;
    i64 rate;
    core::ExchangeRoute route;
  };

  /// Run `p` on `cluster` and check the output against a fresh cluster's
  /// and the CommStats delta against the static mirror.
  static void expect_matches_fresh_cluster(
      SimCluster& cluster, const RealField& input,
      const std::shared_ptr<const green::KernelSpectrum>& kernel,
      const core::LowCommParams& p, core::ExchangeRoute route,
      const std::string& what) {
    const Grid3& g = input.grid();
    const LevelTraffic before = cluster.stats().level_traffic();
    const RealField got =
        core::distributed_lowcomm_convolve(cluster, input, g, kernel, p, route);
    const LevelTraffic after = cluster.stats().level_traffic();
    SimCluster fresh(cluster.topology());
    const RealField want =
        core::distributed_lowcomm_convolve(fresh, input, g, kernel, p, route);
    expect_bit_equal(want, got, what);
    const LevelTraffic mirror =
        core::lowcomm_exchange_traffic(g, p, cluster.topology(), route);
    EXPECT_EQ(after.intra_bytes - before.intra_bytes, mirror.intra_bytes)
        << what;
    EXPECT_EQ(after.inter_bytes - before.inter_bytes, mirror.inter_bytes)
        << what;
    EXPECT_EQ(after.intra_messages - before.intra_messages,
              mirror.intra_messages)
        << what;
    EXPECT_EQ(after.inter_messages - before.inter_messages,
              mirror.inter_messages)
        << what;
  }
};

TEST_F(LowCommPipelineReuse, AlternatingPlansMatchFreshClusters) {
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 26);
  SimCluster cluster(Topology::grouped(4, 2));

  const Config configs[] = {
      {WireCodec::kOff, 2, core::ExchangeRoute::kFlat},
      {WireCodec::kQ16, 2, core::ExchangeRoute::kFlat},
      {WireCodec::kQ16, 4, core::ExchangeRoute::kHierarchical},
      {WireCodec::kBf16, 4, core::ExchangeRoute::kHierarchical},
      {WireCodec::kBf16, 4, core::ExchangeRoute::kFlat},
      {WireCodec::kOff, 2, core::ExchangeRoute::kFlat},
      {WireCodec::kOff, 2, core::ExchangeRoute::kFlat},
  };
  for (const Config& c : configs) {
    auto p = params(16, c.rate);
    p.uniform_rate.reset();  // banded: far_rate shapes the outer band
    p.wire = c.codec;
    expect_matches_fresh_cluster(
        cluster, input, kernel, p, c.route,
        std::string(codec_name(c.codec)) + " r=" + std::to_string(c.rate) +
            (c.route == core::ExchangeRoute::kFlat ? " flat" : " hier"));
  }
}

/// Gaussian spectrum that throws once `fuse` evaluations (over all ranks)
/// have been made; counts evaluations when the fuse never blows.
class FusedSpectrum final : public green::KernelSpectrum {
 public:
  FusedSpectrum(std::shared_ptr<const green::KernelSpectrum> inner,
                std::int64_t fuse)
      : inner_(std::move(inner)), fuse_(fuse) {}

  [[nodiscard]] green::cplx eval(const Index3& bin,
                                 const Grid3& g) const override {
    burn(1);
    return inner_->eval(bin, g);
  }
  void eval_z_run(const Index3& start, const Grid3& g,
                  std::span<green::cplx> out) const override {
    burn(static_cast<std::int64_t>(out.size()));
    inner_->eval_z_run(start, g, out);
  }
  [[nodiscard]] std::string name() const override { return "fused"; }
  [[nodiscard]] std::int64_t evaluations() const { return calls_.load(); }

 private:
  void burn(std::int64_t evals) const {
    if (calls_.fetch_add(evals) + evals > fuse_) {
      throw std::runtime_error("synthetic kernel fault");
    }
  }

  std::shared_ptr<const green::KernelSpectrum> inner_;
  std::int64_t fuse_;
  mutable std::atomic<std::int64_t> calls_{0};
};

TEST_F(LowCommPipelineReuse, CallAfterMidExchangeAbortIsCorrect) {
  const Grid3 g = Grid3::cube(32);
  const auto gauss = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 27);
  auto p = params(16, 2);
  p.wire = WireCodec::kQ16;
  SimCluster cluster(Topology::grouped(4, 2));

  // Blow the fuse on the run's very last kernel evaluation: by then the
  // other ranks have finished convolving and wait inside the exchange, so
  // they unwind from it with RankAborted.
  const auto counter = std::make_shared<FusedSpectrum>(gauss, INT64_MAX);
  SimCluster counting(cluster.topology());
  (void)core::distributed_lowcomm_convolve(counting, input, g, counter, p);
  const auto faulty =
      std::make_shared<FusedSpectrum>(gauss, counter->evaluations() - 1);
  EXPECT_THROW((void)core::distributed_lowcomm_convolve(cluster, input, g,
                                                        faulty, p),
               std::runtime_error);

  // The kept plan survives the abort; the next call on the same cluster
  // must be exactly right.
  expect_matches_fresh_cluster(cluster, input, counter, p,
                               core::ExchangeRoute::kAuto, "after abort");
}

TEST_F(LowCommPipelineWire, LossyCodecsStayCloseToOff) {
  // End-to-end accuracy: the distributed result under each lossy codec must
  // stay within its analytic error scale of the bit-exact off result.
  const Grid3 g = Grid3::cube(32);
  const auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 25);
  const Topology topo = Topology::grouped(4, 2);

  auto p = params(16, 2);
  p.wire = WireCodec::kOff;
  SimCluster off_cluster(topo);
  const RealField off = core::distributed_lowcomm_convolve(
      off_cluster, input, g, kernel, p);

  for (const WireCodec codec :
       {WireCodec::kFp32, WireCodec::kFp16, WireCodec::kBf16,
        WireCodec::kQ16}) {
    p.wire = codec;
    SimCluster cluster(topo);
    const RealField got =
        core::distributed_lowcomm_convolve(cluster, input, g, kernel, p);
    const double err = relative_l2_error(got.span(), off.span());
    // codec_rel_error is the calibrated planner bound; the measured
    // end-to-end deviation must come in below it with margin to spare.
    EXPECT_LE(err, codec_rel_error(codec)) << codec_name(codec);
    EXPECT_GT(err, 0.0) << codec_name(codec);  // lossy codecs really quantise
  }
}

TEST(CostModelHierarchical, PredictedTimesSplitByLevel) {
  HierarchicalLinkModel links;
  links.intra = {1e-7, 1e-11};
  links.inter = {1e-6, 1e-10};
  LevelTraffic t;
  t.intra_bytes = 1000;
  t.inter_bytes = 500;
  t.intra_messages = 3;
  t.inter_messages = 2;
  const LevelTimes times = predict_exchange_times(t, links);
  EXPECT_DOUBLE_EQ(times.intra_seconds, 3 * 1e-7 + 1000 * 1e-11);
  EXPECT_DOUBLE_EQ(times.inter_seconds, 2 * 1e-6 + 500 * 1e-10);
  EXPECT_DOUBLE_EQ(times.total_seconds(),
                   times.intra_seconds + times.inter_seconds);
}

TEST(CostModelHierarchical, AnalyticModelsConserveVolumeAndShrinkInter) {
  const int p = 64;
  const double volume = 1.0e6;
  const auto flat1 = flat_exchange_traffic(p, 1, volume);
  EXPECT_EQ(flat1.intra_bytes, 0u);
  // Flat topology: everything inter, p(p-1) messages of V/(p-1) each.
  EXPECT_EQ(flat1.inter_messages, static_cast<std::size_t>(p * (p - 1)));
  EXPECT_NEAR(static_cast<double>(flat1.inter_bytes),
              static_cast<double>(p) * volume, 64.0);

  for (const int g : {2, 8, 32}) {
    const auto flat = flat_exchange_traffic(p, g, volume);
    const auto lo = hierarchical_exchange_traffic(p, g, volume, 1.0);
    const auto hi = hierarchical_exchange_traffic(
        p, g, volume, static_cast<double>(g));
    // Without overlap the inter level only re-routes (equal bytes, fewer
    // messages); with full overlap it shrinks by the dedup factor.
    EXPECT_NEAR(static_cast<double>(lo.inter_bytes),
                static_cast<double>(flat.inter_bytes), 64.0)
        << "g=" << g;
    EXPECT_LT(lo.inter_messages, flat.inter_messages) << "g=" << g;
    EXPECT_NEAR(static_cast<double>(hi.inter_bytes),
                static_cast<double>(flat.inter_bytes) / g, 64.0)
        << "g=" << g;
  }
  EXPECT_THROW(hierarchical_exchange_traffic(10, 4, 1.0, 1.0),
               InvalidArgument);
  EXPECT_THROW(hierarchical_exchange_traffic(8, 4, 1.0, 0.5),
               InvalidArgument);
}

}  // namespace
}  // namespace lc::comm
