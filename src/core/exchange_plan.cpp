#include "core/exchange_plan.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "comm/hierarchical.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::core {

ExchangeRoute resolve_route(ExchangeRoute route,
                            const comm::Topology& topo) noexcept {
  if (route != ExchangeRoute::kAuto) return route;
  return topo.is_flat() ? ExchangeRoute::kFlat : ExchangeRoute::kHierarchical;
}

ExchangePlan::ExchangePlan(const Grid3& grid, const LowCommParams& params,
                           comm::Topology topo, ExchangeRoute route)
    : ExchangePlan(grid, params, std::move(topo), route, /*retain=*/true) {}

comm::LevelTraffic ExchangePlan::mirror(const Grid3& grid,
                                        const LowCommParams& params,
                                        comm::Topology topo,
                                        ExchangeRoute route) {
  return ExchangePlan(grid, params, std::move(topo), route, /*retain=*/false)
      .traffic();
}

std::string ExchangePlan::key(const Grid3& grid, const LowCommParams& params,
                              ExchangeRoute resolved) {
  std::string key = "exchange-plan/n=" + std::to_string(grid.nx) + "x" +
                    std::to_string(grid.ny) + "x" + std::to_string(grid.nz);
  key += "/k=" + std::to_string(params.subdomain) +
         "/far=" + std::to_string(params.far_rate) +
         "/band=" + std::to_string(params.boundary_band) +
         "/halo=" + std::to_string(params.dense_halo) + "/uniform=" +
         (params.uniform_rate ? std::to_string(*params.uniform_rate) : "-");
  key += std::string("/wire=") + comm::codec_name(params.wire);
  key += resolved == ExchangeRoute::kHierarchical ? "/route=hier"
                                                  : "/route=flat";
  return key;
}

ExchangePlan::ExchangePlan(const Grid3& grid, const LowCommParams& params,
                           comm::Topology topo, ExchangeRoute route,
                           bool retain)
    : decomp_(grid, params.subdomain),
      topo_(std::move(topo)),
      hierarchical_(resolve_route(route, topo_) ==
                    ExchangeRoute::kHierarchical),
      codec_(params.wire),
      words_((static_cast<std::size_t>(topo_.ranks()) + 63) / 64) {
  LC_TRACE("exchange.plan_build");
  const auto ranks = static_cast<std::size_t>(topo_.ranks());
  const auto nodes = static_cast<std::size_t>(topo_.nodes());
  rank_groups_.resize(ranks);
  owner_.assign(decomp_.count(), 0);
  for (int r = 0; r < topo_.ranks(); ++r) {
    for (const std::size_t d : decomp_.assigned_to(r, topo_.ranks())) {
      owner_[d] = r;
    }
    for (const Box3& box : decomp_.groups_of(r, topo_.ranks())) {
      rank_groups_[static_cast<std::size_t>(r)].push_back(boxes_.size());
      boxes_.push_back(box);
    }
  }

  const auto policy = params.make_policy();
  if (retain) {
    trees_.resize(boxes_.size());
    masks_.resize(boxes_.size());
  }

  // Encoded bytes per (source, destination rank) and, on the hierarchical
  // route, per (source, node) — a cell enters a node's bundle once however
  // many members need it (mask bits run in rank order and nodes are
  // contiguous rank blocks) — then rounded up to whole wire doubles once
  // per buffer.
  pair_doubles_.assign(ranks * ranks, 0);
  if (hierarchical_) node_doubles_.assign(ranks * nodes, 0);
  for (std::size_t src = 0; src < ranks; ++src) {
    std::size_t* pair_row = pair_doubles_.data() + src * ranks;
    std::size_t* node_row =
        hierarchical_ ? node_doubles_.data() + src * nodes : nullptr;
    for (const std::size_t g : rank_groups_[src]) {
      auto tree =
          std::make_shared<const sampling::Octree>(grid, boxes_[g], policy);
      auto masks = cell_masks(*tree);
      const auto cells = tree->cells();
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        const std::size_t bytes =
            comm::encoded_cell_bytes(codec_, cells[ci].sample_count());
        int last_node = -1;
        for (std::size_t w = 0; w < words_; ++w) {
          for (std::uint64_t bits = masks[ci * words_ + w]; bits != 0;
               bits &= bits - 1) {
            const int r =
                static_cast<int>(w * 64) + std::countr_zero(bits);
            pair_row[r] += bytes;
            if (node_row == nullptr) continue;
            const int node = topo_.node_of(r);
            if (node != last_node) {
              node_row[node] += bytes;
              last_node = node;
            }
          }
        }
      }
      if (retain) {
        trees_[g] = std::move(tree);
        masks_[g] = std::move(masks);
      }
    }
  }
  for (std::size_t& b : pair_doubles_) b = comm::wire_doubles(b);
  for (std::size_t& b : node_doubles_) b = comm::wire_doubles(b);
  replay_schedule();
}

std::vector<std::uint64_t> ExchangePlan::cell_masks(
    const sampling::Octree& tree) const {
  // Sub-domains tile the grid as a regular x-fastest lattice of k-cubes, so
  // the ones a cell overlaps are a block range per axis — no need to test
  // the cell against every sub-domain.
  const i64 k = decomp_.subdomain_size();
  const i64 per_axis = decomp_.grid().nx / k;
  const auto cells = tree.cells();
  std::vector<std::uint64_t> bits(cells.size() * words_, 0);
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    const Box3 box = cells[ci].box();
    for (i64 bz = box.lo.z / k; bz <= (box.hi.z - 1) / k; ++bz) {
      for (i64 by = box.lo.y / k; by <= (box.hi.y - 1) / k; ++by) {
        for (i64 bx = box.lo.x / k; bx <= (box.hi.x - 1) / k; ++bx) {
          const auto d = static_cast<std::size_t>((bz * per_axis + by) *
                                                      per_axis +
                                                  bx);
          const auto r = static_cast<std::size_t>(owner_[d]);
          bits[ci * words_ + r / 64] |= std::uint64_t{1} << (r % 64);
        }
      }
    }
  }
  return bits;
}

void ExchangePlan::replay_schedule() {
  const int ranks = topo_.ranks();
  const auto count = [&](bool inter, std::size_t doubles) {
    if (inter) {
      traffic_.inter_bytes += doubles * sizeof(double);
      traffic_.inter_messages += 1;
    } else {
      traffic_.intra_bytes += doubles * sizeof(double);
      traffic_.intra_messages += 1;
    }
  };

  if (!hierarchical_) {
    // Flat route: one message per ordered rank pair (empty ones included —
    // all_to_all ships them too), classified by node co-residency.
    for (int src = 0; src < ranks; ++src) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst != src) {
          count(!topo_.same_node(src, dst), pair_doubles(src, dst));
        }
      }
    }
    return;
  }

  // Hierarchical route: replay hierarchical_exchange's schedule — direct
  // own-node buffers, non-leader gather, one inter message per ordered node
  // pair, and one message per (source node, mate) from the leader holding
  // only that mate's pieces.
  for (int me = 0; me < ranks; ++me) {
    const int my_node = topo_.node_of(me);
    const auto members = topo_.members(my_node);
    for (const int q : members) {
      if (q != me) count(false, pair_doubles(me, q));
    }
    if (!topo_.is_leader(me)) {
      std::size_t remote = 0;
      for (int n = 0; n < topo_.nodes(); ++n) {
        if (n != my_node) remote += node_doubles(me, n);
      }
      count(false, remote);
      continue;
    }
    for (int n = 0; n < topo_.nodes(); ++n) {
      if (n == my_node) continue;
      std::size_t combined = 0;
      for (const int q : members) combined += node_doubles(q, n);
      count(!topo_.same_node(me, topo_.leader_of(n)), combined);
      for (const int q : members) {
        if (q == me) continue;
        std::size_t pieces = 0;
        for (const int src : topo_.members(n)) pieces += pair_doubles(src, q);
        count(false, pieces);
      }
    }
  }
}

std::vector<std::vector<double>> ExchangePlan::split_bundle(
    int src, int node, std::span<const double> bundle) const {
  const auto members = topo_.members(node);
  std::vector<std::vector<double>> pieces(members.size());
  std::vector<comm::WireEncoder> enc;
  enc.reserve(members.size());
  for (auto& piece : pieces) enc.emplace_back(codec_, piece);
  comm::WireDecoder dec(codec_, bundle);
  for (const std::size_t g : groups_of(src)) {
    const auto cells = trees_[g]->cells();
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (!needed_by_node(g, ci, node)) continue;
      const auto encoded = dec.read_encoded_cell(cells[ci].sample_count());
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (needed(g, ci, members[i])) enc[i].add_encoded_cell(encoded);
      }
    }
  }
  dec.finish();
  for (auto& e : enc) e.finish();
  return pieces;
}

ExchangeOutcome exchange_samples(comm::Rank& rank, const ExchangePlan& plan,
                                 std::vector<sampling::CompressedField> local) {
  static obs::Counter& samples_shipped =
      obs::Registry::global().counter("exchange.samples_shipped");
  static obs::Counter& payload_bytes =
      obs::Registry::global().counter("exchange.payload_bytes");
  static obs::Counter& bytes_saved =
      obs::Registry::global().counter("exchange.bytes_saved");
  static obs::Gauge& max_quant_error =
      obs::Registry::global().gauge("exchange.max_quant_error");

  const int me = rank.id();
  const comm::Topology& topo = rank.topology();
  const int my_node = topo.node_of(me);
  const auto& mine = plan.groups_of(me);
  LC_CHECK_ARG(local.size() == mine.size(),
               "exchange_samples needs one contribution per owned group");

  // Pack into `out` the cells `wanted(group, cell)` selects, in (owned
  // group, cell) order. Unique payload leaving this rank,
  // under the active codec: raw samples shipped keep counting doubles (the
  // pre-codec figure), payload_bytes counts actual wire bytes, and their
  // difference accumulates into bytes_saved (saturating: tiny q16 cells can
  // cost more than raw). Each buffer counts once; the self buffer never
  // leaves the rank.
  ExchangeOutcome outcome;
  const auto pack = [&](std::vector<double>& out, bool leaves,
                        const auto& wanted) {
    comm::WireEncoder enc(plan.codec(), out);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const auto cells = local[i].octree().cells();
      const auto payload = local[i].samples();
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        if (!wanted(mine[i], ci)) continue;
        enc.add_cell(payload.subspan(cells[ci].sample_offset,
                                     cells[ci].sample_count()));
      }
    }
    enc.finish();
    if (!leaves) return;
    const std::size_t wire = out.size() * sizeof(double);
    samples_shipped.add(enc.raw_bytes() / sizeof(double));
    payload_bytes.add(wire);
    bytes_saved.add(enc.raw_bytes() > wire ? enc.raw_bytes() - wire : 0);
    outcome.max_quant_error =
        std::max(outcome.max_quant_error, enc.max_abs_error());
  };

  // The single global exchange of the method (Fig 1b). Destinations are
  // every rank on the flat route; on the hierarchical one, each node-mate
  // (self included) plus one bundle per remote node holding every cell any
  // of its members needs once, so a shared cell crosses the inter-node
  // link a single time.
  std::vector<std::vector<double>> direct(
      static_cast<std::size_t>(rank.size()));
  std::vector<std::vector<double>> bundles(
      plan.hierarchical() ? static_cast<std::size_t>(topo.nodes()) : 0);
  {
    LC_TRACE("exchange.pack");
    for (int r = 0; r < rank.size(); ++r) {
      if (plan.hierarchical() && !topo.same_node(me, r)) continue;
      pack(direct[static_cast<std::size_t>(r)], r != me,
           [&](std::size_t g, std::size_t ci) {
             return plan.needed(g, ci, r);
           });
    }
    for (int n = 0; n < static_cast<int>(bundles.size()); ++n) {
      if (n == my_node) continue;
      pack(bundles[static_cast<std::size_t>(n)], true,
           [&](std::size_t g, std::size_t ci) {
             return plan.needed_by_node(g, ci, n);
           });
    }
    local.clear();
    max_quant_error.record_max(outcome.max_quant_error);
  }

  if (plan.hierarchical()) {
    LC_TRACE("exchange.hierarchical");
    const comm::HierarchicalFraming framing{
        [&plan](int src, int dst) { return plan.pair_doubles(src, dst); },
        [&plan](int src, int node) { return plan.node_doubles(src, node); },
        [&plan, my_node](int src, std::span<const double> bundle) {
          return plan.split_bundle(src, my_node, bundle);
        }};
    outcome.incoming = comm::hierarchical_exchange(
        rank, std::move(direct), std::move(bundles), framing);
  } else {
    LC_TRACE("exchange.all_to_all");
    outcome.incoming = rank.all_to_all(direct);
  }
  return outcome;
}

}  // namespace lc::core
