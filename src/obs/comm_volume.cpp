#include "obs/comm_volume.hpp"

#include <cstdio>

#include "comm/cost_model.hpp"
#include "common/check.hpp"

namespace lc::obs {
namespace {

CommVolumeReport measure_impl(const core::LowCommConvolution& engine,
                              int workers, std::size_t wire_bytes) {
  LC_CHECK_ARG(workers >= 1, "measure_comm_volume: workers must be >= 1");
  const core::DomainDecomposition& decomp = engine.decomposition();
  const Grid3& grid = decomp.grid();

  CommVolumeReport rep;
  rep.n = grid.nx;
  rep.k = decomp.subdomain_size();
  rep.workers = workers;
  rep.subdomains = decomp.count();

  // Effective exterior rate of the actual policy (exact for uniform
  // policies, the volume-weighted average for banded ones). Sub-domains are
  // congruent under the policy's distance bands, so one is representative.
  const sampling::SamplingPolicy policy = engine.params().make_policy();
  rep.r = policy.effective_exterior_rate(grid, decomp.subdomain(0));

  rep.codec = engine.params().wire;
  for (std::size_t d = 0; d < decomp.count(); ++d) {
    const auto tree = engine.octree_for(d);
    rep.payload_bytes += tree->total_samples() * sizeof(double);
    rep.cells += tree->cells().size();
    for (const sampling::OctreeCell& cell : tree->cells()) {
      const std::size_t interior =
          static_cast<std::size_t>(cell.side / cell.rate);
      rep.unique_bytes += interior * interior * interior * sizeof(double);
    }
    rep.encoded_payload_bytes +=
        tree->total_samples() * comm::codec_sample_bytes(rep.codec) +
        tree->cells().size() * comm::codec_cell_header_bytes(rep.codec);
  }
  rep.wire_bytes = wire_bytes;

  const double n = static_cast<double>(rep.n);
  rep.model_bytes = comm::lowcomm_exchange_points(rep.n, rep.k, rep.r) *
                    static_cast<double>(rep.subdomains) *
                    static_cast<double>(sizeof(double));
  rep.dense_bytes = 2.0 * n * n * n * static_cast<double>(sizeof(double));
  return rep;
}

}  // namespace

CommVolumeReport measure_comm_volume(const core::LowCommConvolution& engine,
                                     int workers) {
  const std::size_t wire = core::lowcomm_exchange_bytes(
      engine.decomposition().grid(), engine.params(), workers);
  return measure_impl(engine, workers, wire);
}

CommVolumeReport measure_comm_volume(const core::LowCommConvolution& engine,
                                     int workers,
                                     std::size_t measured_wire_bytes) {
  return measure_impl(engine, workers, measured_wire_bytes);
}

CommVolumeReport measure_comm_volume(const core::LowCommConvolution& engine,
                                     const comm::Topology& topo,
                                     core::ExchangeRoute route) {
  const Grid3& grid = engine.decomposition().grid();
  const comm::LevelTraffic traffic =
      core::lowcomm_exchange_traffic(grid, engine.params(), topo, route);
  CommVolumeReport rep =
      measure_impl(engine, topo.ranks(), traffic.total_bytes());
  rep.nodes = topo.nodes();
  rep.intra_wire_bytes = traffic.intra_bytes;
  rep.inter_wire_bytes = traffic.inter_bytes;
  rep.flat_inter_wire_bytes =
      core::lowcomm_exchange_traffic(grid, engine.params(), topo,
                                     core::ExchangeRoute::kFlat)
          .inter_bytes;
  return rep;
}

TextTable CommVolumeReport::table() const {
  TextTable t("Communication volume: measured vs model (n=" +
              std::to_string(n) + ", k=" + std::to_string(k) +
              ", r=" + format_fixed(r, 2) + ", D=" + std::to_string(subdomains) +
              ", P=" + std::to_string(workers) + ")");
  t.header({"quantity", "GB", "vs Eqn 6"});
  t.row({"dense FFT baseline (Eqn 1)", format_bytes_gb(dense_bytes),
         format_fixed(model_bytes > 0.0 ? dense_bytes / model_bytes : 0.0, 2) +
             "x"});
  t.row({"model (Eqn 6, all sub-domains)", format_bytes_gb(model_bytes),
         "1.00x"});
  t.row({"measured payload (octrees)",
         format_bytes_gb(static_cast<double>(payload_bytes)),
         format_fixed(measured_over_model(), 2) + "x"});
  t.row({"measured interior lattice",
         format_bytes_gb(static_cast<double>(unique_bytes)),
         format_fixed(unique_over_model(), 2) + "x"});
  if (codec != comm::WireCodec::kOff) {
    t.row({std::string("measured payload (") + comm::codec_name(codec) +
               " encoded, " + std::to_string(cells) + " cells)",
           format_bytes_gb(static_cast<double>(encoded_payload_bytes)),
           format_fixed(model_bytes > 0.0
                            ? static_cast<double>(encoded_payload_bytes) /
                                  model_bytes
                            : 0.0,
                        2) +
               "x"});
  }
  t.row({std::string("measured on the wire (fanout, ") +
             comm::codec_name(codec) + ")",
         format_bytes_gb(static_cast<double>(wire_bytes)),
         format_fixed(model_bytes > 0.0
                          ? static_cast<double>(wire_bytes) / model_bytes
                          : 0.0,
                      2) +
             "x"});
  t.row({"reduction vs dense", format_fixed(reduction_vs_dense(), 1) + "x",
         ""});
  if (nodes > 0) {
    t.row({"  wire, intra-node (" + std::to_string(nodes) + " nodes)",
           format_bytes_gb(static_cast<double>(intra_wire_bytes)), ""});
    t.row({"  wire, inter-node",
           format_bytes_gb(static_cast<double>(inter_wire_bytes)),
           format_fixed(inter_reduction_vs_flat(), 2) + "x < flat"});
  }
  return t;
}

std::string CommVolumeReport::to_json() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"n\": %lld,\n"
      "  \"k\": %lld,\n"
      "  \"r\": %.6g,\n"
      "  \"workers\": %d,\n"
      "  \"subdomains\": %zu,\n"
      "  \"payload_bytes\": %zu,\n"
      "  \"unique_bytes\": %zu,\n"
      "  \"wire_bytes\": %zu,\n"
      "  \"codec\": \"%s\",\n"
      "  \"encoded_payload_bytes\": %zu,\n"
      "  \"cells\": %zu,\n"
      "  \"nodes\": %d,\n"
      "  \"intra_wire_bytes\": %zu,\n"
      "  \"inter_wire_bytes\": %zu,\n"
      "  \"flat_inter_wire_bytes\": %zu,\n"
      "  \"model_eqn6_bytes\": %.6g,\n"
      "  \"dense_eqn1_bytes\": %.6g,\n"
      "  \"measured_over_model\": %.6g,\n"
      "  \"reduction_vs_dense\": %.6g\n"
      "}\n",
      static_cast<long long>(n), static_cast<long long>(k), r, workers,
      subdomains, payload_bytes, unique_bytes, wire_bytes,
      comm::codec_name(codec), encoded_payload_bytes, cells, nodes,
      intra_wire_bytes, inter_wire_bytes, flat_inter_wire_bytes, model_bytes,
      dense_bytes, measured_over_model(), reduction_vs_dense());
  return buf;
}

}  // namespace lc::obs
