#include "core/pipeline.hpp"

#include <atomic>
#include <cmath>
#include <optional>

#include "comm/wire_codec.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "device/memory_model.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace lc::core {

namespace {

// End-to-end pipeline metrics: one "pipeline.convolve_seconds" sample per
// convolve() call; the counters accumulate the compressed-exchange volume
// the comm-volume report reads back per run.
struct PipelineMetrics {
  obs::Histogram& convolve_seconds = obs::Registry::global().histogram(
      "pipeline.convolve_seconds");
  obs::Counter& subdomains = obs::Registry::global().counter(
      "pipeline.subdomains");
  obs::Counter& compressed_samples = obs::Registry::global().counter(
      "pipeline.compressed_samples");
  obs::Counter& exchanged_bytes = obs::Registry::global().counter(
      "pipeline.exchanged_bytes");

  static PipelineMetrics& get() {
    static PipelineMetrics m;
    return m;
  }
};

}  // namespace

sampling::SamplingPolicy LowCommParams::make_policy() const {
  if (uniform_rate.has_value()) {
    return sampling::SamplingPolicy::uniform(*uniform_rate, boundary_band);
  }
  return sampling::SamplingPolicy::paper_default(subdomain, far_rate,
                                                 boundary_band, dense_halo);
}

LowCommConvolution::LowCommConvolution(
    const Grid3& grid, std::shared_ptr<const green::KernelSpectrum> kernel,
    LowCommParams params, LocalConvolverConfig config)
    : decomp_(grid, params.subdomain),
      params_(params),
      convolver_(grid, std::move(kernel), config),
      octrees_(decomp_.count()) {}

std::shared_ptr<const sampling::Octree> LowCommConvolution::octree_for(
    std::size_t subdomain_index) const {
  LC_CHECK_ARG(subdomain_index < decomp_.count(), "sub-domain index range");
  OctreeSlot& slot = octrees_[subdomain_index];
  std::call_once(slot.once, [&] {
    slot.tree = std::make_shared<sampling::Octree>(
        decomp_.grid(), decomp_.subdomain(subdomain_index),
        params_.make_policy());
  });
  return slot.tree;
}

void LowCommConvolution::seed_octree(
    std::size_t subdomain_index,
    std::shared_ptr<const sampling::Octree> tree) const {
  LC_CHECK_ARG(subdomain_index < decomp_.count(), "sub-domain index range");
  LC_CHECK_ARG(tree != nullptr, "null octree");
  LC_CHECK_ARG(tree->grid() == decomp_.grid() &&
                   tree->subdomain() == decomp_.subdomain(subdomain_index),
               "seeded octree does not match the sub-domain");
  OctreeSlot& slot = octrees_[subdomain_index];
  std::call_once(slot.once, [&] { slot.tree = std::move(tree); });
}

sampling::CompressedField LowCommConvolution::convolve_one(
    const RealField& input, std::size_t subdomain_index) const {
  LC_TRACE("pipeline.subdomain");
  LC_CHECK_ARG(input.grid() == decomp_.grid(), "input grid mismatch");
  const Box3& box = decomp_.subdomain(subdomain_index);
  const RealField chunk = input.extract(box);
  return convolver_.convolve_subdomain(chunk, box.lo,
                                       octree_for(subdomain_index));
}

LowCommResult LowCommConvolution::convolve(const RealField& input) const {
  LC_TRACE("pipeline.convolve");
  ScopedTimer convolve_timer(PipelineMetrics::get().convolve_seconds);
  const std::size_t count = decomp_.count();
  ThreadPool* pool = convolver_.config().pool;
  std::vector<std::optional<sampling::CompressedField>> slots(count);
  auto run = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t d = lo; d < hi; ++d) {
      slots[d].emplace(convolve_one(input, d));
    }
  };
  // Outer parallelism over sub-domains: the local convolver detects it is
  // running on one of the pool's own workers and degrades its internal
  // stages to serial, so each worker owns one sub-domain end to end.
  if (pool == nullptr || pool->size() <= 1 || count <= 1 ||
      pool->on_worker_thread()) {
    run(0, count);
  } else {
    pool->parallel_for_blocks(0, count, run);
  }

  std::vector<sampling::CompressedField> contributions;
  contributions.reserve(count);
  std::size_t samples = 0;
  std::size_t bytes = 0;
  for (auto& slot : slots) {
    samples += slot->samples().size();
    bytes += slot->encoded_sample_bytes(params_.wire);
    contributions.push_back(std::move(*slot));
  }
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.subdomains.add(count);
  metrics.compressed_samples.add(samples);
  metrics.exchanged_bytes.add(bytes);
  LowCommResult result{accumulate_full(contributions, decomp_.grid(),
                                       params_.interpolation, pool),
                       samples, bytes, 0.0};
  // Ratio versus storing every sub-domain's full-resolution N³ result.
  result.compression_ratio =
      static_cast<double>(decomp_.count()) *
      static_cast<double>(decomp_.grid().size()) /
      static_cast<double>(samples);
  return result;
}

std::size_t lowcomm_exchange_bytes(const LowCommConvolution& engine,
                                   int workers) {
  // The flat-route mirror on a trivial topology: per ordered rank pair,
  // encoded bundle bytes rounded to whole wire doubles, self-delivery
  // excluded — byte-identical to what a flat SimCluster run records.
  return lowcomm_exchange_traffic(engine, comm::Topology::flat(workers),
                                  ExchangeRoute::kFlat)
      .total_bytes();
}

comm::LevelTraffic lowcomm_exchange_traffic(const LowCommConvolution& engine,
                                            const comm::Topology& topo,
                                            ExchangeRoute route) {
  return ExchangePlan::mirror(
      engine.decomposition().grid(), engine.params(), topo, route,
      [&engine](std::size_t d) { return engine.octree_for(d); });
}

comm::LevelTraffic lowcomm_exchange_traffic(const Grid3& grid,
                                            const LowCommParams& params,
                                            const comm::Topology& topo,
                                            ExchangeRoute route) {
  return ExchangePlan::mirror(grid, params, topo, route);
}

namespace {

/// Point-in-time copy of the cluster counters the telemetry record diffs
/// (CommStats aggregates plus the per-rank wait totals summed over ranks).
struct ClusterCounters {
  std::size_t bytes = 0;
  std::size_t intra_bytes = 0;
  std::size_t inter_bytes = 0;
  std::size_t intra_msgs = 0;
  std::size_t inter_msgs = 0;
  std::int64_t modeled_ns = 0;
  std::int64_t intra_modeled_ns = 0;
  std::int64_t inter_modeled_ns = 0;
  std::int64_t barrier_wait_ns = 0;
  std::int64_t recv_wait_ns = 0;
};

/// Lock-free running maximum across rank threads.
template <class T>
void raise_to(std::atomic<T>& max, T value) {
  T cur = max.load(std::memory_order_relaxed);
  while (cur < value && !max.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

ClusterCounters snapshot_counters(const comm::SimCluster& cluster) {
  const comm::CommStats& s = cluster.stats();
  ClusterCounters c;
  c.bytes = s.bytes_sent.load();
  c.intra_bytes = s.intra_bytes_sent.load();
  c.inter_bytes = s.inter_bytes_sent.load();
  c.intra_msgs = s.intra_messages.load();
  c.inter_msgs = s.inter_messages.load();
  c.modeled_ns = s.modeled_nanos.load();
  c.intra_modeled_ns = s.intra_modeled_nanos.load();
  c.inter_modeled_ns = s.inter_modeled_nanos.load();
  for (int r = 0; r < cluster.size(); ++r) {
    const comm::RankCommStats rs = cluster.rank_stats(r);
    c.barrier_wait_ns += rs.barrier_wait_ns;
    c.recv_wait_ns += rs.recv_wait_ns;
  }
  return c;
}

}  // namespace

RealField distributed_lowcomm_convolve(
    comm::SimCluster& cluster, const RealField& input, const Grid3& grid,
    std::shared_ptr<const green::KernelSpectrum> kernel,
    const LowCommParams& params, ExchangeRoute route) {
  const int workers = cluster.size();
  const ExchangeRoute resolved = resolve_route(route, cluster.topology());
  // Built on the cluster's first call with this key (so that call pays for
  // it), reused by every later one.
  const std::shared_ptr<const ExchangePlan> plan_ptr =
      cluster.memo<ExchangePlan>(
          ExchangePlan::key(grid, params, resolved), [&] {
            return std::make_shared<const ExchangePlan>(
                grid, params, cluster.topology(), resolved);
          });
  const ExchangePlan& plan = *plan_ptr;
  RealField assembled(grid, 0.0);
  std::mutex assemble_mutex;

  // Plan-vs-actual telemetry (DESIGN.md §18): when LC_TELEMETRY is active,
  // freeze the cost-model predictions for THIS (params, topology, route)
  // before running — the plan's exact static traffic mirror, per-level α-β
  // times at the cluster's own link models, the shared compute formula at
  // the static default rate (the planner's 2e8 point-passes/s baseline;
  // drift against it is exactly what the calibration fitter learns from) —
  // then diff the executed counters into the measured side.
  const bool telemetry = obs::telemetry_enabled();
  obs::Tracer& tracer = obs::Tracer::global();
  obs::PlanOutcome rec;
  ClusterCounters before;
  std::atomic<std::int64_t> max_local_convolve_ns{0};
  std::atomic<std::size_t> max_device_peak{0};
  std::atomic<double> max_quant_error{0.0};
  if (telemetry) {
    rec.source = "pipeline";
    rec.n = grid.nx;
    rec.ranks = workers;
    rec.nodes = cluster.topology().nodes();
    rec.k = params.subdomain;
    rec.far_rate = static_cast<int>(params.far_rate);
    rec.schedule = params.uniform_rate ? "uniform" : "banded";
    rec.route = plan.hierarchical() ? "hierarchical" : "flat";
    rec.wire = comm::codec_name(params.wire);
    rec.batch = static_cast<std::int64_t>(params.batch);

    const comm::LevelTraffic& traffic = plan.traffic();
    rec.pred_bytes = static_cast<std::int64_t>(traffic.total_bytes());
    rec.pred_intra_bytes = static_cast<std::int64_t>(traffic.intra_bytes);
    rec.pred_inter_bytes = static_cast<std::int64_t>(traffic.inter_bytes);
    rec.pred_intra_msgs = static_cast<std::int64_t>(traffic.intra_messages);
    rec.pred_inter_msgs = static_cast<std::int64_t>(traffic.inter_messages);
    const auto times = comm::predict_exchange_times(traffic, cluster.links());
    rec.pred_intra_s = times.intra_seconds;
    rec.pred_inter_s = times.inter_seconds;
    rec.pred_wire_s = times.total_seconds();

    // Compute model: the representative central sub-domain's octree, the
    // same formula the planner prices with (obs::modeled_point_passes). The
    // half-spectrum scale follows what this run will actually execute.
    const DomainDecomposition& decomp = plan.decomposition();
    const auto blocks = static_cast<std::size_t>(grid.nx / params.subdomain);
    const std::size_t mid = blocks / 2;
    const sampling::Octree& central =
        *plan.octree((mid * blocks + mid) * blocks + mid);
    const double owned =
        std::ceil(static_cast<double>(decomp.count()) /
                  static_cast<double>(std::max(workers, 1)));
    rec.pred_point_passes =
        owned * obs::modeled_point_passes(grid.nx, params.subdomain,
                                          central.retained_z_planes().size(),
                                          kernel->hermitian());
    rec.pred_rate_pps = 2e8;  // PlanRequest::compute_rate_pps default
    rec.pred_compute_s = rec.pred_point_passes / rec.pred_rate_pps;
    rec.pred_memory_b = static_cast<std::int64_t>(
        device::plan_local_pipeline(grid.nx, params.subdomain,
                                    params.make_policy(), params.batch)
            .actual_total());
    before = snapshot_counters(cluster);
  }
  const std::int64_t wall_start = tracer.now_ns();

  const auto emit_outcome = [&](bool aborted) {
    rec.aborted = aborted;
    rec.meas_wall_s =
        static_cast<double>(tracer.now_ns() - wall_start) * 1e-9;
    rec.meas_compute_s =
        static_cast<double>(max_local_convolve_ns.load()) * 1e-9;
    const ClusterCounters after = snapshot_counters(cluster);
    rec.meas_bytes = static_cast<std::int64_t>(after.bytes - before.bytes);
    rec.meas_intra_bytes =
        static_cast<std::int64_t>(after.intra_bytes - before.intra_bytes);
    rec.meas_inter_bytes =
        static_cast<std::int64_t>(after.inter_bytes - before.inter_bytes);
    rec.meas_intra_msgs =
        static_cast<std::int64_t>(after.intra_msgs - before.intra_msgs);
    rec.meas_inter_msgs =
        static_cast<std::int64_t>(after.inter_msgs - before.inter_msgs);
    rec.meas_wire_s =
        static_cast<double>(after.modeled_ns - before.modeled_ns) * 1e-9;
    rec.meas_intra_wire_s =
        static_cast<double>(after.intra_modeled_ns - before.intra_modeled_ns) *
        1e-9;
    rec.meas_inter_wire_s =
        static_cast<double>(after.inter_modeled_ns - before.inter_modeled_ns) *
        1e-9;
    rec.meas_barrier_wait_s =
        static_cast<double>(after.barrier_wait_ns - before.barrier_wait_ns) *
        1e-9;
    rec.meas_recv_wait_s =
        static_cast<double>(after.recv_wait_ns - before.recv_wait_ns) * 1e-9;
    rec.meas_memory_peak_b =
        static_cast<std::int64_t>(max_device_peak.load());
    rec.meas_max_quant_error = max_quant_error.load();
    obs::record_plan_outcome(rec);
  };

  const auto body = [&](comm::Rank& rank) {
    // Every rank builds the same deterministic engine, seeded with the
    // plan's octrees: they are reproducible from (grid, params), so only
    // payloads travel and both sides agree on the framing without any
    // metadata exchange.
    LocalConvolverConfig cfg;
    cfg.batch = params.batch;
    cfg.pool = nullptr;  // ranks are already threads; keep them single-core
    // Telemetry measures the per-rank allocation peak through a private
    // DeviceContext (unlimited spec: tracking only, never admission).
    device::DeviceContext rank_device(device::DeviceSpec::unlimited());
    if (telemetry) cfg.device = &rank_device;
    LowCommConvolution engine(grid, kernel, params, cfg);
    const int me = rank.id();
    const auto& mine = plan.owned(me);
    for (const std::size_t d : mine) engine.seed_octree(d, plan.octree(d));

    std::vector<sampling::CompressedField> local;
    local.reserve(mine.size());
    {
      LC_TRACE("exchange.local_convolve");
      const std::int64_t t0 = tracer.now_ns();
      for (const std::size_t d : mine) {
        local.push_back(engine.convolve_one(input, d));
      }
      // Telemetry's measured compute is the slowest rank's local-convolve
      // time — the quantity the compute model predicts.
      raise_to(max_local_convolve_ns, tracer.now_ns() - t0);
    }

    // The single global exchange (Fig 1b): whichever route runs, every
    // rank receives from each source exactly the cells its own regions
    // read.
    ExchangeOutcome exchanged = exchange_samples(rank, plan, std::move(local));
    raise_to(max_quant_error, exchanged.max_quant_error);

    // Streaming unpack: sources in (rank, owned sub-domain) order — the
    // order accumulate_region would take a full contribution vector in, so
    // every tile gets the same bits — each decoded into one field (cells
    // this rank does not read stay zero), added into every owned tile, and
    // dropped. A received buffer is released once decoded.
    std::vector<Box3> regions;
    std::vector<RealField> tiles;
    regions.reserve(mine.size());
    tiles.reserve(mine.size());
    for (const std::size_t d : mine) {
      regions.push_back(plan.decomposition().subdomain(d));
      tiles.emplace_back(regions.back().extents(), 0.0);
    }
    {
      LC_TRACE("exchange.unpack_accumulate");
      for (int src = 0; src < workers; ++src) {
        auto& buffer = exchanged.incoming[static_cast<std::size_t>(src)];
        comm::WireDecoder dec(params.wire, buffer);
        for (const std::size_t d : plan.owned(src)) {
          sampling::CompressedField c(plan.octree(d));
          const auto payload = c.samples();
          const auto cells = c.octree().cells();
          for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            if (!plan.needed(d, ci, me)) continue;
            dec.read_cell(payload.subspan(cells[ci].sample_offset,
                                          cells[ci].sample_count()));
          }
          accumulate_into(c, regions, tiles, params.interpolation);
        }
        dec.finish();
        buffer = std::vector<double>();
      }
    }

    // Stitch the owned tiles into the shared result (simulating the
    // distributed output staying in place).
    {
      std::lock_guard lock(assemble_mutex);
      for (std::size_t i = 0; i < tiles.size(); ++i) {
        assembled.insert(tiles[i], regions[i].lo);
      }
    }
    if (telemetry) raise_to(max_device_peak, rank_device.peak_bytes());
  };

  if (!telemetry) {
    cluster.run(body);
    return assembled;
  }
  try {
    cluster.run(body);
  } catch (...) {
    // A rank abort still produces a well-formed record: the predictions
    // stand, the measured side reflects whatever executed before the
    // unwind, and aborted=true marks it unusable for calibration.
    emit_outcome(true);
    throw;
  }
  emit_outcome(false);
  return assembled;
}

}  // namespace lc::core
