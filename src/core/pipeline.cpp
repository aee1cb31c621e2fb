#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
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
  LocalJob job;
  job.engine = this;
  job.input = &input;
  LocalJob* const one = &job;
  run_local({&one, 1}, convolver_.config().pool);
  if (job.error != nullptr) std::rethrow_exception(job.error);
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.subdomains.add(decomp_.count());
  metrics.compressed_samples.add(job.result.compressed_samples);
  metrics.exchanged_bytes.add(job.result.exchanged_bytes);
  return std::move(job.result);
}

namespace {

// One wave: body(i) for every i in [0, count), as a parallel_for on `pool`
// when it can run one, else serially on this thread. A convolve task on a
// pool worker runs its engine's local FFT stages serially (the convolver
// detects the worker thread), so each worker owns one sub-domain end to
// end.
void run_wave(ThreadPool* pool, std::size_t count,
              const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && pool->size() > 1 && count > 1 &&
      !pool->on_worker_thread()) {
    pool->parallel_for(0, count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

}  // namespace

void run_local(std::span<LocalJob* const> jobs, ThreadPool* pool) {
  // One task per (job, sub-domain), each job's tasks contiguous and in
  // sub-domain order. The accumulate wave reuses the list: a full-field
  // job's tiles are its sub-domain boxes, a scoped job's one tile is its
  // own box.
  struct Task {
    LocalJob* job;
    std::size_t d;
  };
  std::vector<Task> tasks;
  for (LocalJob* const jp : jobs) {
    LocalJob& job = *jp;
    LC_CHECK_ARG(job.engine != nullptr && job.input != nullptr,
                 "local job needs an engine and an input");
    const std::size_t count = job.engine->decomposition().count();
    if (!job.subdomain) {
      for (std::size_t d = 0; d < count; ++d) tasks.push_back(Task{&job, d});
    } else if (*job.subdomain < count) {
      tasks.push_back(Task{&job, *job.subdomain});
    } else {
      job.error = std::make_exception_ptr(
          InvalidArgument("sub-domain scope out of range"));
    }
  }
  // A wave leaves task t's exception in errors[t]; each job then takes its
  // first failing task's.
  std::vector<std::exception_ptr> errors(tasks.size());
  const auto collect_errors = [&] {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (errors[t] != nullptr && tasks[t].job->error == nullptr) {
        tasks[t].job->error = errors[t];
      }
      errors[t] = nullptr;
    }
  };

  // CompressedField has no empty state: slots stay unset until filled.
  std::vector<std::optional<sampling::CompressedField>> slots(tasks.size());
  {
    LC_TRACE("pipeline.convolve_wave");
    run_wave(pool, tasks.size(), [&](std::size_t t) {
      LC_TRACE("pipeline.task");
      const Task task = tasks[t];
      try {
        if (task.job->before_convolve) task.job->before_convolve(task.d);
        slots[t].emplace(task.job->engine->convolve_one(*task.job->input,
                                                        task.d));
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  collect_errors();
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    LocalJob& job = *tasks[t].job;
    if (job.error == nullptr) job.contributions.push_back(std::move(*slots[t]));
  }
  slots.clear();
  for (LocalJob* const jp : jobs) {
    LocalJob& job = *jp;
    if (job.error == nullptr && !job.subdomain) {
      job.result.output = RealField(job.input->grid(), 0.0);
    }
  }

  // The tiles of one output are disjoint boxes, so inserts need no lock.
  {
    LC_TRACE("pipeline.accumulate_wave");
    run_wave(pool, tasks.size(), [&](std::size_t t) {
      const Task task = tasks[t];
      LocalJob& job = *task.job;
      if (job.error != nullptr) return;
      try {
        const Box3& box = job.engine->decomposition().subdomain(task.d);
        RealField tile = accumulate_region(job.contributions, box,
                                           job.engine->params().interpolation);
        if (job.subdomain) {
          job.result.output = std::move(tile);  // the tile IS the output
        } else {
          job.result.output.insert(tile, box.lo);
        }
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  collect_errors();

  for (LocalJob* const jp : jobs) {
    LocalJob& job = *jp;
    LowCommResult& r = job.result;
    if (job.error != nullptr) {
      r = LowCommResult{};
      continue;
    }
    for (const auto& c : job.contributions) {
      r.compressed_samples += c.samples().size();
      r.exchanged_bytes += c.encoded_sample_bytes(job.engine->params().wire);
    }
    // Ratio versus storing every convolved sub-domain's full-resolution N³
    // result.
    r.compression_ratio = static_cast<double>(job.contributions.size()) *
                          static_cast<double>(job.input->grid().size()) /
                          static_cast<double>(r.compressed_samples);
  }
}

std::size_t lowcomm_exchange_bytes(const Grid3& grid,
                                   const LowCommParams& params, int workers) {
  return ExchangePlan::mirror(grid, params, comm::Topology::flat(workers),
                              ExchangeRoute::kFlat)
      .total_bytes();
}

comm::LevelTraffic lowcomm_exchange_traffic(const Grid3& grid,
                                            const LowCommParams& params,
                                            const comm::Topology& topo,
                                            ExchangeRoute route) {
  return ExchangePlan::mirror(grid, params, topo, route);
}

namespace {

/// Lock-free running maximum of a record field across rank threads.
template <class T>
void raise_to(T& max, T value) {
  std::atomic_ref<T> ref(max);
  T cur = ref.load(std::memory_order_relaxed);
  while (cur < value && !ref.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
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

  // Plan-vs-actual telemetry (DESIGN.md §18), only when LC_TELEMETRY is
  // active: freeze the cost-model predictions for THIS (params, topology,
  // route) before running — the plan's exact static traffic mirror,
  // per-level α-β times at the cluster's own link models, the shared
  // compute formula at the static default rate (the planner's 2e8
  // point-passes/s baseline; drift against it is exactly what the
  // calibration fitter learns from). The recorder diffs the executed
  // counters into the measured side and emits when this call returns or
  // unwinds.
  std::optional<obs::PlanOutcomeRecorder> recorder;
  obs::PlanOutcome* rec = nullptr;
  if (obs::telemetry_enabled()) {
    recorder.emplace("pipeline", grid.nx, workers, cluster.topology().nodes(),
                     params, plan.hierarchical() ? "hierarchical" : "flat",
                     &cluster);
    rec = &recorder->outcome();
    const comm::LevelTraffic& traffic = plan.traffic();
    rec->pred_bytes = static_cast<std::int64_t>(traffic.total_bytes());
    rec->pred_intra_bytes = static_cast<std::int64_t>(traffic.intra_bytes);
    rec->pred_inter_bytes = static_cast<std::int64_t>(traffic.inter_bytes);
    rec->pred_intra_msgs = static_cast<std::int64_t>(traffic.intra_messages);
    rec->pred_inter_msgs = static_cast<std::int64_t>(traffic.inter_messages);
    const auto times = comm::predict_exchange_times(traffic, cluster.links());
    rec->pred_intra_s = times.intra_seconds;
    rec->pred_inter_s = times.inter_seconds;
    rec->pred_wire_s = times.total_seconds();

    // Compute model: the formula the planner prices with
    // (obs::modeled_point_passes), once per group pipeline with that
    // group's retained planes, summed over each rank's groups; the slowest
    // rank bounds the call. Memory: the largest group's pipeline plan —
    // each rank runs its groups one after another, so its peak is its
    // largest group's.
    rec->pred_point_passes = 0.0;
    std::size_t memory = 0;
    const auto policy = params.make_policy();
    for (int r = 0; r < workers; ++r) {
      double passes = 0.0;
      for (const std::size_t g : plan.groups_of(r)) {
        passes += obs::modeled_point_passes(
            grid.nx, params.subdomain,
            plan.octree(g)->retained_z_planes().size());
        memory = std::max(memory, device::plan_local_pipeline(
                                      grid.nx, plan.group_box(g), policy,
                                      params.batch)
                                      .actual_total());
      }
      rec->pred_point_passes = std::max(rec->pred_point_passes, passes);
    }
    rec->pred_rate_pps = 2e8;  // PlanRequest::compute_rate_pps default
    rec->pred_compute_s = rec->pred_point_passes / rec->pred_rate_pps;
    rec->pred_memory_b = static_cast<std::int64_t>(memory);
  }
  obs::Tracer& tracer = obs::Tracer::global();

  const auto body = [&](comm::Rank& rank) {
    // Every rank convolves its groups through one local pipeline, each
    // group sampled on the plan's octree for its box: trees are
    // reproducible from (grid, params), so only payloads travel and both
    // sides agree on the framing without any metadata exchange.
    LocalConvolverConfig cfg;
    cfg.batch = params.batch;
    cfg.pool = nullptr;  // ranks are already threads; keep them single-core
    // Telemetry measures the per-rank allocation peak through a private
    // DeviceContext (unlimited spec: tracking only, never admission).
    device::DeviceContext rank_device(device::DeviceSpec::unlimited());
    if (rec != nullptr) cfg.device = &rank_device;
    const LocalConvolver convolver(grid, kernel, cfg);
    const int me = rank.id();
    const auto& mine = plan.groups_of(me);

    std::vector<sampling::CompressedField> local;
    local.reserve(mine.size());
    {
      LC_TRACE("exchange.local_convolve");
      const std::int64_t t0 = tracer.now_ns();
      for (const std::size_t g : mine) {
        const Box3& box = plan.group_box(g);
        local.push_back(convolver.convolve_subdomain(input.extract(box),
                                                     box.lo, plan.octree(g)));
      }
      // Telemetry's measured compute is the slowest rank's local-convolve
      // time — the quantity the compute model predicts.
      if (rec != nullptr) {
        raise_to(rec->meas_compute_s,
                 static_cast<double>(tracer.now_ns() - t0) * 1e-9);
      }
    }

    // The single global exchange (Fig 1b): whichever route runs, every
    // rank receives from each source exactly the cells its own regions
    // read.
    ExchangeOutcome exchanged = exchange_samples(rank, plan, std::move(local));
    if (rec != nullptr) {
      raise_to(rec->meas_max_quant_error, exchanged.max_quant_error);
    }

    // Streaming unpack: sources in (rank, group) order, each group's
    // contribution decoded into one field (cells this rank does not read
    // stay zero), added into every owned group tile, and dropped. A
    // received buffer is released once decoded. The order is fixed by the
    // plan, so both routes and every rerun give the same bits.
    std::vector<Box3> regions;
    std::vector<RealField> tiles;
    regions.reserve(mine.size());
    tiles.reserve(mine.size());
    for (const std::size_t g : mine) {
      regions.push_back(plan.group_box(g));
      tiles.emplace_back(regions.back().extents(), 0.0);
    }
    {
      LC_TRACE("exchange.unpack_accumulate");
      for (int src = 0; src < workers; ++src) {
        auto& buffer = exchanged.incoming[static_cast<std::size_t>(src)];
        comm::WireDecoder dec(params.wire, buffer);
        for (const std::size_t g : plan.groups_of(src)) {
          sampling::CompressedField c(plan.octree(g));
          const auto payload = c.samples();
          const auto cells = c.octree().cells();
          for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            if (!plan.needed(g, ci, me)) continue;
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
    if (rec != nullptr) {
      raise_to(rec->meas_memory_peak_b,
               static_cast<std::int64_t>(rank_device.peak_bytes()));
    }
  };

  cluster.run(body);
  return assembled;
}

}  // namespace lc::core
