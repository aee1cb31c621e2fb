#include "planner/planner.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "core/decomposition.hpp"
#include "core/hyperparams.hpp"
#include "device/memory_model.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "planner/calibration.hpp"
#include "sampling/octree.hpp"

namespace lc::planner {

namespace {

struct PlannerMetrics {
  obs::Counter& plans = obs::Registry::global().counter("planner.plans");
  obs::Counter& candidates =
      obs::Registry::global().counter("planner.candidates");
  obs::Counter& exact_priced =
      obs::Registry::global().counter("planner.exact_priced");

  static PlannerMetrics& get() {
    static PlannerMetrics m;
    return m;
  }
};

double cube(double v) { return v * v * v; }

/// Per-sub-domain octree shape at a representative (central) sub-domain.
/// Metadata-only build — cheap at every (n, k, policy).
struct BlockShape {
  std::size_t samples = 0;  ///< retained samples (the Eqn-6 payload, exact)
  std::size_t planes = 0;   ///< retained z-planes (drives the inverse stage)
  std::size_t cells = 0;    ///< octree cells (per-cell codec headers)
};

BlockShape block_shape(i64 n, const core::LowCommParams& params) {
  const Grid3 grid = Grid3::cube(n);
  const i64 blocks = n / params.subdomain;
  const i64 c = (blocks / 2) * params.subdomain;
  const sampling::Octree tree(grid, Box3::cube_at({c, c, c}, params.subdomain),
                              params.make_policy());
  return {tree.total_samples(), tree.retained_z_planes().size(),
          tree.cells().size()};
}

/// Local pipelines the busiest rank runs per call at sub-domain size k. A
/// multi-rank plan executes on the distributed path, one pipeline per group
/// (DomainDecomposition::groups_of); a single-rank request is the service's
/// in-process executor, one pipeline per sub-domain.
double pipelines_per_rank(const PlanRequest& req, i64 k) {
  const i64 per_axis = req.n / k;
  if (req.ranks <= 1) return cube(static_cast<double>(per_axis));
  return static_cast<double>(
      core::DomainDecomposition::max_groups_per_rank(per_axis, req.ranks));
}

/// Uniform ranks-per-node of the topology, or 1 when nodes are uneven (the
/// closed-form models assume uniform nodes; the exact stage does not).
int uniform_ranks_per_node(const comm::Topology& topo) {
  if (topo.nodes() == 0 || topo.ranks() % topo.nodes() != 0) return 1;
  return topo.ranks() / topo.nodes();
}

bool routes_hierarchically(core::ExchangeRoute route,
                           const comm::Topology& topo) {
  if (route == core::ExchangeRoute::kFlat) return false;
  if (route == core::ExchangeRoute::kHierarchical) return true;
  return !topo.is_flat();
}

/// Largest batch (halving from the recommended size, floor 128) whose
/// pipeline fits the device. Batch only trades throughput for pencil-stage
/// bytes, so shrinking it never changes the numerics.
std::size_t fit_batch(i64 n, const core::LowCommParams& params,
                      std::size_t start, const device::DeviceSpec& device) {
  core::LowCommParams p = params;
  p.batch = start;
  while (p.batch > 128) {
    const auto plan =
        device::plan_local_pipeline(n, p.subdomain, p.make_policy(), p.batch);
    if (plan.actual_total() <= device.capacity_bytes) break;
    p.batch /= 2;
  }
  return p.batch;
}

/// Closed-form price of a block candidate (screening stage). `shape` is the
/// representative sub-domain octree, memoized by the caller per
/// (k, schedule, r) — codecs and routes reprice it without rebuilding —
/// and `pipelines` is pipelines_per_rank at the candidate's k.
CandidateCost price_block(const PlanRequest& req, const Candidate& c,
                          const BlockShape& shape, double pipelines) {
  CandidateCost cost;
  const core::LowCommParams& p = c.params;
  const i64 n = req.n;
  const i64 k = p.subdomain;

  // Accuracy screen: interpolation error of the rate schedule plus the
  // wire codec's quantization error (additive pessimism — the two error
  // sources are independent and small).
  const i64 r_ext = p.uniform_rate.value_or(p.far_rate);
  cost.predicted_rel_error = predicted_rel_error(n, k, r_ext, c.schedule) +
                             comm::codec_rel_error(p.wire);

  const auto plan = device::plan_local_pipeline(n, k, p.make_policy(), p.batch);
  cost.memory_bytes = plan.actual_total();

  const double subdomains = cube(static_cast<double>(n / k));
  const double owned =
      std::ceil(subdomains / static_cast<double>(std::max(req.ranks, 1)));

  // Compute model in transform point-passes: obs::modeled_point_passes per
  // local pipeline (a k-deep chunk; the z stage dominates and does not
  // grow with the chunk's x-y extent), times the pipelines the busiest
  // rank runs. The telemetry emitter prices each executed pipeline with the
  // same formula, so a rate fitted from plan-vs-actual history
  // (planner/calibration.hpp) is directly substitutable for
  // req.compute_rate_pps.
  const double per_pipeline = obs::modeled_point_passes(n, k, shape.planes);
  cost.compute_rate_pps = req.compute_rate_pps;
  cost.compute_seconds = pipelines * per_pipeline / req.compute_rate_pps;

  // Wire model: each rank ships its owned sub-domains' exact octree payload
  // (the executable Eqn-6 volume) as the codec encodes it — per-sample
  // width plus per-cell scale headers — spread by the closed-form schedule.
  // The executed exchange ships group trees, which hold fewer samples; the
  // exact stage reprices the shortlist with them.
  const double bytes_per_rank =
      owned * (static_cast<double>(shape.samples) *
                   static_cast<double>(comm::codec_sample_bytes(p.wire)) +
               static_cast<double>(shape.cells) *
                   static_cast<double>(comm::codec_cell_header_bytes(p.wire)));
  const int g = uniform_ranks_per_node(req.topology);
  comm::LevelTraffic traffic;
  if (routes_hierarchically(c.route, req.topology) &&
      req.ranks % std::max(g, 1) == 0) {
    // Node-granularity packing dedups cells shared across a node's ranks.
    // Banded trees tile cells one-per-sub-domain (no sharing, PR-6
    // measurement); uniform-rate trees share 2–8×. The exact stage replaces
    // this estimate with the real octree walk for the shortlist.
    const double dedup =
        c.schedule == RateSchedule::kUniform
            ? std::clamp(static_cast<double>(g) / 2.0, 1.0, 8.0)
            : 1.0;
    traffic =
        comm::hierarchical_exchange_traffic(req.ranks, g, bytes_per_rank,
                                            dedup);
  } else {
    traffic = comm::flat_exchange_traffic(req.ranks, g, bytes_per_rank);
  }
  cost.exchange_bytes = static_cast<double>(traffic.total_bytes());
  cost.wire = comm::predict_exchange_times(traffic, req.links);

  if (cost.memory_bytes > req.device.capacity_bytes) {
    cost.infeasible_reason =
        "memory: needs " + std::to_string(cost.memory_bytes) +
        " bytes, device '" + req.device.name + "' has " +
        std::to_string(req.device.capacity_bytes);
  } else if (cost.predicted_rel_error > req.max_rel_error) {
    cost.infeasible_reason = "accuracy: predicted rel error exceeds target";
  } else if (subdomains < static_cast<double>(req.ranks)) {
    cost.infeasible_reason = "underfills cluster: fewer sub-domains than ranks";
  } else {
    cost.feasible = true;
  }
  return cost;
}

/// Price the slab baseline-FFT row (Eqn 1: one all-to-all transpose stage
/// moving ~N³/P points).
CandidateCost price_slab(const PlanRequest& req) {
  CandidateCost cost;
  const double n3 = cube(static_cast<double>(req.n));
  const double p = static_cast<double>(req.ranks);

  // Per-rank working set: the real input slice plus two complex copies
  // (transform + transpose staging).
  cost.memory_bytes = static_cast<std::size_t>(
      n3 / p * (sizeof(double) + 2.0 * 2.0 * sizeof(double)));
  cost.predicted_rel_error = 0.0;  // exact method

  const double lg = std::log2(static_cast<double>(req.n));
  cost.compute_rate_pps = req.compute_rate_pps;
  cost.compute_seconds = 3.0 * n3 * lg / p / req.compute_rate_pps;

  const int g = uniform_ranks_per_node(req.topology);
  const double stage_bytes_per_rank =
      n3 / p * 2.0 * sizeof(double);  // complex points
  const comm::LevelTraffic traffic =
      comm::flat_exchange_traffic(req.ranks, g, stage_bytes_per_rank);
  cost.exchange_bytes = static_cast<double>(traffic.total_bytes());
  cost.wire = comm::predict_exchange_times(traffic, req.links);

  if (cost.memory_bytes > req.device.capacity_bytes) {
    cost.infeasible_reason = "memory: baseline slice does not fit the device";
  } else if (p > static_cast<double>(req.n)) {
    cost.infeasible_reason = "more ranks than slabs (P > N)";
  } else {
    cost.feasible = true;
  }
  return cost;
}

/// Repair a pinned k that DomainDecomposition would reject: the largest
/// divisor of n not exceeding it (or the smallest divisor when the pin is
/// below every divisor).
i64 repair_subdomain(i64 n, i64 pinned) {
  const auto divisors = core::subdomain_divisors(n);
  for (const i64 d : divisors) {
    if (d <= pinned) return d;
  }
  return divisors.back();
}

bool better(const RankedCandidate& a, const RankedCandidate& b) {
  if (a.cost.feasible != b.cost.feasible) return a.cost.feasible;
  return a.cost.total_seconds() < b.cost.total_seconds();
}

}  // namespace

const char* mode_name(Mode mode) {
  return mode == Mode::kOff ? "off" : "analytic";
}

std::string Candidate::name() const {
  if (kind == DecompKind::kSlab) return "slab-fft";
  std::string s = "block k=" + std::to_string(params.subdomain);
  s += schedule == RateSchedule::kUniform ? " uniform r=" : " banded r=";
  s += std::to_string(params.uniform_rate.value_or(params.far_rate));
  s += route == core::ExchangeRoute::kHierarchical ? " hier" : " flat";
  if (params.wire != comm::WireCodec::kOff) {
    s += std::string(" wire=") + comm::codec_name(params.wire);
  }
  return s;
}

double predicted_rel_error(i64 n, i64 k, i64 exterior_rate,
                           RateSchedule schedule) {
  LC_CHECK_ARG(n >= k && k >= 1 && exterior_rate >= 1, "bad (n, k, r)");
  if (exterior_rate <= 1) return 0.0;
  // Calibrated against the paper's regime: ~2% at (N=128, k=32, r=4) and
  // still under 3% at (N=1024, k=32, r=32) — interpolation error grows with
  // log r but the coarse region sits farther out (relative to N) on larger
  // grids where the field is smooth. Banded schedules keep the near field
  // denser than uniform ones at equal far rate.
  const double c = schedule == RateSchedule::kBanded ? 0.015 : 0.02;
  return c * std::log2(static_cast<double>(exterior_rate)) *
         std::sqrt(static_cast<double>(k) / static_cast<double>(n));
}

Planner::Planner(PlannerConfig config) : config_(std::move(config)) {
  LC_CHECK_ARG(!config_.rate_grid.empty(), "rate grid must not be empty");
}

std::vector<RankedCandidate> Planner::enumerate(
    const PlanRequest& request) const {
  LC_TRACE("planner.enumerate");
  // Closed loop: a fitted LC_CALIBRATION replaces the static device-peak
  // rate and default link params before any candidate is priced (no-op
  // when unset/invalid; idempotent when plan() already applied it).
  const PlanRequest req = apply_calibration(request, calibration_from_env());
  LC_CHECK_ARG(req.n >= 2, "grid side must be >= 2");
  LC_CHECK_ARG(req.ranks >= 1, "need at least one rank");
  LC_CHECK_ARG(req.topology.ranks() == req.ranks,
               "topology rank count must match the request");
  LC_CHECK_ARG(req.compute_rate_pps > 0.0, "compute rate must be positive");

  std::vector<core::ExchangeRoute> routes{core::ExchangeRoute::kFlat};
  if (!req.topology.is_flat()) {
    routes.push_back(core::ExchangeRoute::kHierarchical);
  }

  std::vector<RankedCandidate> out;
  // The representative octree shape depends only on (k, schedule, r) — one
  // build per rate point, shared across every route × codec variant.
  const auto push_block = [&](const core::LowCommParams& p,
                              RateSchedule sched, const BlockShape& shape,
                              double pipelines) {
    for (const core::ExchangeRoute route : routes) {
      Candidate c;
      c.kind = DecompKind::kBlock;
      c.schedule = sched;
      c.route = route;
      c.params = p;
      out.push_back(RankedCandidate{c, price_block(req, c, shape, pipelines)});
    }
  };

  if (req.pinned) {
    // Pinned mode: validate / repair, never re-tune. Only an illegal k
    // (does not divide N) or an over-budget batch is adjusted; the pinned
    // wire codec passes through unchanged — no codec search.
    core::LowCommParams p = *req.pinned;
    if (p.subdomain < 1 || req.n % p.subdomain != 0) {
      p.subdomain = repair_subdomain(req.n, std::max<i64>(p.subdomain, 1));
    }
    p.batch = fit_batch(req.n, p, p.batch, req.device);
    push_block(p, p.uniform_rate ? RateSchedule::kUniform
                                 : RateSchedule::kBanded,
               block_shape(req.n, p), pipelines_per_rank(req, p.subdomain));
  } else {
    LC_CHECK_ARG(!config_.codec_grid.empty(), "codec grid must not be empty");
    const std::size_t batch0 = core::recommended_batch(req.n);
    for (const i64 k : core::subdomain_divisors(req.n)) {
      if (k < config_.min_subdomain) continue;
      const double pipelines = pipelines_per_rank(req, k);
      for (const RateSchedule sched :
           {RateSchedule::kBanded, RateSchedule::kUniform}) {
        for (const i64 r : config_.rate_grid) {
          if (r > k) continue;
          core::LowCommParams p = req.base;
          p.subdomain = k;
          if (sched == RateSchedule::kUniform) {
            p.uniform_rate = r;
            p.far_rate = r;
          } else {
            p.uniform_rate.reset();
            p.far_rate = r;
          }
          p.batch = fit_batch(req.n, p, batch0, req.device);
          const BlockShape shape = block_shape(req.n, p);
          for (const comm::WireCodec codec : config_.codec_grid) {
            p.wire = codec;
            push_block(p, sched, shape, pipelines);
          }
        }
      }
    }
    Candidate slab;
    slab.kind = DecompKind::kSlab;
    out.push_back(RankedCandidate{slab, price_slab(req)});
  }
  std::stable_sort(out.begin(), out.end(), better);

  // Exact stage: re-price the closed-form shortlist with the real static
  // traffic mirror — the same per-level bytes/messages a SimCluster run
  // records for the exchange. Worth it only when something actually moves.
  if (req.ranks > 1) {
    const Grid3 grid = Grid3::cube(req.n);
    std::size_t repriced = 0;
    for (auto& rc : out) {
      if (repriced >= config_.exact_top) break;
      if (rc.candidate.kind != DecompKind::kBlock || !rc.cost.feasible) {
        continue;
      }
      const auto traffic = core::lowcomm_exchange_traffic(
          grid, rc.candidate.params, req.topology, rc.candidate.route);
      rc.cost.exchange_bytes = static_cast<double>(traffic.total_bytes());
      rc.cost.wire = comm::predict_exchange_times(traffic, req.links);
      rc.cost.exact_traffic = true;
      PlannerMetrics::get().exact_priced.add(1);
      ++repriced;
    }
    std::stable_sort(out.begin(), out.end(), better);
  }
  PlannerMetrics::get().candidates.add(out.size());
  return out;
}

ExecutionPlan Planner::plan(const PlanRequest& req) const {
  LC_TRACE("planner.plan");
  std::vector<RankedCandidate> ranked = enumerate(req);
  std::size_t best = ranked.size();
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].candidate.kind == DecompKind::kBlock &&
        ranked[i].cost.feasible) {
      best = i;
      break;
    }
  }
  LC_CHECK_ARG(
      best < ranked.size(),
      "planner found no feasible block plan for N=" + std::to_string(req.n) +
          " on device '" + req.device.name + "' at rel-error target " +
          std::to_string(req.max_rel_error) +
          " — relax the accuracy target or use a larger device");

  ExecutionPlan plan;
  plan.choice = ranked[best].candidate;
  plan.cost = ranked[best].cost;
  plan.mode = config_.mode;
  plan.ranked = std::move(ranked);
  PlannerMetrics::get().plans.add(1);
  return plan;
}

std::string cache_key(const PlanRequest& req, Mode mode) {
  // "execplan/" keeps this namespace disjoint from the service's FFT-plan
  // entries ("plan/n=<n>") in the same ResourceCache.
  std::string key = "execplan/n=" + std::to_string(req.n);
  key += std::string("/wire=") + comm::codec_name(req.base.wire);
  key += "/p=" + std::to_string(req.ranks);
  key += "/nodes=" + std::to_string(req.topology.nodes());
  key += "/dev=" + req.device.name + ":" +
         std::to_string(req.device.capacity_bytes);
  key += "/acc=" + std::to_string(req.max_rel_error);
  key += "/mode=" + std::string(mode_name(mode));
  // Salt with the active calibration: a new fit must invalidate cached
  // plans priced under the old rates.
  key += "/cal=" + calibration_from_env().cache_salt();
  if (req.pinned) {
    const core::LowCommParams& p = *req.pinned;
    key += "/pin=k" + std::to_string(p.subdomain) + "r" +
           std::to_string(p.far_rate) + "ur" +
           (p.uniform_rate ? std::to_string(*p.uniform_rate)
                           : std::string("-")) +
           "bb" + std::to_string(p.boundary_band) + "dh" +
           std::to_string(p.dense_halo) + "B" + std::to_string(p.batch) +
           "i" + std::to_string(static_cast<int>(p.interpolation)) + "w" +
           comm::codec_name(p.wire);
  } else {
    key += "/pin=-";
  }
  return key;
}

}  // namespace lc::planner
