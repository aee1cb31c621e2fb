// Auto-tuning execution planner — a query optimizer for convolutions
// (ROADMAP item 2, DESIGN.md §15).
//
// The paper fixes one k³ sub-domain scheme and hand-tunes (k, r, B) per
// problem size (§5.4); the related work (Duy & Ozaki's minimum-communication
// decomposition, P3DFFT's slab-vs-pencil choice, OpenFFT's empirical
// auto-tuning) shows the win is in *choosing* the decomposition. Given a
// PlanRequest — problem size N, rank count P, comm::Topology, per-level
// α-β link model, device memory budget, accuracy target — the Planner:
//
//   1. enumerates candidates: k³ block decompositions over the divisors of
//      N × {banded, uniform} octree rate schedules × {flat, hierarchical}
//      exchange routes × wire codecs (DESIGN.md §17), plus the slab
//      baseline distributed FFT for comparison;
//   2. prices each with the analytic models: Eqn 6 volume (per-sub-domain
//      retained samples from a real metadata-only octree), Eqn 2 per-level
//      α-β wire time via comm::predict_exchange_times, a transform-work
//      compute model, and device::plan_local_pipeline feasibility against
//      the device capacity;
//   3. re-prices the closed-form shortlist with the EXACT static traffic
//      mirror (core::lowcomm_exchange_traffic over the real octrees — the
//      same numbers a SimCluster run records);
//   4. emits a ranked ExecutionPlan with predicted costs.
//
// Winning plans are cached by the runtime layer (runtime/plan_provider.hpp)
// in the ResourceCache keyed by (shape, topology, device, accuracy, mode).
// runtime::ServiceConfig::planner_mode selects the mode; `off` bypasses
// planning entirely.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/topology.hpp"
#include "core/pipeline.hpp"
#include "device/device.hpp"

namespace lc::planner {

/// Planner operating mode.
enum class Mode {
  kOff,       ///< bypass the planner; callers use their own static params
  kAnalytic,  ///< model-only pricing (default)
};

[[nodiscard]] const char* mode_name(Mode mode);

/// Decomposition family of a candidate.
enum class DecompKind {
  kBlock,  ///< the paper's k³ sub-domains + octree exchange (executable)
  kSlab,   ///< baseline distributed FFT, 1D slab partition (comparison row)
};

/// Octree rate schedule of a block candidate.
enum class RateSchedule {
  kBanded,   ///< paper_default distance bands up to far_rate
  kUniform,  ///< one uniform exterior rate (Table 3 rows)
};

/// What to plan for.
struct PlanRequest {
  i64 n = 0;                                   ///< grid side (N³ problem)
  int ranks = 1;                               ///< worker count P
  comm::Topology topology = comm::Topology::flat(1);
  comm::HierarchicalLinkModel links{};         ///< per-level α-β params
  device::DeviceSpec device = device::DeviceSpec::unlimited();
  double max_rel_error = 0.05;                 ///< accuracy target (rel L2)
  /// Modeled local transform throughput, in point-passes per second per
  /// rank (one pass = one point through one 1D transform stage). Only the
  /// compute-vs-wire balance depends on it, not the candidate ordering
  /// within equal-compute families.
  double compute_rate_pps = 2e8;
  /// Template for fields the planner does not search over (interpolation,
  /// boundary band, dense halo).
  core::LowCommParams base{};
  /// Pinned mode: validate / repair exactly these params instead of
  /// searching (the service path for requests with explicit params). The
  /// planner only fixes a k that does not divide N and a batch that does
  /// not fit memory; everything else passes through unchanged.
  std::optional<core::LowCommParams> pinned;
};

/// One enumerated execution alternative.
struct Candidate {
  DecompKind kind = DecompKind::kBlock;
  RateSchedule schedule = RateSchedule::kBanded;
  core::ExchangeRoute route = core::ExchangeRoute::kFlat;
  core::LowCommParams params{};  ///< fully populated for kBlock
  [[nodiscard]] std::string name() const;
};

/// Analytic price of a candidate.
struct CandidateCost {
  bool feasible = false;          ///< memory + accuracy + divisibility
  std::string infeasible_reason;  ///< empty when feasible
  std::size_t memory_bytes = 0;   ///< per-rank peak (PipelinePlan actual)
  double predicted_rel_error = 0.0;
  double exchange_bytes = 0.0;    ///< modeled wire bytes, both levels
  comm::LevelTimes wire{};        ///< per-level α-β seconds
  double compute_seconds = 0.0;   ///< modeled per-rank compute
  double compute_rate_pps = 0.0;  ///< rate compute_seconds was priced at
  bool exact_traffic = false;     ///< true → priced from the real octrees

  [[nodiscard]] double total_seconds() const noexcept {
    return wire.total_seconds() + compute_seconds;
  }
};

/// A candidate with its price.
struct RankedCandidate {
  Candidate candidate;
  CandidateCost cost;
};

/// The planner's output: the selected plan plus the full ranking.
struct ExecutionPlan {
  Candidate choice;         ///< best feasible kBlock candidate
  CandidateCost cost;       ///< its price
  Mode mode = Mode::kAnalytic;
  std::vector<RankedCandidate> ranked;  ///< all candidates, best first

  [[nodiscard]] const core::LowCommParams& params() const noexcept {
    return choice.params;
  }
  [[nodiscard]] core::ExchangeRoute route() const noexcept {
    return choice.route;
  }
};

/// Planner tuning knobs.
struct PlannerConfig {
  Mode mode = Mode::kAnalytic;
  /// Exterior rates tried per (k, schedule). Rates above the accuracy
  /// target's tolerance are marked infeasible, not silently dropped.
  std::vector<i64> rate_grid = {2, 4, 8, 16, 32};
  /// Wire codecs tried per (k, schedule, r) block candidate; each one's
  /// quantization error joins the accuracy screen and its wire bytes the
  /// α-β pricing. The default is every codec: off (bit-exact), fp32, bf16,
  /// q16.
  std::vector<comm::WireCodec> codec_grid = {
      comm::WireCodec::kOff, comm::WireCodec::kFp32, comm::WireCodec::kBf16,
      comm::WireCodec::kQ16};
  i64 min_subdomain = 4;
  /// Closed-form shortlist size re-priced with the exact traffic mirror.
  /// The ranking also always carries the slab baseline-FFT row
  /// (informational; the selected plan is always a block candidate).
  std::size_t exact_top = 4;
};

/// The planner. Stateless between calls; cheap to construct.
class Planner {
 public:
  explicit Planner(PlannerConfig config = {});

  [[nodiscard]] const PlannerConfig& config() const noexcept {
    return config_;
  }

  /// Enumerate and price every candidate, best (feasible, cheapest) first.
  [[nodiscard]] std::vector<RankedCandidate> enumerate(
      const PlanRequest& request) const;

  /// Full planning pass → selected plan. Throws InvalidArgument when no
  /// feasible block candidate exists (memory or accuracy exhausted).
  [[nodiscard]] ExecutionPlan plan(const PlanRequest& request) const;

 private:
  PlannerConfig config_;
};

/// ResourceCache key for a request: (shape, topology, device, accuracy,
/// mode, pinned knobs). Kernel-independent by design — plans are shared
/// across kernels because no cost model term depends on the kernel.
[[nodiscard]] std::string cache_key(const PlanRequest& request, Mode mode);

/// Closed-form accuracy heuristic (monotone increasing in the exterior
/// rate, decreasing in N/k): the planning-side stand-in for the paper's
/// measured ≤3% L2 error at its default hyperparameters.
[[nodiscard]] double predicted_rel_error(i64 n, i64 k, i64 exterior_rate,
                                         RateSchedule schedule);

}  // namespace lc::planner
