// ConvolutionService: a multi-tenant serving runtime for low-communication
// 3D convolution.
//
// The paper's pipeline is phrased per call: build plans, build octrees,
// convolve, throw everything away. A serving deployment answers *streams*
// of requests over a handful of (N, k, kernel) configurations, so nearly
// all of that setup is redundant across calls. The service owns the pieces
// that make repeat requests cheap:
//
//   * a keyed ResourceCache of FFT plans (+ twiddle tables), per-sub-domain
//     octrees, materialised kernel spectra, whole convolution engines, and
//     content-addressed results — built once under striped mutexes and
//     LRU-evicted against a byte budget that is mirrored into the
//     simulated device's capacity accounting;
//   * a BufferArena recycling slab/pencil scratch between requests;
//   * a bounded job queue + dispatcher thread that admits requests (with
//     caller-visible QueueFull / DeadlineExceeded rejection), batches the
//     sub-domain convolutions of concurrently queued requests into shared
//     parallel_for waves over one ThreadPool, and accumulates per-region
//     tiles in a second wave;
//   * per-request and service-wide statistics (queue wait, cache hit rate,
//     arena bytes reused, p50/p95/p99 latency via the obs histograms)
//     rendered via the table helpers.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "device/device.hpp"
#include "obs/metrics.hpp"
#include "planner/planner.hpp"
#include "runtime/resource_cache.hpp"

namespace lc::runtime {

/// Admission rejection: the bounded queue is at capacity.
class QueueFull : public Error {
 public:
  explicit QueueFull(const std::string& what) : Error(what) {}
};

/// Admission rejection: the request's queue deadline expired before a
/// dispatch wave picked it up.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Service tuning knobs.
struct ServiceConfig {
  /// Bounded admission queue; submit() beyond this throws QueueFull.
  std::size_t queue_capacity = 64;
  /// Max requests drained into one dispatch wave (their sub-domain tasks
  /// share the wave's parallel_for). 0 → drain everything available.
  std::size_t max_wave = 8;
  /// Byte budget of the plan/octree/spectrum/engine/result cache.
  std::size_t cache_budget_bytes = 512ull << 20;
  /// Idle bytes the workspace arena may retain between requests.
  std::size_t arena_retain_bytes = 256ull << 20;
  /// Memoise full responses by content hash (exact-replay hits skip the
  /// pipeline entirely — the serving layer's biggest win).
  bool cache_results = true;
  /// Materialise kernel spectra into cached half-grid tables instead of
  /// evaluating the closed form per bin (trades device bytes for per-bin
  /// work; only worth it for expensive kernels).
  bool materialize_spectra = false;
  /// Simulated device the service accounts all resident bytes against.
  device::DeviceSpec device = device::DeviceSpec::unlimited();
  /// Execution-planner mode. kOff dispatches every request with exactly its
  /// own params — the pre-planner behaviour, bit for bit. kAnalytic (the
  /// default) resolves request params through the planner first: explicit
  /// params are validated / repaired (an illegal k that does not divide N,
  /// an over-budget batch), and `params.subdomain == 0` asks for a full
  /// auto-tuned plan over the planner's default codec grid. Winning plans
  /// are cached in the resource cache (runtime/plan_provider.hpp).
  planner::Mode planner_mode = planner::Mode::kAnalytic;
  /// Pool the dispatch waves fan out on (nullptr → serial waves).
  ThreadPool* pool = &ThreadPool::global();
  /// Start with dispatch paused (deterministic admission tests).
  bool start_paused = false;
};

/// One convolution request. `input` must cover the full params-implied
/// grid; `subdomain`, when set, restricts the work to that sub-domain and
/// the response output is the accumulated tile over its box (the
/// distributed serving pattern: each worker requests only the regions it
/// owns).
struct ConvolutionRequest {
  RealField input;
  std::shared_ptr<const green::KernelSpectrum> kernel;
  core::LowCommParams params;
  std::optional<std::size_t> subdomain;
  /// Max seconds the request may wait in the queue before it is rejected
  /// with DeadlineExceeded instead of being dispatched.
  std::optional<double> queue_deadline_seconds;
};

/// Per-request measurements, returned alongside the result.
struct RequestStats {
  double queue_seconds = 0.0;   ///< admission → wave pickup
  double run_seconds = 0.0;     ///< wave pickup → response ready
  /// Planner-modeled seconds for this request's share of the plan (its
  /// sub-domain count over the full decomposition). 0 when the planner is
  /// off or the response came from the result cache.
  double predicted_seconds = 0.0;
  /// Realized seconds the prediction is compared against (run_seconds for
  /// executed requests; 0 for result-cache hits, which ran nothing).
  double measured_seconds = 0.0;
  bool result_cache_hit = false;
  bool engine_cache_hit = false;
  bool plan_cache_hit = false;  ///< execution plan found warm in the cache
  std::size_t subdomains = 0;   ///< sub-domain tasks this request spanned

  /// predicted_seconds / measured_seconds (0 when either is unknown) — the
  /// per-request plan-vs-actual drift ratio. >1 = planner pessimistic.
  [[nodiscard]] double pred_over_actual() const noexcept {
    return (predicted_seconds > 0.0 && measured_seconds > 0.0)
               ? predicted_seconds / measured_seconds
               : 0.0;
  }
};

/// Response: the convolution result plus this request's stats.
struct ConvolutionResponse {
  core::LowCommResult result;
  RequestStats stats;
};

/// Service-wide counters and latency digests.
struct ServiceStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;            ///< completed exceptionally
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t result_hits = 0;
  std::size_t engine_hits = 0;
  std::size_t waves = 0;             ///< dispatch waves executed
  std::size_t wave_tasks = 0;        ///< sub-domain tasks across all waves
  double queue_p50_seconds = 0.0;
  double queue_p95_seconds = 0.0;
  double queue_p99_seconds = 0.0;
  double latency_p50_seconds = 0.0;
  double latency_p95_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  std::size_t planned = 0;           ///< executed requests with a plan price
  /// Digest of per-request predicted/measured drift ratios (1.0 = the
  /// planner's compute model nailed it; only planned, executed requests
  /// contribute). 0 until the first planned request completes.
  double drift_p50_ratio = 0.0;
  double drift_p95_ratio = 0.0;
  CacheStats cache;                  ///< resource-cache snapshot
  BufferArena::Stats arena;          ///< workspace-arena snapshot
  std::size_t device_used_bytes = 0;
  std::size_t device_peak_bytes = 0;
};

/// Multi-tenant convolution service (see file comment).
class ConvolutionService {
 public:
  explicit ConvolutionService(ServiceConfig config = {});
  ~ConvolutionService();

  ConvolutionService(const ConvolutionService&) = delete;
  ConvolutionService& operator=(const ConvolutionService&) = delete;

  /// Admit a request; throws QueueFull when the queue is at capacity.
  /// The future resolves with the response, or with the pipeline's
  /// exception (DeadlineExceeded if the queue deadline expired first).
  [[nodiscard]] std::future<ConvolutionResponse> submit(
      ConvolutionRequest request);

  /// submit() + wait: the blocking convenience used by examples/benches.
  [[nodiscard]] ConvolutionResponse run(ConvolutionRequest request);

  /// Halt / resume dispatch (queued requests stay queued while paused).
  void pause();
  void resume();

  /// Block until the queue is drained and no wave is in flight (while
  /// paused: until the in-flight wave finishes; queued jobs stay queued).
  void wait_idle();

  /// Drop every cached resource and trim the arena (cold-start state).
  void clear_caches();

  [[nodiscard]] ServiceStats stats() const;
  /// The stats rendered as a table (bench/ops output).
  [[nodiscard]] TextTable stats_table() const;

  [[nodiscard]] const device::DeviceContext& device() const noexcept {
    return device_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Job;
  struct Wave;

  void dispatcher_loop();
  void run_wave(Wave& wave);
  [[nodiscard]] std::shared_ptr<const core::LowCommConvolution> engine_for(
      const ConvolutionRequest& request, const std::string& engine_key,
      bool& cache_hit);

  ServiceConfig config_;
  device::DeviceContext device_;
  BufferArena arena_;
  ResourceCache cache_;
  planner::Planner planner_;

  mutable std::mutex mutex_;  // queue + counters
  std::condition_variable dispatch_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::unique_ptr<Job>> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t in_flight_ = 0;  // jobs picked up, response not yet delivered

  ServiceStats counters_;  // digest fields recomputed in stats()
  // Per-instance latency histograms (not in the global registry: two
  // services in one process must not pollute each other's digests).
  // Lock-free record() — waves never take mutex_ just to log a sample.
  obs::Histogram queue_hist_;
  obs::Histogram latency_hist_;
  obs::Histogram drift_hist_;  // predicted/measured ratio per planned request

  std::thread dispatcher_;
};

}  // namespace lc::runtime
