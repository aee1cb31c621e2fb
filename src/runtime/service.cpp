#include "runtime/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <utility>

#include "common/check.hpp"
#include "core/accumulator.hpp"
#include "fft/fft1d.hpp"
#include "fft/real_fft.hpp"
#include "green/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "planner/calibration.hpp"
#include "runtime/plan_provider.hpp"
#include "sampling/octree.hpp"

namespace lc::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// FNV-1a over raw bytes; two different seeds give a 128-bit content hash
/// (collisions across distinct inputs are what would make the result cache
/// silently wrong, so 64 bits is not enough headroom for long-lived
/// deployments).
std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string content_hash(std::span<const double> values) {
  const void* data = values.data();
  const std::size_t len = values.size() * sizeof(double);
  char buf[2 * 16 + 1];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(
                    fnv1a(data, len, 0xcbf29ce484222325ull)),
                static_cast<unsigned long long>(
                    fnv1a(data, len, 0x9e3779b97f4a7c15ull)));
  return buf;
}

/// Every parameter that changes the numerical result or the resources an
/// engine builds must appear here; two requests with equal keys may share
/// an engine, octrees, and (given equal content hashes) results.
std::string engine_key_of(const ConvolutionRequest& request) {
  const Grid3& g = request.input.grid();
  const core::LowCommParams& p = request.params;
  std::string key = "engine/n=" + std::to_string(g.nx);
  key += "/k=" + std::to_string(p.subdomain);
  key += "/r=" + std::to_string(p.far_rate);
  key += "/bb=" + std::to_string(p.boundary_band);
  key += "/dh=" + std::to_string(p.dense_halo);
  key += "/B=" + std::to_string(p.batch);
  key += "/interp=" +
         std::to_string(static_cast<int>(p.interpolation));
  key += "/ur=" +
         (p.uniform_rate ? std::to_string(*p.uniform_rate) : std::string("-"));
  // Single-process convolves never hit the wire, but the engine's reported
  // exchanged_bytes (and cached LowCommResults derived from this key) are
  // priced under the codec — don't share them across codecs.
  key += std::string("/wire=") + comm::codec_name(p.wire);
  key += "/kernel=" + request.kernel->cache_key();
  return key;
}

/// Octrees depend on the sampling policy but not on the kernel or batch.
std::string octree_key_of(const ConvolutionRequest& request, std::size_t d) {
  const Grid3& g = request.input.grid();
  const core::LowCommParams& p = request.params;
  std::string key = "octree/n=" + std::to_string(g.nx);
  key += "/k=" + std::to_string(p.subdomain);
  key += "/r=" + std::to_string(p.far_rate);
  key += "/bb=" + std::to_string(p.boundary_band);
  key += "/dh=" + std::to_string(p.dense_halo);
  key += "/ur=" +
         (p.uniform_rate ? std::to_string(*p.uniform_rate) : std::string("-"));
  key += "/d=" + std::to_string(d);
  return key;
}

std::size_t plan_bytes_estimate(std::size_t n) {
  if (fft::is_pow2(n)) {
    return sizeof(fft::Fft1D) + n / 2 * sizeof(std::complex<double>) +
           n * sizeof(std::size_t);
  }
  // Bluestein path: chirp tables + convolution spectrum at next_pow2(2n).
  return sizeof(fft::Fft1D) +
         3 * fft::next_pow2(2 * n) * sizeof(std::complex<double>);
}

constexpr std::size_t kOctreeBytesEstimate = 32 * 1024;

}  // namespace

/// One admitted request and the state threaded through its wave.
struct ConvolutionService::Job {
  ConvolutionRequest request;
  std::promise<ConvolutionResponse> promise;
  Clock::time_point enqueued;
  std::int64_t enqueue_ns = 0;  // tracer clock at submit; 0 → tracing off

  // Filled in by run_wave.
  RequestStats stats;
  std::string engine_key;
  std::string result_key;  // empty when result caching is off
  // The resolved execution plan (null under planner::Mode::kOff) and the
  // compute rate its price was quoted at — the plan-vs-actual telemetry
  // pairs these with the realized run time at response delivery.
  std::shared_ptr<const planner::ExecutionPlan> plan;
  double plan_rate_pps = 0.0;
  std::shared_ptr<const core::LowCommConvolution> engine;
  std::vector<std::size_t> subdomains;  // sub-domain indices to convolve
  // One slot per sub-domain task (CompressedField has no empty state, so
  // slots are optional until the convolve wave fills them).
  std::vector<std::optional<sampling::CompressedField>> slots;
  std::vector<sampling::CompressedField> contributions;
  std::vector<std::exception_ptr> task_errors;  // one per slot
  Clock::time_point picked_up;
  bool responded = false;

  void respond(ConvolutionResponse response) {
    responded = true;
    promise.set_value(std::move(response));
  }
  void fail(std::exception_ptr error) {
    responded = true;
    promise.set_exception(std::move(error));
  }
};

struct ConvolutionService::Wave {
  std::vector<std::unique_ptr<Job>> jobs;
};

ConvolutionService::ConvolutionService(ServiceConfig config)
    : config_(config),
      device_(config.device),
      arena_(config.arena_retain_bytes,
             [this](std::ptrdiff_t delta) {
               if (delta > 0) {
                 device_.register_alloc(static_cast<std::size_t>(delta));
               } else if (delta < 0) {
                 device_.register_free(static_cast<std::size_t>(-delta));
               }
             }),
      cache_(ResourceCache::Config{config.cache_budget_bytes, &device_, 16}),
      planner_([&config] {
        planner::PlannerConfig pc;
        pc.mode = config.planner_mode;
        return planner::Planner(pc);
      }()),
      paused_(config.start_paused) {
  LC_CHECK_ARG(config_.queue_capacity >= 1, "queue capacity must be >= 1");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ConvolutionService::~ConvolutionService() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  dispatch_cv_.notify_all();
  dispatcher_.join();
  // Reject anything still queued; callers holding futures must not hang.
  for (auto& job : queue_) {
    job->fail(std::make_exception_ptr(
        QueueFull("convolution service stopped before dispatch")));
  }
  queue_.clear();
}

std::future<ConvolutionResponse> ConvolutionService::submit(
    ConvolutionRequest request) {
  LC_CHECK_ARG(request.kernel != nullptr, "request kernel is null");
  LC_CHECK_ARG(!request.input.empty(), "request input is empty");
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  job->enqueued = Clock::now();
  if (obs::Tracer::global().enabled()) {
    job->enqueue_ns = obs::Tracer::global().now_ns();
  }
  auto future = job->promise.get_future();
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw QueueFull("convolution service is shutting down");
    }
    if (queue_.size() >= config_.queue_capacity) {
      ++counters_.rejected_queue_full;
      throw QueueFull("convolution service queue is full (" +
                      std::to_string(config_.queue_capacity) +
                      " requests waiting)");
    }
    queue_.push_back(std::move(job));
    ++counters_.submitted;
  }
  dispatch_cv_.notify_one();
  return future;
}

ConvolutionResponse ConvolutionService::run(ConvolutionRequest request) {
  return submit(std::move(request)).get();
}

void ConvolutionService::pause() {
  std::lock_guard lock(mutex_);
  paused_ = true;
}

void ConvolutionService::resume() {
  {
    std::lock_guard lock(mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

void ConvolutionService::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return (queue_.empty() || paused_) && in_flight_ == 0;
  });
}

void ConvolutionService::clear_caches() {
  cache_.clear();
  arena_.trim();
}

void ConvolutionService::dispatcher_loop() {
  for (;;) {
    Wave wave;
    {
      std::unique_lock lock(mutex_);
      dispatch_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;
      const std::size_t take =
          config_.max_wave == 0 ? queue_.size()
                                : std::min(queue_.size(), config_.max_wave);
      wave.jobs.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        wave.jobs.push_back(std::move(queue_[i]));
      }
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(take));
      in_flight_ += take;
      ++counters_.waves;
    }

    run_wave(wave);

    {
      std::lock_guard lock(mutex_);
      in_flight_ -= wave.jobs.size();
    }
    idle_cv_.notify_all();
  }
}

std::shared_ptr<const core::LowCommConvolution>
ConvolutionService::engine_for(const ConvolutionRequest& request,
                               const std::string& engine_key,
                               bool& cache_hit) {
  const Grid3& grid = request.input.grid();

  // Hermitian kernels run the half-spectrum pipeline, so the cached
  // materialisation stores only the (nx/2+1)·ny·nz half grid — half the
  // ResourceCache bytes of a full DenseSpectrum.
  const bool real_dispatch = request.kernel->hermitian();
  std::shared_ptr<const green::KernelSpectrum> kernel = request.kernel;
  if (config_.materialize_spectra) {
    const std::size_t full_bytes =
        grid.size() * sizeof(std::complex<double>) +
        sizeof(green::DenseSpectrum);
    if (real_dispatch) {
      const std::string spectrum_key =
          "spectrum-half/n=" + std::to_string(grid.nx) +
          "/kernel=" + kernel->cache_key();
      const Grid3 half{grid.nx / 2 + 1, grid.ny, grid.nz};
      const std::size_t bytes =
          half.size() * sizeof(std::complex<double>) +
          sizeof(green::HalfDenseSpectrum);
      kernel = cache_.get_or_build<green::HalfDenseSpectrum>(
          spectrum_key, bytes,
          [&]() -> std::shared_ptr<const green::HalfDenseSpectrum> {
            obs::Registry::global()
                .counter("spectrum.half_bytes_saved")
                .add(full_bytes - bytes);
            return std::make_shared<green::HalfDenseSpectrum>(
                request.kernel->materialize_half(grid), grid,
                request.kernel->name());
          });
    } else {
      const std::string spectrum_key =
          "spectrum/n=" + std::to_string(grid.nx) +
          "/kernel=" + kernel->cache_key();
      kernel = cache_.get_or_build<green::DenseSpectrum>(
          spectrum_key, full_bytes,
          [&]() -> std::shared_ptr<const green::DenseSpectrum> {
            return std::make_shared<green::DenseSpectrum>(
                request.kernel->materialize(grid), request.kernel->name());
          });
    }
  }

  // The length-N plan is the most reusable resource of all: every engine
  // over an N³ grid shares one, whatever its kernel or sampling policy.
  const std::size_t n = static_cast<std::size_t>(grid.nx);
  const auto plan = cache_.get_or_build<fft::Fft1D>(
      "plan/n=" + std::to_string(n), plan_bytes_estimate(n),
      [&]() -> std::shared_ptr<const fft::Fft1D> {
        return std::make_shared<fft::Fft1D>(n);
      });
  // The r2c/c2r plan rides the same cache when the real path is active
  // (its embedded half-length complex plan is the heavy part).
  std::shared_ptr<const fft::RealFft1D> real_plan;
  if (real_dispatch) {
    real_plan = cache_.get_or_build<fft::RealFft1D>(
        "plan-real/n=" + std::to_string(n), plan_bytes_estimate(n / 2) + n / 2,
        [&]() -> std::shared_ptr<const fft::RealFft1D> {
          return std::make_shared<fft::RealFft1D>(n);
        });
  }

  // Engines are accounted at metadata size only: their heavy parts (plan,
  // spectrum, octrees) are separate cache entries with their own budgets.
  const auto params = request.params;
  const std::size_t engine_bytes =
      sizeof(core::LowCommConvolution) + 4096;
  bool built = false;
  auto engine = cache_.get_or_build<core::LowCommConvolution>(
      engine_key, engine_bytes,
      [&]() -> std::shared_ptr<const core::LowCommConvolution> {
        built = true;
        core::LocalConvolverConfig cfg;
        cfg.batch = params.batch;
        // The service parallelises ACROSS (request, sub-domain) tasks from
        // the dispatcher; engines must stay serial inside or the wave's
        // parallel_for would nest.
        cfg.pool = nullptr;
        cfg.device = &device_;
        cfg.arena = &arena_;
        cfg.plan = plan;
        cfg.real_plan = real_plan;
        return std::make_shared<core::LowCommConvolution>(grid, kernel,
                                                          params, cfg);
      });
  cache_hit = !built;
  return engine;
}

void ConvolutionService::run_wave(Wave& wave) {
  LC_TRACE("service.wave");
  const Clock::time_point wave_start = Clock::now();

  // Admission bookkeeping + result-cache short-circuit, job by job.
  {
  LC_TRACE("service.admission");
  for (auto& job : wave.jobs) {
    job->picked_up = wave_start;
    job->stats.queue_seconds =
        std::chrono::duration<double>(wave_start - job->enqueued).count();
    queue_hist_.record(job->stats.queue_seconds);
    const auto& deadline = job->request.queue_deadline_seconds;
    if (deadline && job->stats.queue_seconds > *deadline) {
      std::lock_guard lock(mutex_);
      ++counters_.rejected_deadline;
      job->fail(std::make_exception_ptr(DeadlineExceeded(
          "request waited " + format_fixed(job->stats.queue_seconds, 3) +
          " s in queue, deadline was " + format_fixed(*deadline, 3) + " s")));
      continue;
    }

    try {
      if (config_.planner_mode != planner::Mode::kOff) {
        // Resolve the request's params through the planner: explicit params
        // are validated / repaired, subdomain == 0 asks for a full search.
        // Keyed cache lookup — repeat shapes skip enumeration entirely.
        planner::PlanRequest preq;
        preq.n = job->request.input.grid().nx;
        preq.device = config_.device;
        preq.base = job->request.params;
        if (job->request.params.subdomain != 0) {
          preq.pinned = job->request.params;
        }
        const auto plan =
            plan_cached(cache_, planner_, preq, &job->stats.plan_cache_hit);
        job->request.params = plan->params();
        job->plan = plan;
        // The rate the plan's compute price is quoted at: the request
        // default unless a calibration fit overrides it (plan cache keys
        // are salted with the calibration, so a cached plan always matches
        // the currently loaded fit).
        job->plan_rate_pps =
            planner::apply_calibration(preq, planner::calibration_from_env())
                .compute_rate_pps;
      }
      job->engine_key = engine_key_of(job->request);
      if (config_.cache_results) {
        std::string scope = "full";
        std::string hash;
        if (job->request.subdomain) {
          scope = "d=" + std::to_string(*job->request.subdomain);
          // A sub-domain's contribution depends only on the input inside
          // its box, so hash just the chunk: requests over different full
          // fields that agree on this sub-domain still share the entry.
          const core::DomainDecomposition decomp(
              job->request.input.grid(), job->request.params.subdomain);
          LC_CHECK_ARG(*job->request.subdomain < decomp.count(),
                       "request sub-domain index out of range");
          const RealField chunk = job->request.input.extract(
              decomp.subdomain(*job->request.subdomain));
          hash = content_hash(chunk.span());
        } else {
          hash = content_hash(job->request.input.span());
        }
        job->result_key =
            "result/" + job->engine_key + "/" + scope + "/in=" + hash;
        if (auto cached = cache_.peek(job->result_key)) {
          const auto& result =
              *std::static_pointer_cast<const core::LowCommResult>(cached);
          job->stats.result_cache_hit = true;
          job->stats.subdomains = 0;
          job->stats.run_seconds = seconds_since(wave_start);
          {
            std::lock_guard lock(mutex_);
            ++counters_.result_hits;
            ++counters_.completed;
          }
          latency_hist_.record(job->stats.queue_seconds +
                               job->stats.run_seconds);
          if (job->enqueue_ns != 0 && obs::Tracer::global().enabled()) {
            obs::Tracer::global().record(
                "service.request", job->enqueue_ns,
                obs::Tracer::global().now_ns() - job->enqueue_ns);
          }
          job->respond(ConvolutionResponse{result, job->stats});
          continue;
        }
      }

      bool engine_hit = false;
      job->engine = engine_for(job->request, job->engine_key, engine_hit);
      job->stats.engine_cache_hit = engine_hit;
      if (engine_hit) {
        std::lock_guard lock(mutex_);
        ++counters_.engine_hits;
      }

      const auto& decomp = job->engine->decomposition();
      if (job->request.subdomain) {
        LC_CHECK_ARG(*job->request.subdomain < decomp.count(),
                     "request sub-domain index out of range");
        job->subdomains = {*job->request.subdomain};
      } else {
        job->subdomains.resize(decomp.count());
        for (std::size_t d = 0; d < decomp.count(); ++d) {
          job->subdomains[d] = d;
        }
      }
      job->stats.subdomains = job->subdomains.size();
      if (job->plan != nullptr && decomp.count() > 0) {
        // The plan prices the full decomposition (its single-rank request
        // owns every sub-domain); a sub-domain-scoped request executes only
        // its share of that work.
        job->stats.predicted_seconds =
            job->plan->cost.compute_seconds *
            static_cast<double>(job->subdomains.size()) /
            static_cast<double>(decomp.count());
      }
      job->slots.resize(job->subdomains.size());
    } catch (...) {
      std::lock_guard lock(mutex_);
      ++counters_.failed;
      job->fail(std::current_exception());
    }
  }
  }  // service.admission

  // Flatten every live job's sub-domain work into one shared task list —
  // this is the wave: concurrently queued requests batch into a single
  // parallel_for instead of running their own pools back to back.
  struct Task {
    Job* job;
    std::size_t slot;  // index into job->subdomains / contributions
  };
  std::vector<Task> tasks;
  for (auto& job : wave.jobs) {
    if (job->responded) continue;
    job->task_errors.assign(job->subdomains.size(), nullptr);
    for (std::size_t i = 0; i < job->subdomains.size(); ++i) {
      tasks.push_back(Task{job.get(), i});
    }
  }

  const auto convolve_task = [&](std::size_t t) {
    LC_TRACE("service.task");
    Task& task = tasks[t];
    Job& job = *task.job;
    const std::size_t d = job.subdomains[task.slot];
    try {
      // Octrees outlive engines in the cache: a re-built engine re-adopts
      // them instead of re-deriving the sampling pattern. Accounted at a
      // flat estimate — cell counts aren't known before building and stay
      // small (tens of bytes per cell).
      const auto tree = cache_.get_or_build<sampling::Octree>(
          octree_key_of(job.request, d), kOctreeBytesEstimate,
          [&]() -> std::shared_ptr<const sampling::Octree> {
            const auto& decomp = job.engine->decomposition();
            return std::make_shared<sampling::Octree>(
                decomp.grid(), decomp.subdomain(d),
                job.request.params.make_policy());
          });
      job.engine->seed_octree(d, tree);
      job.slots[task.slot].emplace(
          job.engine->convolve_one(job.request.input, d));
    } catch (...) {
      job.task_errors[task.slot] = std::current_exception();
    }
  };

  ThreadPool* pool = config_.pool;
  const bool can_parallel =
      pool != nullptr && pool->size() > 1 && !pool->on_worker_thread();
  {
    LC_TRACE("service.convolve_wave");
    if (can_parallel && tasks.size() > 1) {
      pool->parallel_for(0, tasks.size(), convolve_task);
    } else {
      for (std::size_t t = 0; t < tasks.size(); ++t) convolve_task(t);
    }
  }
  {
    std::lock_guard lock(mutex_);
    counters_.wave_tasks += tasks.size();
  }

  // Accumulation wave: per-sub-domain tiles of each full-domain job (the
  // boxes are disjoint, so tile inserts need no locking), or the single
  // tile of a sub-domain-scoped job.
  struct AccTask {
    Job* job;
    std::size_t slot;
    RealField* output;
  };
  std::vector<AccTask> acc_tasks;
  std::vector<std::unique_ptr<RealField>> outputs;
  for (auto& job : wave.jobs) {
    if (job->responded) continue;
    std::exception_ptr first_error;
    for (const auto& err : job->task_errors) {
      if (err != nullptr) {
        first_error = err;
        break;
      }
    }
    if (first_error != nullptr) {
      std::lock_guard lock(mutex_);
      ++counters_.failed;
      job->fail(first_error);
      continue;
    }
    job->contributions.reserve(job->slots.size());
    for (auto& slot : job->slots) {
      job->contributions.push_back(std::move(*slot));
    }
    job->slots.clear();
    outputs.push_back(std::make_unique<RealField>());
    RealField* out = outputs.back().get();
    if (job->request.subdomain) {
      acc_tasks.push_back(AccTask{job.get(), 0, out});
    } else {
      *out = RealField(job->request.input.grid(), 0.0);
      for (std::size_t i = 0; i < job->subdomains.size(); ++i) {
        acc_tasks.push_back(AccTask{job.get(), i, out});
      }
    }
  }

  const auto accumulate_task = [&](std::size_t t) {
    AccTask& task = acc_tasks[t];
    Job& job = *task.job;
    try {
      const auto& decomp = job.engine->decomposition();
      const Box3& box = decomp.subdomain(job.subdomains[task.slot]);
      RealField tile = core::accumulate_region(
          job.contributions, box, job.request.params.interpolation);
      if (job.request.subdomain) {
        *task.output = std::move(tile);  // the tile IS the response
      } else {
        task.output->insert(tile, box.lo);
      }
    } catch (...) {
      job.task_errors[task.slot] = std::current_exception();
    }
  };
  {
    LC_TRACE("service.accumulate_wave");
    if (can_parallel && acc_tasks.size() > 1) {
      pool->parallel_for(0, acc_tasks.size(), accumulate_task);
    } else {
      for (std::size_t t = 0; t < acc_tasks.size(); ++t) accumulate_task(t);
    }
  }

  // Deliver responses (and optionally memoise them).
  std::size_t out_index = 0;
  for (auto& job : wave.jobs) {
    if (job->responded) continue;
    RealField* out = outputs[out_index++].get();
    std::exception_ptr first_error;
    for (const auto& err : job->task_errors) {
      if (err != nullptr) {
        first_error = err;
        break;
      }
    }
    if (first_error != nullptr) {
      std::lock_guard lock(mutex_);
      ++counters_.failed;
      job->fail(first_error);
      continue;
    }

    core::LowCommResult result;
    result.output = std::move(*out);
    for (const auto& c : job->contributions) {
      result.compressed_samples += c.samples().size();
      result.exchanged_bytes +=
          c.encoded_sample_bytes(job->request.params.wire);
    }
    result.compression_ratio =
        static_cast<double>(job->contributions.size()) *
        static_cast<double>(job->request.input.grid().size()) /
        static_cast<double>(result.compressed_samples);

    job->stats.run_seconds = seconds_since(wave_start);
    job->stats.measured_seconds = job->stats.run_seconds;

    if (config_.cache_results && !job->result_key.empty()) {
      const std::size_t bytes =
          result.output.size() * sizeof(double) + sizeof(core::LowCommResult);
      auto shared = std::make_shared<const core::LowCommResult>(result);
      // get_or_build with a capture-by-copy builder: inserts our result (or
      // adopts a concurrent twin — identical by construction).
      (void)cache_.get_or_build<core::LowCommResult>(
          job->result_key, bytes,
          [&shared]() -> std::shared_ptr<const core::LowCommResult> {
            return shared;
          });
    }

    {
      std::lock_guard lock(mutex_);
      ++counters_.completed;
      if (job->stats.predicted_seconds > 0.0) ++counters_.planned;
    }
    if (const double ratio = job->stats.pred_over_actual(); ratio > 0.0) {
      drift_hist_.record(ratio);
    }
    if (job->plan != nullptr) {
      // Plan-vs-actual record for the serving path (result-cache hits and
      // planner-off requests never reach here — nothing was predicted).
      // Ranks/nodes are 1: the service convolves locally; its records feed
      // the drift gauges and digests but not the distributed-rate fit.
      obs::PlanOutcome rec;
      rec.source = "service";
      const core::LowCommParams& p = job->request.params;
      rec.n = job->request.input.grid().nx;
      rec.ranks = 1;
      rec.nodes = 1;
      rec.k = p.subdomain;
      rec.far_rate = static_cast<int>(p.far_rate);
      rec.schedule =
          job->plan->choice.schedule == planner::RateSchedule::kUniform
              ? "uniform"
              : "banded";
      rec.route = "local";
      rec.wire = comm::codec_name(p.wire);
      rec.batch = p.batch;
      rec.pred_compute_s = job->stats.predicted_seconds;
      rec.pred_rate_pps = job->plan_rate_pps;
      rec.pred_point_passes =
          job->stats.predicted_seconds * job->plan_rate_pps;
      rec.pred_wire_s = job->plan->cost.wire.total_seconds();
      rec.pred_intra_s = job->plan->cost.wire.intra_seconds;
      rec.pred_inter_s = job->plan->cost.wire.inter_seconds;
      rec.pred_bytes =
          static_cast<std::int64_t>(job->plan->cost.exchange_bytes);
      rec.pred_memory_b =
          static_cast<std::int64_t>(job->plan->cost.memory_bytes);
      rec.pred_rel_error = job->plan->cost.predicted_rel_error;
      rec.meas_wall_s = job->stats.queue_seconds + job->stats.run_seconds;
      rec.meas_compute_s = job->stats.measured_seconds;
      rec.meas_memory_peak_b =
          static_cast<std::int64_t>(device_.peak_bytes());
      obs::record_plan_outcome(rec);
    }
    latency_hist_.record(job->stats.queue_seconds + job->stats.run_seconds);
    if (job->enqueue_ns != 0 && obs::Tracer::global().enabled()) {
      obs::Tracer::global().record(
          "service.request", job->enqueue_ns,
          obs::Tracer::global().now_ns() - job->enqueue_ns);
    }
    job->respond(ConvolutionResponse{std::move(result), job->stats});
  }
}

ServiceStats ConvolutionService::stats() const {
  ServiceStats out;
  {
    std::lock_guard lock(mutex_);
    out = counters_;
  }
  const obs::Histogram::Snapshot queue_snap = queue_hist_.snapshot();
  const obs::Histogram::Snapshot latency_snap = latency_hist_.snapshot();
  out.queue_p50_seconds = queue_snap.quantile(0.50);
  out.queue_p95_seconds = queue_snap.quantile(0.95);
  out.queue_p99_seconds = queue_snap.quantile(0.99);
  out.latency_p50_seconds = latency_snap.quantile(0.50);
  out.latency_p95_seconds = latency_snap.quantile(0.95);
  out.latency_p99_seconds = latency_snap.quantile(0.99);
  const obs::Histogram::Snapshot drift_snap = drift_hist_.snapshot();
  out.drift_p50_ratio = drift_snap.quantile(0.50);
  out.drift_p95_ratio = drift_snap.quantile(0.95);
  out.cache = cache_.stats();
  out.arena = arena_.stats();
  out.device_used_bytes = device_.used_bytes();
  out.device_peak_bytes = device_.peak_bytes();
  return out;
}

TextTable ConvolutionService::stats_table() const {
  const ServiceStats s = stats();
  TextTable table("ConvolutionService stats");
  table.header({"metric", "value"});
  table.row({"submitted", std::to_string(s.submitted)});
  table.row({"completed", std::to_string(s.completed)});
  table.row({"failed", std::to_string(s.failed)});
  table.row({"rejected (queue full)",
             std::to_string(s.rejected_queue_full)});
  table.row({"rejected (deadline)", std::to_string(s.rejected_deadline)});
  table.row({"result-cache hits", std::to_string(s.result_hits)});
  table.row({"engine-cache hits", std::to_string(s.engine_hits)});
  table.row({"dispatch waves", std::to_string(s.waves)});
  table.row({"wave tasks", std::to_string(s.wave_tasks)});
  table.row({"cache hit rate", format_fixed(s.cache.hit_rate(), 3)});
  table.row({"cache bytes", format_bytes_gb(
                                static_cast<double>(s.cache.bytes))});
  table.row({"cache evictions", std::to_string(s.cache.evictions)});
  table.row({"arena bytes reused",
             format_bytes_gb(static_cast<double>(s.arena.bytes_reused))});
  table.row({"arena reuse count", std::to_string(s.arena.reuses)});
  table.row({"queue wait p50 (s)", format_fixed(s.queue_p50_seconds, 4)});
  table.row({"queue wait p95 (s)", format_fixed(s.queue_p95_seconds, 4)});
  table.row({"queue wait p99 (s)", format_fixed(s.queue_p99_seconds, 4)});
  table.row({"latency p50 (s)", format_fixed(s.latency_p50_seconds, 4)});
  table.row({"latency p95 (s)", format_fixed(s.latency_p95_seconds, 4)});
  table.row({"latency p99 (s)", format_fixed(s.latency_p99_seconds, 4)});
  table.row({"planned requests", std::to_string(s.planned)});
  table.row({"pred/actual p50", format_fixed(s.drift_p50_ratio, 3)});
  table.row({"pred/actual p95", format_fixed(s.drift_p95_ratio, 3)});
  table.row({"device used", format_bytes_gb(
                                static_cast<double>(s.device_used_bytes))});
  table.row({"device peak", format_bytes_gb(
                                static_cast<double>(s.device_peak_bytes))});
  return table;
}

}  // namespace lc::runtime
