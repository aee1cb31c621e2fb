// bench_e2e — the end-to-end benchmark (README.md in this directory).
//
// Four workloads: the paper's low-communication method at its POC shape on
// the hierarchical route and at a codec-heavy shape on the flat route, the
// slab-FFT baseline at the same (N, P, topology) as the first, and the
// ConvolutionService under a closed loop of two clients. Every layer is
// measured from outside: the bench times calls into public functions and
// reads public counters around them (CommStats, RankCommStats,
// RequestStats, ServiceStats, and the convolver / accumulate registry
// histograms). In-process wall time and modeled α-β wire time are reported
// side by side and never added together.
//
//   bench_e2e [--seed N] [--seconds S] [--trace PATH] [--smoke]
//       every workload, each in its own child process;
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace PATH] [--smoke]
//       one workload in this process.
//
// Each metric prints as "<workload> <metric> <value> <unit>". A single
// workload run ends with one JSON line {"correct", "attempted", "failed",
// "metrics"} holding the end-to-end metrics, or under --trace the per-layer
// ones, and writes a sidecar stamped with the commit, nproc and seed:
// BENCH_e2e_<workload>.json, or BENCH_e2e_layers_<workload>.json under
// --trace, which also adds one traced op per workload and writes a Chrome
// trace to PATH. --smoke runs every workload at N=32 for one op with every
// check and the traced pass on.
//
// The exit status is nonzero when any op throws, is rejected, misses its
// error tolerance, or breaks bit-identical reproducibility, and when the
// traced layer rows do not add up to P×wall.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/dense.hpp"
#include "baseline/distributed_fft.hpp"
#include "bench_json.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/wire_codec.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/accumulator.hpp"
#include "core/pipeline.hpp"
#include "green/gaussian.hpp"
#include "green/poisson.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "planner/planner.hpp"
#include "runtime/service.hpp"
#include "sampling/octree.hpp"

extern char** environ;

namespace {

using namespace lc;
using Clock = std::chrono::steady_clock;
using KernelPtr = std::shared_ptr<const green::KernelSpectrum>;

// ---------------------------------------------------------------------------
// Workloads and metrics (BENCHMARK.json mirrors both metric lists).

enum class Kind { kLowComm, kSlab, kService };

struct Workload {
  const char* name;
  Kind kind;
  i64 n;  ///< grid side
  i64 k;  ///< sub-domain side (the slab baseline does not decompose)
  comm::WireCodec wire;
  int ranks;           ///< SimCluster ranks (1: the in-process service)
  int ranks_per_node;  ///< 1 → flat topology
};

constexpr Workload kWorkloads[] = {
    {"lowcomm-n128-hier", Kind::kLowComm, 128, 32, comm::WireCodec::kOff, 4,
     2},
    {"lowcomm-n64-q16-flat", Kind::kLowComm, 64, 16, comm::WireCodec::kQ16, 4,
     1},
    {"slab-n128", Kind::kSlab, 128, 32, comm::WireCodec::kOff, 4, 2},
    {"service-n64-mixed", Kind::kService, 64, 16, comm::WireCodec::kOff, 1, 1},
};

constexpr i64 kSmokeN = 32;
constexpr i64 kSmokeK = 16;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The result line's metrics: end-to-end without --trace, per-layer with it.
// `rank_s` rows are seconds summed over the ranks (for the service: over the
// pool workers) per op.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},     {"latency_s_p50", "s"}, {"latency_s_p95", "s"},
    {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"fft.stage1_s", "rank_s"},
    {"fft.stage2_s", "rank_s"},
    {"fft.stage3_s", "rank_s"},
    {"green.eval_mpts_s", "Mpts/s"},
    {"sampling.octree_build_s", "rank_s"},
    {"sampling.retained_samples", "count"},
    {"sampling.compression_ratio", "ratio"},
    {"core.accumulate_s", "rank_s"},
    {"core.accumulate_mpts_s", "Mpts/s"},
    {"unattributed_s", "rank_s"},
    {"unattributed_frac", "ratio"},
    {"comm.encode_gbs", "GB/s"},
    {"comm.decode_gbs", "GB/s"},
    {"comm.intra_mb", "MB"},
    {"comm.inter_mb", "MB"},
    {"comm.intra_msgs", "count"},
    {"comm.inter_msgs", "count"},
    {"comm.recv_wait_s", "rank_s"},
    {"comm.barrier_wait_s", "rank_s"},
    {"runtime.result_hit_ratio", "ratio"},
    {"runtime.engine_hit_ratio", "ratio"},
    {"runtime.plan_hit_ratio", "ratio"},
    {"runtime.tasks_per_wave", "count"},
    {"runtime.cache_evictions", "count"},
    {"device.peak_mb", "MB"},
    {"planner.plan_s", "s"},
    {"planner.candidates", "count"},
    {"planner.pred_over_actual_p50", "ratio"},
    {"pool.busy_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"rel_l2", "ratio"},
};
// Printed and kept in the sidecars only. The modeled α-β wire seconds are a
// deterministic function of the byte and message counts above, not a
// measurement, and the service has no wire at all; failures show in the
// result line's own counts; latency_samples is the sample count behind the
// latency quantiles. The other rows are seconds of a layer only some
// workloads have, which would read a constant zero on the rest.
constexpr MetricSpec kInfo[] = {
    {"wire_model_s", "s"},
    {"comm.wire_model_intra_s", "s"},
    {"comm.wire_model_inter_s", "s"},
    {"failed_frac", "ratio"},
    {"latency_samples", "count"},
    {"core.convolve_one_s", "s"},
    {"comm.recv_wait_max_s", "s"},
    {"runtime.queue_s_p50", "s"},
    {"runtime.run_s_p50", "s"},
};

constexpr double kLossyTolerance = 0.03;   // the paper's error bar
constexpr double kExactTolerance = 1e-10;  // slab baseline vs dense
// The Poisson kernel's output norm rests on a few lowest modes, so on
// uniform random fields its relative error has a heavy upper tail: over
// 3000 inputs at N=64, k=16 under the same policy, median 1.9%, p99.9 4.6%,
// and one input seen at 5.9%. The dense halo (2–8) and the interpolation
// order do not shrink it; dense sampling makes it exact. A broken output
// reads near 100%.
constexpr double kPoissonTolerance = 0.15;
constexpr double kLayerSlack = 0.05;  // attributed rows ≤ 1.05·P·wall
// Set-up instances: one discarded warm-up, then at least kSetupInstances
// timed ones, and more while under kSetupSeconds of set-up has been timed
// (cheap set-ups get a steadier median), up to kMaxSetupInstances.
constexpr int kSetupInstances = 5;
constexpr int kMaxSetupInstances = 25;
constexpr double kSetupSeconds = 2.0;
constexpr std::size_t kMinOps = 5;    // distributed ops, then until --seconds
constexpr int kServiceClients = 2;
// The closed loop sends a request count fixed by --seconds (about what the
// service answers in that time on 4 cores) rather than running until the
// clock: its resident set grows with the requests it has served, so
// peak_rss_mb compares only at equal work.
constexpr double kServiceRequestsPerSecond = 12.0;
constexpr std::size_t kMinServiceRequests = 40;
constexpr int kTracedRequestsPerClient = 3;
// Bounds the resident set the result cache can reach (one N=64 result is
// 2 MB) and makes eviction part of the workload.
constexpr std::size_t kServiceCacheBytes = 64ull << 20;

// Independent input streams derived from --seed.
enum Stream : std::uint64_t {
  kSetupStream = 1,
  kMeasureStream = 2,
  kTraceStream = 3,
  kContentStream = 4,
  kReplayStream = 5,
};

struct Options {
  std::string workload;  // empty → every workload in a child process
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;  // empty → no traced pass
  bool smoke = false;
};

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t derive_seed(std::uint64_t seed, Stream stream,
                          std::uint64_t index) {
  SplitMix64 mix(seed);
  SplitMix64 out(mix.next() ^ (static_cast<std::uint64_t>(stream) << 48) ^
                 (index * 0xD1B54A32D192ED03ull));
  return out.next();
}

RealField random_field(const Grid3& g, std::uint64_t seed) {
  RealField f(g);
  SplitMix64 rng(seed);
  for (double& v : f.span()) v = rng.uniform(-1.0, 1.0);
  return f;
}

double rel_l2(const RealField& out, const RealField& ref) {
  if (out.grid() != ref.grid()) return INFINITY;
  double num = 0.0;
  double den = 0.0;
  const auto a = out.span();
  const auto b = ref.span();
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

/// FNV-1a over the bits of every value: equal hashes mean bit-identical
/// outputs (up to a 2^-64 collision).
std::uint64_t field_hash(const RealField& f) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : f.span()) {
    h ^= std::bit_cast<std::uint64_t>(v);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Whether to start another set-up instance after `done` of them (the
/// first is the warm-up) that timed `timed`.
bool more_setup(const Options& opt, int done,
                const std::vector<double>& timed) {
  const int min = opt.smoke ? 1 : kSetupInstances;
  const int max = opt.smoke ? 1 : kMaxSetupInstances;
  const int timed_done = done - 1;
  return timed_done < min || (timed_done < max && sum(timed) < kSetupSeconds);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB → MB
}

comm::Topology topology_of(const Workload& w) {
  return w.ranks_per_node == 1
             ? comm::Topology::flat(w.ranks)
             : comm::Topology::grouped(w.ranks, w.ranks_per_node);
}

/// Every LowCommParams field, pinned (nothing defaults from the environment).
core::LowCommParams params_of(const Workload& w, i64 k) {
  core::LowCommParams p;
  p.subdomain = k;
  p.far_rate = 4;
  p.boundary_band = 0;
  p.dense_halo = 2;
  p.batch = 512;
  p.interpolation = sampling::Interpolation::kTrilinear;
  p.uniform_rate = std::nullopt;
  p.wire = w.wire;
  return p;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

const char* unit_of(std::string_view name) {
  for (const std::span<const MetricSpec> list :
       {std::span<const MetricSpec>(kEndToEnd),
        std::span<const MetricSpec>(kPerLayer),
        std::span<const MetricSpec>(kInfo)}) {
    for (const MetricSpec& spec : list) {
      if (name == spec.name) return spec.unit;
    }
  }
  throw std::logic_error("undeclared metric " + std::string(name));
}

// ---------------------------------------------------------------------------
// Ledger: metrics, op accounting and the result line. Not thread-safe.

class Ledger {
 public:
  explicit Ledger(std::string workload) : workload_(std::move(workload)) {}

  void add(const std::string& name, double value) {
    metrics_.push_back({name, value, unit_of(name)});
  }
  /// Layers this workload does not have, reported as zero.
  void absent(std::initializer_list<const char*> names) {
    for (const char* name : names) add(name, 0.0);
  }
  /// Extra provenance for the sidecar.
  void note(const std::string& key, double value) {
    notes_.emplace_back(key, format_value(value));
  }

  /// One op attempted; `ok` false counts it failed, with the reason.
  void op(bool ok, const std::string& why = {}) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "%s: op failed: %s\n", workload_.c_str(),
                   why.c_str());
    }
  }
  /// A run-level invariant (reproducibility, layer sums) was broken.
  void violate(const std::string& why) {
    invariants_ok_ = false;
    std::fprintf(stderr, "%s: check failed: %s\n", workload_.c_str(),
                 why.c_str());
  }

  [[nodiscard]] double failed_frac() const {
    return ratio(static_cast<double>(failed_),
                 static_cast<double>(attempted_));
  }

  /// Human lines, the sidecar, then the result line. Returns whether the
  /// run was correct and produced every metric of its result line.
  bool finish(const Options& opt) {
    const bool traced = !opt.trace.empty();
    for (const Metric& m : metrics_) {
      std::printf("%s %s %s %s\n", workload_.c_str(), m.name.c_str(),
                  format_value(m.value).c_str(), m.unit);
    }
    write_sidecar((traced ? "e2e_layers_" : "e2e_") + workload_, opt);
    std::string body;
    for (const MetricSpec& spec :
         traced ? std::span<const MetricSpec>(kPerLayer)
                : std::span<const MetricSpec>(kEndToEnd)) {
      const Metric* m = find(spec.name);
      if (m == nullptr || !std::isfinite(m->value)) {
        violate(std::string("metric ") + spec.name + " has no finite value");
        continue;
      }
      body += body.empty() ? "" : ", ";
      body += "\"" + m->name + "\": {\"value\": " + format_value(m->value) +
              ", \"unit\": \"" + m->unit + "\"}";
    }
    const bool ok = invariants_ok_ && failed_ == 0 && attempted_ > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {%s}}\n",
        ok ? "true" : "false", attempted_, failed_, body.c_str());
    std::fflush(stdout);
    return ok;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };

  const Metric* find(std::string_view name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void write_sidecar(const std::string& name, const Options& opt) {
    bench::JsonWriter json(name);
    json.meta("workload", workload_);
    json.meta("seed", std::to_string(opt.seed));
    json.meta("nproc", std::to_string(std::thread::hardware_concurrency()));
    json.meta("seconds", format_value(opt.seconds));
    json.meta("mode", opt.smoke ? "smoke" : "full");
    for (const auto& [key, value] : notes_) json.meta(key, value);
    json.header({"metric", "value", "unit"});
    for (const Metric& m : metrics_) {
      json.row({m.name, format_value(m.value), m.unit});
    }
    if (json.write().empty()) violate("cannot write BENCH_" + name + ".json");
  }

  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool invariants_ok_ = true;
};

/// Runs `body`; an exception escaping it counts one failed op.
template <class F>
void guarded(Ledger& ledger, const char* what, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    ledger.op(false, std::string(what) + ": " + e.what());
  }
}

/// Records one op's output against the dense reference; returns rel_l2.
double check_output(Ledger& ledger, const char* what, const RealField& out,
                    const RealField& ref, double tolerance) {
  const double err = rel_l2(out, ref);
  if (err <= tolerance) {
    ledger.op(true);
  } else {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: rel_l2 %.3e exceeds %.1e", what, err,
                  tolerance);
    ledger.op(false, buf);
  }
  return err;
}

// ---------------------------------------------------------------------------
// Counters read around each op.

/// Registry clocks the library keeps whether or not tracing is on.
struct LayerClock {
  double stage1 = 0.0;
  double stage2 = 0.0;
  double stage3 = 0.0;
  double accumulate = 0.0;
  double pool_busy = 0.0;

  static LayerClock now() {
    obs::Registry& reg = obs::Registry::global();
    return {reg.histogram("convolver.stage1_seconds").sum(),
            reg.histogram("convolver.stage2_seconds").sum(),
            reg.histogram("convolver.stage3_seconds").sum(),
            reg.histogram("accumulate.region_seconds").sum(),
            static_cast<double>(reg.counter("pool.busy_ns").value()) * 1e-9};
  }
  LayerClock operator-(const LayerClock& o) const {
    return {stage1 - o.stage1, stage2 - o.stage2, stage3 - o.stage3,
            accumulate - o.accumulate, pool_busy - o.pool_busy};
  }
};

/// SimCluster counters: aggregate CommStats plus per-rank waits.
struct CommClock {
  double wire = 0.0;  // modeled α-β seconds
  double wire_intra = 0.0;
  double wire_inter = 0.0;
  double intra_bytes = 0.0;
  double inter_bytes = 0.0;
  double intra_msgs = 0.0;
  double inter_msgs = 0.0;
  std::vector<double> recv_wait;     // per rank
  std::vector<double> barrier_wait;  // per rank

  static CommClock now(const comm::SimCluster& cluster) {
    const comm::CommStats& s = cluster.stats();
    CommClock c{s.modeled_seconds(),
                s.intra_modeled_seconds(),
                s.inter_modeled_seconds(),
                static_cast<double>(s.intra_bytes_sent.load()),
                static_cast<double>(s.inter_bytes_sent.load()),
                static_cast<double>(s.intra_messages.load()),
                static_cast<double>(s.inter_messages.load()),
                {},
                {}};
    for (int r = 0; r < cluster.size(); ++r) {
      const comm::RankCommStats rs = cluster.rank_stats(r);
      c.recv_wait.push_back(static_cast<double>(rs.recv_wait_ns) * 1e-9);
      c.barrier_wait.push_back(static_cast<double>(rs.barrier_wait_ns) * 1e-9);
    }
    return c;
  }
  CommClock operator-(const CommClock& o) const {
    CommClock d{wire - o.wire,
                wire_intra - o.wire_intra,
                wire_inter - o.wire_inter,
                intra_bytes - o.intra_bytes,
                inter_bytes - o.inter_bytes,
                intra_msgs - o.intra_msgs,
                inter_msgs - o.inter_msgs,
                recv_wait,
                barrier_wait};
    for (std::size_t r = 0; r < recv_wait.size(); ++r) {
      d.recv_wait[r] -= o.recv_wait[r];
      d.barrier_wait[r] -= o.barrier_wait[r];
    }
    return d;
  }
};

/// What one distributed op moved.
struct OpDelta {
  double wall = 0.0;
  LayerClock layers;
  CommClock comm;
};

OpDelta timed_op(const comm::SimCluster& cluster,
                 const std::function<void()>& op) {
  const LayerClock l0 = LayerClock::now();
  const CommClock c0 = CommClock::now(cluster);
  const auto t0 = Clock::now();
  op();
  const double wall = seconds_since(t0);
  return {wall, LayerClock::now() - l0, CommClock::now(cluster) - c0};
}

// ---------------------------------------------------------------------------
// Traced pass: the tracer on, the bench's own spans around what it times.

template <class F>
double timed(const char* span, F&& f) {
  const obs::ScopedSpan s(span);
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

class TracedPass {
 public:
  TracedPass() {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable();
    tracer.set_thread_label("bench");
  }
  ~TracedPass() { obs::Tracer::global().disable(); }
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;
};

void write_trace(Ledger& ledger, const std::string& path) {
  const obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.write_chrome_trace(path)) {
    ledger.violate("cannot write the Chrome trace to " + path);
  }
  if (tracer.dropped() != 0) ledger.violate("the trace dropped events");
}

// Layer probes: public calls timed in isolation during the traced pass.

void probe_green(Ledger& ledger, const Grid3& g,
                 const std::vector<KernelPtr>& kernels) {
  double elapsed = 0.0;
  green::cplx acc{0.0, 0.0};
  for (const KernelPtr& kernel : kernels) {
    elapsed += timed("bench.green_eval", [&] {
      for (i64 z = 0; z < g.nz; ++z) {
        for (i64 y = 0; y < g.ny; ++y) {
          for (i64 x = 0; x < g.nx; ++x) acc += kernel->eval({x, y, z}, g);
        }
      }
    });
  }
  if (!std::isfinite(std::abs(acc))) ledger.violate("kernel eval not finite");
  ledger.add("green.eval_mpts_s",
             static_cast<double>(kernels.size() * g.size()) / elapsed / 1e6);
}

void probe_planner(Ledger& ledger, const planner::PlanRequest& request) {
  planner::PlannerConfig config;
  config.mode = planner::Mode::kAnalytic;
  std::vector<double> times;
  std::size_t candidates = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const planner::Planner cold(config);
    times.push_back(timed("bench.plan", [&] {
      candidates = cold.plan(request).ranked.size();
    }));
  }
  ledger.add("planner.plan_s", median(times));
  ledger.add("planner.candidates", static_cast<double>(candidates));
}

/// Octree build, convolve_one, the codec round trip (when `exchanges`) and
/// region accumulation at the block method's shape; `owned` are one rank's
/// sub-domains. Returns the seconds to build every octree once.
double probe_block(Ledger& ledger, const Grid3& g, const KernelPtr& kernel,
                   const core::LowCommParams& params, const RealField& input,
                   const std::vector<std::size_t>& owned, bool exchanges) {
  const core::DomainDecomposition decomp(g, params.subdomain);
  const auto policy = params.make_policy();
  std::vector<std::shared_ptr<const sampling::Octree>> trees(decomp.count());
  std::vector<double> builds;
  for (int rep = 0; rep < 3; ++rep) {
    builds.push_back(timed("bench.octree_build", [&] {
      for (std::size_t d = 0; d < decomp.count(); ++d) {
        trees[d] = std::make_shared<const sampling::Octree>(
            g, decomp.subdomain(d), policy);
      }
    }));
  }
  double retained = 0.0;
  for (const auto& t : trees) {
    retained += static_cast<double>(t->total_samples());
  }
  ledger.add("sampling.retained_samples", retained);
  ledger.add("sampling.compression_ratio",
             static_cast<double>(decomp.count()) *
                 static_cast<double>(g.size()) / retained);

  // Every sub-domain's contribution, convolved concurrently on the pool as
  // the ranks do; the seeded octrees keep the build out of the timings.
  core::LocalConvolverConfig cfg;
  cfg.batch = params.batch;
  cfg.pool = nullptr;
  const core::LowCommConvolution engine(g, kernel, params, cfg);
  for (std::size_t d = 0; d < decomp.count(); ++d) {
    engine.seed_octree(d, trees[d]);
  }
  std::vector<std::optional<sampling::CompressedField>> slots(decomp.count());
  std::vector<double> per(decomp.count(), 0.0);
  ThreadPool::global().parallel_for(0, decomp.count(), [&](std::size_t d) {
    per[d] = timed("bench.convolve_one",
                   [&] { slots[d].emplace(engine.convolve_one(input, d)); });
  });
  ledger.add("core.convolve_one_s", median(per));
  std::vector<sampling::CompressedField> contributions;
  contributions.reserve(slots.size());
  for (auto& s : slots) contributions.push_back(std::move(*s));

  if (exchanges) {
    // Round trip over one rank's payload: every cell of its sub-domains.
    double raw = 0.0;
    std::vector<sampling::CompressedField> decoded;
    for (const std::size_t d : owned) {
      raw += static_cast<double>(contributions[d].sample_bytes());
      decoded.emplace_back(trees[d]);
    }
    std::vector<double> wire;
    std::vector<double> enc_t;
    std::vector<double> dec_t;
    double bound = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      wire.clear();
      enc_t.push_back(timed("bench.encode", [&] {
        comm::WireEncoder enc(params.wire, wire);
        for (const std::size_t d : owned) {
          const auto payload = contributions[d].samples();
          for (const auto& cell : contributions[d].octree().cells()) {
            enc.add_cell(
                payload.subspan(cell.sample_offset, cell.sample_count()));
          }
        }
        enc.finish();
        bound = enc.max_abs_error();
      }));
      dec_t.push_back(timed("bench.decode", [&] {
        comm::WireDecoder dec(params.wire, wire);
        for (auto& field : decoded) {
          const auto out = field.samples();
          for (const auto& cell : field.octree().cells()) {
            dec.read_cell(out.subspan(cell.sample_offset, cell.sample_count()));
          }
        }
        dec.finish();
      }));
    }
    ledger.add("comm.encode_gbs", raw / median(enc_t) / 1e9);
    ledger.add("comm.decode_gbs", raw / median(dec_t) / 1e9);
    double worst = 0.0;
    for (std::size_t i = 0; i < owned.size(); ++i) {
      const auto a = contributions[owned[i]].samples();
      const auto b = decoded[i].samples();
      for (std::size_t j = 0; j < a.size(); ++j) {
        worst = std::max(worst, std::abs(a[j] - b[j]));
      }
    }
    if (worst > bound) {
      ledger.violate("codec round trip error " + format_value(worst) +
                     " exceeds the encoder's bound " + format_value(bound));
    }
  } else {
    ledger.absent({"comm.encode_gbs", "comm.decode_gbs"});
  }

  double points = 0.0;
  const double took = timed("bench.accumulate_region", [&] {
    for (const std::size_t d : owned) {
      const RealField tile = core::accumulate_region(
          contributions, decomp.subdomain(d), params.interpolation);
      points += static_cast<double>(tile.size());
    }
  });
  ledger.add("core.accumulate_mpts_s", points / took / 1e6);
  return median(builds);
}

// ---------------------------------------------------------------------------
// Distributed workloads: low-comm on either route, and the slab baseline.

void run_distributed(const Workload& w, const Options& opt, Ledger& ledger) {
  const i64 n = opt.smoke ? kSmokeN : w.n;
  const i64 k = opt.smoke ? kSmokeK : w.k;
  const Grid3 g = Grid3::cube(n);
  const core::LowCommParams params = params_of(w, k);
  const KernelPtr kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const bool slab = w.kind == Kind::kSlab;
  const double tolerance = slab ? kExactTolerance : kLossyTolerance;
  const std::size_t min_ops = opt.smoke ? 1 : kMinOps;
  const std::size_t max_ops = opt.smoke ? 1 : SIZE_MAX;

  const auto make_cluster = [&] {
    return std::make_unique<comm::SimCluster>(topology_of(w),
                                              comm::HierarchicalLinkModel{});
  };
  const auto run_op = [&](comm::SimCluster& cluster, const RealField& in) {
    if (slab) return baseline::distributed_fft_convolve(cluster, in, kernel);
    return core::distributed_lowcomm_convolve(cluster, in, g, kernel, params,
                                              core::ExchangeRoute::kAuto);
  };

  // Set-up: a new SimCluster plus its first call; one warm-up discarded.
  const RealField setup_in =
      random_field(g, derive_seed(opt.seed, kSetupStream, 0));
  const RealField setup_ref = baseline::dense_convolve_r2c(setup_in, *kernel);
  std::vector<double> setup_s;
  std::optional<std::uint64_t> setup_hash;
  for (int i = 0; more_setup(opt, i, setup_s); ++i) {
    guarded(ledger, "setup", [&] {
      const auto t0 = Clock::now();
      auto cluster = make_cluster();
      const RealField out = run_op(*cluster, setup_in);
      if (i > 0) setup_s.push_back(seconds_since(t0));
      check_output(ledger, "setup", out, setup_ref, tolerance);
      if (!setup_hash) {
        setup_hash = field_hash(out);
      } else if (*setup_hash != field_hash(out)) {
        ledger.violate("set-up instances disagree bit for bit");
      }
    });
  }

  // Timed ops on one cluster, each on a fresh input made outside the window.
  auto cluster = make_cluster();
  std::vector<double> walls, wires, errs;
  std::optional<RealField> first_in;
  std::uint64_t first_hash = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       rep < max_ops && (rep < min_ops || seconds_since(start) < opt.seconds);
       ++rep) {
    RealField in = random_field(g, derive_seed(opt.seed, kMeasureStream, rep));
    guarded(ledger, "op", [&] {
      RealField out;
      const OpDelta d = timed_op(*cluster, [&] { out = run_op(*cluster, in); });
      walls.push_back(d.wall);
      wires.push_back(d.comm.wire);
      errs.push_back(check_output(ledger, "op", out,
                                  baseline::dense_convolve_r2c(in, *kernel),
                                  tolerance));
      if (!first_in) {
        first_in = std::move(in);
        first_hash = field_hash(out);
      }
    });
  }
  // Reproducibility: the first input again must give the same bits.
  if (first_in) {
    guarded(ledger, "rerun", [&] {
      const RealField again = run_op(*cluster, *first_in);
      ledger.op(true);
      if (field_hash(again) != first_hash) {
        ledger.violate("re-running the first input changed its output");
      }
    });
  }

  ledger.add("setup_s", median(setup_s));
  ledger.add("latency_s_p50", median(walls));
  ledger.add("latency_s_p95", quantile(walls, 0.95));
  ledger.add("latency_samples", static_cast<double>(walls.size()));
  ledger.add("ops_per_s", ratio(static_cast<double>(walls.size()), sum(walls)));
  ledger.add("peak_rss_mb", peak_rss_mb());
  ledger.add("wire_model_s", median(wires));
  ledger.add("rel_l2", median(errs));
  ledger.add("failed_frac", ledger.failed_frac());
  if (opt.trace.empty()) return;

  // Traced pass: one more op with the tracer on, then the layer probes.
  OpDelta d;
  double octree_build = 0.0;
  {
    const TracedPass traced;
    const RealField in =
        random_field(g, derive_seed(opt.seed, kTraceStream, 0));
    guarded(ledger, "traced op", [&] {
      RealField out;
      {
        const obs::ScopedSpan span("bench.op");
        d = timed_op(*cluster, [&] { out = run_op(*cluster, in); });
      }
      check_output(ledger, "traced op", out,
                   baseline::dense_convolve_r2c(in, *kernel), tolerance);
    });
    const obs::ScopedSpan span("bench.layer_probes");
    probe_green(ledger, g, {kernel});
    planner::PlanRequest request;
    request.n = n;
    request.ranks = w.ranks;
    request.topology = topology_of(w);
    request.base = params;
    probe_planner(ledger, request);
    if (slab) {
      ledger.absent({"sampling.retained_samples", "sampling.compression_ratio",
                     "core.convolve_one_s", "comm.encode_gbs",
                     "comm.decode_gbs", "core.accumulate_mpts_s"});
    } else {
      const core::DomainDecomposition decomp(g, k);
      octree_build = probe_block(ledger, g, kernel, params, in,
                                 decomp.assigned_to(0, w.ranks), true);
    }
  }
  write_trace(ledger, opt.trace);

  // Rank-second rows of the traced op. Every rank rebuilds every octree on
  // each call, hence the probe's build time × P. What no row covers (pack,
  // unpack, mask building, field allocation, the slab's own transforms) is
  // the unattributed remainder.
  const double rank_wall = d.wall * w.ranks;
  const std::pair<const char*, double> rows[] = {
      {"fft.stage1_s", d.layers.stage1},
      {"fft.stage2_s", d.layers.stage2},
      {"fft.stage3_s", d.layers.stage3},
      {"sampling.octree_build_s", octree_build * w.ranks},
      {"core.accumulate_s", d.layers.accumulate},
      {"comm.recv_wait_s", sum(d.comm.recv_wait)},
      {"comm.barrier_wait_s", sum(d.comm.barrier_wait)},
  };
  double attributed = 0.0;
  for (const auto& [name, value] : rows) {
    ledger.add(name, value);
    attributed += value;
    if (value < 0.0) ledger.violate(std::string(name) + " is negative");
  }
  ledger.add("unattributed_s", rank_wall - attributed);
  ledger.add("unattributed_frac", ratio(rank_wall - attributed, rank_wall));
  if (attributed > (1.0 + kLayerSlack) * rank_wall) {
    ledger.violate("attributed rows " + format_value(attributed) +
                   " rank-s exceed P x wall " + format_value(rank_wall) +
                   " by more than the slack");
  }
  ledger.add("comm.intra_mb", d.comm.intra_bytes / 1e6);
  ledger.add("comm.inter_mb", d.comm.inter_bytes / 1e6);
  ledger.add("comm.intra_msgs", d.comm.intra_msgs);
  ledger.add("comm.inter_msgs", d.comm.inter_msgs);
  ledger.add("comm.wire_model_intra_s", d.comm.wire_intra);
  ledger.add("comm.wire_model_inter_s", d.comm.wire_inter);
  ledger.add("comm.recv_wait_max_s",
             *std::max_element(d.comm.recv_wait.begin(),
                               d.comm.recv_wait.end()));
  ledger.absent({"runtime.queue_s_p50", "runtime.run_s_p50",
                 "runtime.result_hit_ratio", "runtime.engine_hit_ratio",
                 "runtime.plan_hit_ratio", "runtime.tasks_per_wave",
                 "runtime.cache_evictions", "device.peak_mb",
                 "planner.pred_over_actual_p50"});
  ledger.add("pool.busy_frac",
             ratio(d.layers.pool_busy,
                   d.wall * static_cast<double>(ThreadPool::global().size())));
  ledger.add("obs.trace_overhead_frac", ratio(d.wall, median(walls)) - 1.0);
  ledger.note("traced_wall_s", d.wall);
  ledger.note("rank_wall_s", rank_wall);
}

// ---------------------------------------------------------------------------
// Service workload: closed loop, full-field requests, mixed kernels.

runtime::ServiceConfig service_config() {
  runtime::ServiceConfig cfg;
  cfg.queue_capacity = 64;
  cfg.max_wave = 8;
  cfg.cache_budget_bytes = kServiceCacheBytes;
  cfg.arena_retain_bytes = 256ull << 20;
  cfg.cache_results = true;
  cfg.materialize_spectra = false;
  cfg.device = device::DeviceSpec::unlimited();
  cfg.planner_mode = planner::Mode::kAnalytic;
  cfg.pool = &ThreadPool::global();
  cfg.start_paused = false;
  return cfg;
}

/// Content of request i. Three of every four carry fresh content; the
/// fourth replays one of the eight contents issued before the last two, so
/// with two clients its original has normally completed and the result
/// cache can answer. Content c uses kernel c % 2 (Gaussian, Poisson).
std::uint64_t request_content(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t fresh = 3 * (i / 4) + i % 4;  // fresh contents so far
  if (i % 4 != 3) return fresh;
  const std::uint64_t hi = fresh - 2;
  const std::uint64_t lo = hi > 8 ? hi - 8 : 0;
  SplitMix64 rng(derive_seed(seed, kReplayStream, i));
  return lo + rng.next() % (hi - lo);
}

void run_service(const Workload& w, const Options& opt, Ledger& ledger) {
  const i64 n = opt.smoke ? kSmokeN : w.n;
  const i64 k = opt.smoke ? kSmokeK : w.k;
  const Grid3 g = Grid3::cube(n);
  const core::LowCommParams params = params_of(w, k);
  const std::vector<KernelPtr> kernels = {
      std::make_shared<green::GaussianSpectrum>(g, 2.0),
      std::make_shared<green::PoissonGreenSpectrum>(false)};
  const double tolerance[] = {kLossyTolerance, kPoissonTolerance};
  // Smoke: one request per kernel plus a replay.
  const std::size_t requests =
      opt.smoke ? 4
                : std::max(kMinServiceRequests,
                           static_cast<std::size_t>(
                               opt.seconds * kServiceRequestsPerSecond));
  const int clients = std::clamp<int>(
      static_cast<int>(std::thread::hardware_concurrency()), 1,
      kServiceClients);
  const auto request = [&](RealField input, std::uint64_t content) {
    return runtime::ConvolutionRequest{std::move(input), kernels[content % 2],
                                       params, std::nullopt, std::nullopt};
  };
  const auto content_input = [&](Stream stream, std::uint64_t content) {
    return random_field(g, derive_seed(opt.seed, stream, content));
  };

  // Set-up: a new service plus its first request per configuration (one
  // per kernel); one warm-up instance discarded.
  std::vector<RealField> setup_in;
  std::vector<RealField> setup_ref;
  for (std::uint64_t c = 0; c < kernels.size(); ++c) {
    setup_in.push_back(content_input(kSetupStream, c));
    setup_ref.push_back(
        baseline::dense_convolve_r2c(setup_in.back(), *kernels[c]));
  }
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_hash;
  for (int i = 0; more_setup(opt, i, setup_s); ++i) {
    guarded(ledger, "setup", [&] {
      std::vector<runtime::ConvolutionRequest> first;
      for (std::uint64_t c = 0; c < kernels.size(); ++c) {
        first.push_back(request(setup_in[c], c));
      }
      std::vector<RealField> outs;
      std::optional<runtime::ConvolutionService> service;
      const auto t0 = Clock::now();
      service.emplace(service_config());
      for (auto& r : first) {
        outs.push_back(service->run(std::move(r)).result.output);
      }
      if (i > 0) setup_s.push_back(seconds_since(t0));
      service.reset();
      for (std::size_t c = 0; c < outs.size(); ++c) {
        check_output(ledger, "setup", outs[c], setup_ref[c], tolerance[c]);
        if (setup_hash.size() <= c) {
          setup_hash.push_back(field_hash(outs[c]));
        } else if (setup_hash[c] != field_hash(outs[c])) {
          ledger.violate("set-up instances disagree bit for bit");
        }
      }
    });
  }

  // Closed loop: each client sends its next request when the previous one
  // is answered, then checks the answer outside the latency window.
  runtime::ConvolutionService service(service_config());
  std::mutex mutex;  // guards everything below plus the ledger
  std::vector<double> latencies, executed, queue, run, errs;
  double result_hits = 0.0, engine_hits = 0.0, plan_hits = 0.0;
  std::map<std::uint64_t, std::uint64_t> content_hash;
  std::atomic<std::size_t> next{0};
  const LayerClock l0 = LayerClock::now();
  const auto start = Clock::now();
  const auto client = [&] {
    for (std::size_t i = next++; i < requests; i = next++) {
      try {
        const std::uint64_t content = request_content(opt.seed, i);
        const RealField input = content_input(kContentStream, content);
        const auto t0 = Clock::now();
        const runtime::ConvolutionResponse resp =
            service.run(request(input, content));
        const double latency = seconds_since(t0);
        const RealField ref = baseline::dense_convolve_r2c(
            input, *kernels[content % 2], nullptr);
        const std::uint64_t hash = field_hash(resp.result.output);
        const runtime::RequestStats& s = resp.stats;
        const std::lock_guard lock(mutex);
        errs.push_back(check_output(ledger, "request", resp.result.output, ref,
                                    tolerance[content % 2]));
        latencies.push_back(latency);
        queue.push_back(s.queue_seconds);
        run.push_back(s.run_seconds);
        plan_hits += s.plan_cache_hit ? 1.0 : 0.0;
        if (s.result_cache_hit) {
          result_hits += 1.0;
        } else {
          executed.push_back(latency);
          engine_hits += s.engine_cache_hit ? 1.0 : 0.0;
        }
        const auto [it, fresh] = content_hash.emplace(content, hash);
        if (!fresh && it->second != hash) {
          ledger.violate("a replay's output differs from its original's");
        }
      } catch (const std::exception& e) {
        const std::lock_guard lock(mutex);
        ledger.op(false, std::string("request: ") + e.what());
      }
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  }
  const double wall = seconds_since(start);
  const LayerClock load = LayerClock::now() - l0;
  const runtime::ServiceStats stats = service.stats();
  // Content 0 is the first request's. In a full run the result cache has
  // long evicted it, so the service computes it again.
  if (const auto it = content_hash.find(0); it != content_hash.end()) {
    guarded(ledger, "rerun", [&] {
      const RealField again =
          service.run(request(content_input(kContentStream, 0), 0))
              .result.output;
      ledger.op(true);
      if (field_hash(again) != it->second) {
        ledger.violate("re-running the first input changed its output");
      }
    });
  }

  const auto count = static_cast<double>(latencies.size());
  // The dispatcher runs one wave at a time, so with two clients a request
  // either runs alone, waits out the other client's run, or is a cache hit
  // answered after that wait: per four requests two fall in the fast mode
  // and two in the slow one, and the median over all of them lands in the
  // gap between. The median over executed requests sits inside the slow
  // mode; hits show in ops_per_s and the p95.
  ledger.add("setup_s", median(setup_s));
  ledger.add("latency_s_p50", median(executed));
  ledger.add("latency_s_p95", quantile(latencies, 0.95));
  ledger.add("latency_samples", count);
  ledger.add("ops_per_s", ratio(count, wall));
  ledger.add("peak_rss_mb", peak_rss_mb());
  ledger.add("rel_l2", median(errs));
  ledger.add("failed_frac", ledger.failed_frac());
  ledger.add("runtime.queue_s_p50", median(queue));
  ledger.add("runtime.run_s_p50", median(run));
  ledger.add("runtime.result_hit_ratio", ratio(result_hits, count));
  ledger.add("runtime.engine_hit_ratio",
             ratio(engine_hits, static_cast<double>(executed.size())));
  ledger.add("runtime.plan_hit_ratio", ratio(plan_hits, count));
  ledger.add("runtime.tasks_per_wave",
             ratio(static_cast<double>(stats.wave_tasks),
                   static_cast<double>(stats.waves)));
  ledger.add("runtime.cache_evictions",
             static_cast<double>(stats.cache.evictions));
  ledger.add("device.peak_mb",
             static_cast<double>(stats.device_peak_bytes) / 1e6);
  ledger.add("planner.pred_over_actual_p50", stats.drift_p50_ratio);
  ledger.add("pool.busy_frac",
             ratio(load.pool_busy,
                   wall * static_cast<double>(ThreadPool::global().size())));
  if (opt.trace.empty()) return;

  // Traced pass: a short closed-loop burst of fresh content (every request
  // executes), then the layer probes.
  std::vector<double> traced;
  LayerClock burst;
  double burst_wall = 0.0;
  double octree_build = 0.0;
  {
    const TracedPass tracing;
    const LayerClock b0 = LayerClock::now();
    const auto b_start = Clock::now();
    const std::size_t total =
        static_cast<std::size_t>(clients) *
        (opt.smoke ? 1 : kTracedRequestsPerClient);
    std::atomic<std::size_t> next_traced{0};
    const auto traced_client = [&] {
      for (std::size_t c = next_traced++; c < total; c = next_traced++) {
        try {
          const RealField input = content_input(kTraceStream, c);
          const auto t0 = Clock::now();
          RealField out;
          {
            const obs::ScopedSpan span("bench.op");
            out = service.run(request(input, c)).result.output;
          }
          const double latency = seconds_since(t0);
          const RealField ref =
              baseline::dense_convolve_r2c(input, *kernels[c % 2], nullptr);
          const std::lock_guard lock(mutex);
          check_output(ledger, "traced request", out, ref, tolerance[c % 2]);
          traced.push_back(latency);
        } catch (const std::exception& e) {
          const std::lock_guard lock(mutex);
          ledger.op(false, std::string("traced request: ") + e.what());
        }
      }
    };
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < clients; ++c) threads.emplace_back(traced_client);
    }
    burst = LayerClock::now() - b0;
    burst_wall = seconds_since(b_start);

    const obs::ScopedSpan span("bench.layer_probes");
    probe_green(ledger, g, kernels);
    planner::PlanRequest plan_request;  // what the service plans per wave
    plan_request.n = n;
    plan_request.device = device::DeviceSpec::unlimited();
    plan_request.base = params;
    plan_request.pinned = params;
    probe_planner(ledger, plan_request);
    const core::DomainDecomposition decomp(g, k);
    octree_build =
        probe_block(ledger, g, kernels[0], params,
                    content_input(kTraceStream, 0), decomp.assigned_to(0, 1),
                    false);
  }
  write_trace(ledger, opt.trace);

  // Pool-worker seconds per executed request; the rest of the pool's busy
  // time (octree and engine lookups, chunk extraction, result assembly) is
  // unattributed. The service reuses cached octrees, so the one-off build
  // is reported but is no request row.
  const auto per = [&](double v) {
    return ratio(v, static_cast<double>(traced.size()));
  };
  const double attributed =
      burst.stage1 + burst.stage2 + burst.stage3 + burst.accumulate;
  ledger.add("fft.stage1_s", per(burst.stage1));
  ledger.add("fft.stage2_s", per(burst.stage2));
  ledger.add("fft.stage3_s", per(burst.stage3));
  ledger.add("sampling.octree_build_s", octree_build);
  ledger.add("core.accumulate_s", per(burst.accumulate));
  ledger.add("unattributed_s", per(burst.pool_busy - attributed));
  ledger.add("unattributed_frac",
             ratio(burst.pool_busy - attributed, burst.pool_busy));
  ledger.absent({"comm.intra_mb", "comm.inter_mb", "comm.intra_msgs",
                 "comm.inter_msgs", "comm.recv_wait_s", "comm.recv_wait_max_s",
                 "comm.barrier_wait_s"});
  ledger.add("obs.trace_overhead_frac",
             ratio(median(traced), median(executed)) - 1.0);
  ledger.note("traced_wall_s", burst_wall);
}

// ---------------------------------------------------------------------------
// Driver.

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// "t.json" → "t.<workload>.json": one trace file per child.
std::string trace_path_for(const std::string& path, const char* workload) {
  const std::string ext = ".json";
  if (path.size() > ext.size() &&
      path.compare(path.size() - ext.size(), ext.size(), ext) == 0) {
    return path.substr(0, path.size() - ext.size()) + "." + workload + ext;
  }
  return path + "." + workload + ext;
}

int run_all(const Options& opt) {
  int status = 0;
  for (const Workload& w : kWorkloads) {
    std::vector<std::string> args = {"bench_e2e", "--workload", w.name,
                                     "--seed", std::to_string(opt.seed),
                                     "--seconds", format_value(opt.seconds)};
    if (opt.smoke) args.emplace_back("--smoke");
    if (!opt.trace.empty()) {
      args.emplace_back("--trace");
      args.push_back(trace_path_for(opt.trace, w.name));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::fprintf(stderr, "cannot start the %s child\n", w.name);
      return 1;
    }
    int wait_status = 0;
    if (waitpid(pid, &wait_status, 0) != pid || !WIFEXITED(wait_status) ||
        WEXITSTATUS(wait_status) != 0) {
      std::fprintf(stderr, "workload %s failed\n", w.name);
      status = 1;
    }
  }
  return status;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME] [--seed N] [--seconds S] "
               "[--trace PATH] [--smoke]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      if (find_workload(opt.workload) == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (arg == "--trace") {
      opt.trace = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage("unknown argument");
    }
  }
  if (opt.smoke && opt.trace.empty()) {
    opt.trace = opt.workload.empty() ? "e2e_trace.json"
                                     : trace_path_for("e2e_trace.json",
                                                      opt.workload.c_str());
  }
  return opt;
}

/// POSIX locale categories share the LC_ prefix with the library's knobs.
bool is_locale_variable(std::string_view entry) {
  const std::string_view name = entry.substr(0, entry.find('='));
  for (const std::string_view locale :
       {"LC_ALL", "LC_ADDRESS", "LC_COLLATE", "LC_CTYPE", "LC_IDENTIFICATION",
        "LC_MEASUREMENT", "LC_MESSAGES", "LC_MONETARY", "LC_NAME",
        "LC_NUMERIC", "LC_PAPER", "LC_TELEPHONE", "LC_TIME"}) {
    if (name == locale) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Every workload pins its options; an inherited LC_* knob would silently
  // change what is measured.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "LC_", 3) == 0 && !is_locale_variable(*env)) {
      std::fprintf(stderr, "bench_e2e: unset %s (workloads pin every option)\n",
                   *env);
      return 2;
    }
  }
#ifndef NDEBUG
  if (!opt.smoke) {
    std::fputs("bench_e2e: assertions are on; build with NDEBUG (Release) "
               "to measure, or pass --smoke\n",
               stderr);
    return 2;
  }
#endif
  if (opt.workload.empty()) return run_all(opt);

  const Workload& w = *find_workload(opt.workload);
  Ledger ledger(w.name);
  try {
    if (w.kind == Kind::kService) {
      run_service(w, opt, ledger);
    } else {
      run_distributed(w, opt, ledger);
    }
  } catch (const std::exception& e) {
    ledger.violate(std::string("aborted: ") + e.what());
  }
  return ledger.finish(opt) ? 0 : 1;
}
