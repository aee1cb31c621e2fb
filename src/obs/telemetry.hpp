// Plan-vs-actual telemetry (observability layer, DESIGN.md §18).
//
// Every distributed convolution — whether driven directly through
// core::distributed_lowcomm_convolve or through the ConvolutionService —
// finishes by emitting one PlanOutcome record through a PlanOutcomeRecorder:
// the planner/cost-model predictions (compute seconds, per-level wire
// seconds, exact mirror bytes, memory plan, error bound) paired with what
// actually happened (wall and compute time, executed CommStats
// bytes/messages, measured memory peak, realized quantization error,
// barrier/recv waits). Records append to a
// JSONL history file selected by LC_TELEMETRY=<path> (unset or "off"
// disables the file; the drift gauges below update either way), one
// self-contained JSON object per line, written under a mutex with a single
// fwrite so concurrent emitters can never tear a line — an aborted run's
// record is as well-formed as a clean one.
//
// The history is the planner's learning signal: planner/calibration.hpp
// fits a measured compute rate and per-level α-β from it and feeds the fit
// back through LC_CALIBRATION, closing the loop that ROADMAP item 2 left
// open. This header is intentionally header-only so core/pipeline.cpp (which
// lc_obs itself links against) can emit records without a layering cycle;
// only the JSONL *reader* (used by the fitter, tools, and tests) lives in
// telemetry.cpp inside lc_obs.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

#include "comm/sim_cluster.hpp"
#include "comm/wire_codec.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"

namespace lc::obs {

/// One plan-vs-actual record. Flat by design: every field is a scalar so
/// the line is parseable by the dependency-free scanners in telemetry.cpp
/// and tools/check_obs_outputs.py. "pred_*" fields are model outputs frozen
/// before the run; "meas_*" fields are read back from executed stats.
struct PlanOutcome {
  int v = 1;                 ///< record schema version
  std::string source;        ///< "pipeline" | "service"
  bool aborted = false;      ///< run threw (rank abort); meas_* are partial

  // Shape of the run.
  std::int64_t n = 0;        ///< grid side
  int ranks = 0;             ///< cluster ranks (1 = local service request)
  int nodes = 0;             ///< topology nodes
  std::int64_t k = 0;        ///< sub-domain side
  int far_rate = 0;          ///< exterior sampling rate
  std::string schedule;      ///< "banded" | "uniform"
  std::string route;         ///< "flat" | "hierarchical" | "local"
  std::string wire;          ///< wire codec name
  std::int64_t batch = 0;

  // Predictions (cost model / winning ExecutionPlan).
  double pred_compute_s = 0.0;
  double pred_point_passes = 0.0;  ///< compute model numerator (rate fit)
  double pred_rate_pps = 0.0;      ///< rate the prediction was priced at
  double pred_wire_s = 0.0;
  double pred_intra_s = 0.0;
  double pred_inter_s = 0.0;
  std::int64_t pred_bytes = 0;
  std::int64_t pred_intra_bytes = 0;
  std::int64_t pred_inter_bytes = 0;
  std::int64_t pred_intra_msgs = 0;
  std::int64_t pred_inter_msgs = 0;
  std::int64_t pred_memory_b = 0;
  double pred_rel_error = 0.0;

  // Realized values.
  double meas_wall_s = 0.0;
  double meas_compute_s = 0.0;     ///< max-over-ranks local convolve time
  double meas_wire_s = 0.0;        ///< modeled-α-β time of executed traffic
  double meas_intra_wire_s = 0.0;
  double meas_inter_wire_s = 0.0;
  std::int64_t meas_bytes = 0;
  std::int64_t meas_intra_bytes = 0;
  std::int64_t meas_inter_bytes = 0;
  std::int64_t meas_intra_msgs = 0;
  std::int64_t meas_inter_msgs = 0;
  std::int64_t meas_memory_peak_b = 0;  ///< max-over-ranks; 0 = unmeasured
  double meas_max_quant_error = 0.0;
  double meas_barrier_wait_s = 0.0;
  double meas_recv_wait_s = 0.0;
};

/// Shared compute model: transform point-passes for one k³ sub-domain of an
/// N³ problem whose octree retains `planes` z-planes. The xy stage touches
/// n²·k points, the z stage runs every pencil (n³), and only the retained
/// planes return through the 2D inverse; log₂n passes each; the
/// half-spectrum pipeline scales all three by (n/2+1)/n. This is THE
/// formula the planner prices compute with — pipeline telemetry uses the
/// same function so a rate fitted from history is directly substitutable
/// for PlanRequest::compute_rate_pps.
[[nodiscard]] inline double modeled_point_passes(std::int64_t n,
                                                 std::int64_t k,
                                                 std::size_t planes) {
  const double lg = std::log2(static_cast<double>(n));
  const double n2 = static_cast<double>(n) * static_cast<double>(n);
  const double real_scale =
      static_cast<double>(n / 2 + 1) / static_cast<double>(n);
  return (n2 * static_cast<double>(k) + n2 * static_cast<double>(n) +
          n2 * static_cast<double>(planes)) *
         lg * real_scale;
}

/// Serialize one record as a single JSON line (no trailing newline).
[[nodiscard]] inline std::string to_json_line(const PlanOutcome& o) {
  std::string out;
  out.reserve(1024);
  char buf[160];
  const auto num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "\"%s\":%.9g,", key, v);
    out += buf;
  };
  const auto integer = [&](const char* key, std::int64_t v) {
    std::snprintf(buf, sizeof buf, "\"%s\":%lld,", key,
                  static_cast<long long>(v));
    out += buf;
  };
  const auto str = [&](const char* key, const std::string& v) {
    out += '"';
    out += key;
    out += "\":\"";
    out += v;  // values are short enum-ish names, never need escaping
    out += "\",";
  };
  out += '{';
  integer("v", o.v);
  str("source", o.source);
  out += o.aborted ? "\"aborted\":true," : "\"aborted\":false,";
  integer("n", o.n);
  integer("ranks", o.ranks);
  integer("nodes", o.nodes);
  integer("k", o.k);
  integer("far_rate", o.far_rate);
  str("schedule", o.schedule);
  str("route", o.route);
  str("wire", o.wire);
  integer("batch", o.batch);
  num("pred_compute_s", o.pred_compute_s);
  num("pred_point_passes", o.pred_point_passes);
  num("pred_rate_pps", o.pred_rate_pps);
  num("pred_wire_s", o.pred_wire_s);
  num("pred_intra_s", o.pred_intra_s);
  num("pred_inter_s", o.pred_inter_s);
  integer("pred_bytes", o.pred_bytes);
  integer("pred_intra_bytes", o.pred_intra_bytes);
  integer("pred_inter_bytes", o.pred_inter_bytes);
  integer("pred_intra_msgs", o.pred_intra_msgs);
  integer("pred_inter_msgs", o.pred_inter_msgs);
  integer("pred_memory_b", o.pred_memory_b);
  num("pred_rel_error", o.pred_rel_error);
  num("meas_wall_s", o.meas_wall_s);
  num("meas_compute_s", o.meas_compute_s);
  num("meas_wire_s", o.meas_wire_s);
  num("meas_intra_wire_s", o.meas_intra_wire_s);
  num("meas_inter_wire_s", o.meas_inter_wire_s);
  integer("meas_bytes", o.meas_bytes);
  integer("meas_intra_bytes", o.meas_intra_bytes);
  integer("meas_inter_bytes", o.meas_inter_bytes);
  integer("meas_intra_msgs", o.meas_intra_msgs);
  integer("meas_inter_msgs", o.meas_inter_msgs);
  integer("meas_memory_peak_b", o.meas_memory_peak_b);
  num("meas_max_quant_error", o.meas_max_quant_error);
  num("meas_barrier_wait_s", o.meas_barrier_wait_s);
  num("meas_recv_wait_s", o.meas_recv_wait_s);
  out.back() = '}';  // replace the trailing comma
  return out;
}

/// Process-wide JSONL history sink. The path comes from LC_TELEMETRY at
/// first use (unset or "off" → disabled); tests and tools may repoint it
/// with set_path(). Appends open the file in "a" mode and write the whole
/// line (including '\n') with one fwrite under the mutex, then close — no
/// buffered tail can be lost to an abort, and concurrent emitters (service
/// dispatcher vs direct pipeline calls) interleave only at line boundaries.
class TelemetrySink {
 public:
  static TelemetrySink& global() {
    static TelemetrySink* sink = new TelemetrySink();  // leak: see Registry
    return *sink;
  }

  TelemetrySink() {
    const char* env = std::getenv("LC_TELEMETRY");
    if (env != nullptr && env[0] != '\0' && std::string(env) != "off") {
      path_ = env;
    }
  }
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  [[nodiscard]] bool enabled() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !path_.empty();
  }
  [[nodiscard]] std::string path() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return path_;
  }
  /// Repoint (or disable, with "") the sink. Testing / tooling hook.
  void set_path(const std::string& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = path == "off" ? std::string() : path;
  }

  /// Append one line. Returns false when disabled or on I/O failure.
  bool append_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (path_.empty()) return false;
    std::FILE* f = std::fopen(path_.c_str(), "a");
    if (f == nullptr) return false;
    std::string full = line;
    full += '\n';
    const bool ok = std::fwrite(full.data(), 1, full.size(), f) == full.size();
    return (std::fclose(f) == 0) && ok;
  }

 private:
  mutable std::mutex mutex_;
  std::string path_;
};

[[nodiscard]] inline bool telemetry_enabled() {
  return TelemetrySink::global().enabled();
}

/// Emit a record: update the drift gauges (always — they are free and make
/// prediction drift visible in every metrics snapshot) and append the JSONL
/// line when the sink is enabled.
inline void record_plan_outcome(const PlanOutcome& o) {
  Registry& reg = Registry::global();
  const auto ratio_gauge = [&](const char* name, double pred, double meas) {
    if (meas > 0.0 && pred > 0.0) reg.gauge(name).set(pred / meas);
  };
  ratio_gauge("planner.pred_over_actual_compute", o.pred_compute_s,
              o.meas_compute_s);
  ratio_gauge("planner.pred_over_actual_wire", o.pred_wire_s, o.meas_wire_s);
  ratio_gauge("planner.pred_over_actual_bytes",
              static_cast<double>(o.pred_bytes),
              static_cast<double>(o.meas_bytes));
  ratio_gauge("planner.pred_over_actual_memory",
              static_cast<double>(o.pred_memory_b),
              static_cast<double>(o.meas_memory_peak_b));
  reg.counter("telemetry.records").add();
  if (o.aborted) reg.counter("telemetry.aborted_records").add();
  TelemetrySink::global().append_line(to_json_line(o));
}

/// RAII framing of one PlanOutcome — the only place a record is built and
/// emitted. Construction fills the shape fields from (source, n, ranks,
/// nodes, params, route), starts the wall clock at `start` and, given a
/// cluster, snapshots its counters. The caller fills the predictions and
/// any measurement only it can see through outcome(). Destruction fills
/// the wall time and the cluster counter deltas, sets `aborted` when the
/// scope is unwinding, and emits the record once.
class PlanOutcomeRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  PlanOutcomeRecorder(std::string source, std::int64_t n, int ranks, int nodes,
                      const core::LowCommParams& params, std::string route,
                      const comm::SimCluster* cluster = nullptr,
                      Clock::time_point start = Clock::now())
      : cluster_(cluster),
        start_(start),
        exceptions_(std::uncaught_exceptions()) {
    rec_.source = std::move(source);
    rec_.n = n;
    rec_.ranks = ranks;
    rec_.nodes = nodes;
    rec_.k = params.subdomain;
    rec_.far_rate = static_cast<int>(params.far_rate);
    rec_.schedule = params.uniform_rate ? "uniform" : "banded";
    rec_.route = std::move(route);
    rec_.wire = comm::codec_name(params.wire);
    rec_.batch = static_cast<std::int64_t>(params.batch);
    if (cluster_ != nullptr) before_ = snapshot(*cluster_);
  }
  PlanOutcomeRecorder(const PlanOutcomeRecorder&) = delete;
  PlanOutcomeRecorder& operator=(const PlanOutcomeRecorder&) = delete;

  ~PlanOutcomeRecorder() {
    // An unwinding scope still emits a well-formed record: predictions
    // stand, the measured side is whatever ran, and aborted=true keeps it
    // out of calibration.
    rec_.aborted = std::uncaught_exceptions() > exceptions_;
    rec_.meas_wall_s =
        std::chrono::duration<double>(Clock::now() - start_).count();
    if (cluster_ != nullptr) {
      const Counters a = snapshot(*cluster_);
      const Counters& b = before_;
      const auto count = [](std::size_t after, std::size_t before) {
        return static_cast<std::int64_t>(after - before);
      };
      const auto secs = [](std::int64_t after, std::int64_t before) {
        return static_cast<double>(after - before) * 1e-9;
      };
      rec_.meas_bytes = count(a.bytes, b.bytes);
      rec_.meas_intra_bytes = count(a.intra_bytes, b.intra_bytes);
      rec_.meas_inter_bytes = count(a.inter_bytes, b.inter_bytes);
      rec_.meas_intra_msgs = count(a.intra_msgs, b.intra_msgs);
      rec_.meas_inter_msgs = count(a.inter_msgs, b.inter_msgs);
      rec_.meas_wire_s = secs(a.modeled_ns, b.modeled_ns);
      rec_.meas_intra_wire_s = secs(a.intra_modeled_ns, b.intra_modeled_ns);
      rec_.meas_inter_wire_s = secs(a.inter_modeled_ns, b.inter_modeled_ns);
      rec_.meas_barrier_wait_s = secs(a.barrier_wait_ns, b.barrier_wait_ns);
      rec_.meas_recv_wait_s = secs(a.recv_wait_ns, b.recv_wait_ns);
    }
    record_plan_outcome(rec_);
  }

  [[nodiscard]] PlanOutcome& outcome() noexcept { return rec_; }

 private:
  /// The cluster counters a record diffs: CommStats aggregates plus the
  /// per-rank wait totals summed over ranks.
  struct Counters {
    std::size_t bytes = 0, intra_bytes = 0, inter_bytes = 0;
    std::size_t intra_msgs = 0, inter_msgs = 0;
    std::int64_t modeled_ns = 0, intra_modeled_ns = 0, inter_modeled_ns = 0;
    std::int64_t barrier_wait_ns = 0, recv_wait_ns = 0;
  };

  static Counters snapshot(const comm::SimCluster& cluster) {
    const comm::CommStats& s = cluster.stats();
    Counters c;
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

  PlanOutcome rec_;
  const comm::SimCluster* cluster_;
  Clock::time_point start_;
  int exceptions_;
  Counters before_;
};

/// Parse every well-formed record line of a JSONL history file (reader side
/// — telemetry.cpp, lc_obs). Unparseable lines are skipped, not fatal: the
/// file may be mid-append by another process.
[[nodiscard]] std::vector<PlanOutcome> read_plan_outcomes(
    const std::string& path);

/// Parse one JSON line; returns false if it is not a PlanOutcome record.
[[nodiscard]] bool parse_plan_outcome(const std::string& line,
                                      PlanOutcome& out);

}  // namespace lc::obs
