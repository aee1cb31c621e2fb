// Planner calibration: closing the loop from telemetry to pricing
// (DESIGN.md §18, ROADMAP item 2's "learned compute model").
//
// The planner prices compute with PlanRequest::compute_rate_pps (a static
// device-peak guess) and wire with the request's α-β link models. Both are
// exactly the quantities the plan-vs-actual history measures: every record
// pairs pred_point_passes with meas_compute_s (rate = passes / seconds) and
// per-level executed (messages, bytes) with the modeled per-level wire
// seconds. fit_calibration() regresses those:
//
//   rate_pps    — median over records of pred_point_passes / meas_compute_s.
//                 The median-of-ratios is robust to the occasional outlier
//                 (cold caches, CI noise) that would wreck a least-squares
//                 mean, and it needs no design matrix.
//   α, β per level — least squares of seconds ≈ α·messages + β·bytes over
//                 the per-level (msgs, bytes, seconds) triples. When the
//                 2×2 normal matrix is singular (all records share one
//                 message/byte shape, so α and β cannot be separated) the
//                 fit falls back to α = 0, β = median(seconds / bytes).
//
// A minimum-sample guard keeps a single noisy record from steering the
// planner; below it the fit reports invalid and the static defaults stand.
// LC_CALIBRATION=<path> feeds a saved fit back into every Planner::plan —
// plans are re-ranked under the fitted rates, and cache keys are salted
// with the calibration so stale cached plans cannot survive a new fit.
#pragma once

#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "planner/planner.hpp"

namespace lc::planner {

/// A fitted (or loaded) calibration. `valid` only when the fit had enough
/// usable records; invalid calibrations leave requests untouched.
struct Calibration {
  bool valid = false;
  int samples = 0;           ///< records the fit consumed
  double rate_pps = 0.0;     ///< measured compute rate (point-passes/s)
  double intra_alpha = 0.0;  ///< per-message latency, intra-node [s]
  double intra_beta = 0.0;   ///< per-byte cost, intra-node [s/B]
  double inter_alpha = 0.0;
  double inter_beta = 0.0;
  /// Distinct tag for plan cache keys ("-" when invalid).
  [[nodiscard]] std::string cache_salt() const;
};

/// Records below this count yield an invalid fit. Two is deliberate: a
/// single distributed call on each route (flat + hierarchical) is already
/// fittable, while one lone record never is.
inline constexpr int kMinCalibrationSamples = 2;

/// Fit a calibration from plan-vs-actual records. Only non-aborted records
/// of distributed runs (ranks > 1) with positive measured compute feed the
/// rate; the α-β fit additionally needs executed wire traffic.
[[nodiscard]] Calibration fit_calibration(
    const std::vector<obs::PlanOutcome>& records,
    int min_samples = kMinCalibrationSamples);

/// Convenience: read a JSONL history file and fit.
[[nodiscard]] Calibration fit_calibration_file(
    const std::string& history_path,
    int min_samples = kMinCalibrationSamples);

/// Save / load the flat single-object JSON calibration file format.
bool save_calibration(const Calibration& cal, const std::string& path);
[[nodiscard]] Calibration load_calibration(const std::string& path);

/// The process-wide calibration from LC_CALIBRATION=<path> (unset or "off"
/// → invalid). Loaded once and cached; reload_calibration() re-reads the
/// environment (tests and tools that flip the variable mid-process).
[[nodiscard]] const Calibration& calibration_from_env();
void reload_calibration();

/// Apply `cal` to a request: substitute the fitted compute rate and
/// per-level link parameters. No-op when the calibration is invalid.
[[nodiscard]] PlanRequest apply_calibration(PlanRequest req,
                                            const Calibration& cal);

}  // namespace lc::planner
