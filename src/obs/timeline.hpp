// Flight recorder: bounded per-interval physics timelines plus an anomaly
// watchdog over them.
//
// The evaluator's transient loop produces one physics sample per RAMP
// interval — per-structure temperature, dynamic and leakage power, and the
// per-mechanism instantaneous FIT. A full trace is O(intervals) and a sweep
// runs 80 cells, so TimelineBuffer keeps a *bounded* deterministic sketch:
// points are admitted at a sampling stride that doubles whenever the buffer
// fills (classic stride-doubling reservoir), which keeps memory at
// O(capacity) while the retained points stay exactly reproducible for a
// given input sequence — no RNG, no clocks, so jobs=1 and jobs=4 sweeps
// export byte-identical CSVs. The most recent raw (undownsampled) points
// are additionally kept in a small ring for incident dumps.
//
// The obs layer stays generic: a TimelinePoint carries plain vectors of
// temperatures/FITs and CellTimeline carries the column names as metadata
// supplied by the pipeline, so ramp_obs keeps depending only on ramp_util.
//
// Watchdog checks each point against declarative rules (over-temperature,
// non-finite values, instantaneous-FIT spike vs the cell's running median)
// and on first trip per rule captures an Incident: the rule, the offending
// value and the last K raw timeline points.
// check() never throws, so a tripped cell never aborts sibling sweep cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ramp::obs {

/// One per-interval physics sample. The vectors are positional; the
/// owning CellTimeline names the columns.
struct TimelinePoint {
  std::uint64_t interval = 0;  ///< 0-based interval index
  double time_s = 0.0;         ///< elapsed simulated time at interval end
  double ipc = 0.0;
  double dyn_power_w = 0.0;
  double leak_power_w = 0.0;
  std::vector<double> temp_k;    ///< per structure (CellTimeline::temp_names)
  std::vector<double> fit_inst;  ///< instantaneous raw FIT per mechanism
  std::vector<double> fit_avg;   ///< running time-averaged raw FIT per mechanism

  double total_power_w() const { return dyn_power_w + leak_power_w; }
  /// Hottest structure in this sample (0 when temp_k is empty).
  double hottest_temp_k() const;
  /// Sum of the instantaneous raw FITs (the watchdog's spike statistic).
  double inst_total_fit() const;
};

/// Bounded deterministic downsampler. Callers push every interval in order
/// (interval indices 0,1,2,...); the buffer admits points whose index is a
/// multiple of the current stride and doubles the stride (dropping every
/// other retained point) when full. The latest point is always tracked so
/// exports end exactly at the final interval.
class TimelineBuffer {
 public:
  /// `capacity` is the maximum number of retained sampled points (>= 2).
  /// It is a bound, not an allocation: storage grows as points arrive.
  explicit TimelineBuffer(std::size_t capacity);

  void push(TimelinePoint p);

  /// Retained points in chronological order, with the final pushed point
  /// appended when the stride skipped it.
  std::vector<TimelinePoint> points() const;

  /// Sampled points only (no final-point patch); chronological.
  const std::vector<TimelinePoint>& sampled() const { return sampled_; }

  /// Last `k` raw pushed points (no downsampling), oldest first; bounded by
  /// kRecentCapacity.
  std::vector<TimelinePoint> recent(std::size_t k) const;

  std::uint64_t stride() const { return stride_; }
  std::uint64_t pushed() const { return pushed_; }
  std::size_t capacity() const { return capacity_; }

  static constexpr std::size_t kRecentCapacity = 32;

 private:
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t pushed_ = 0;
  std::vector<TimelinePoint> sampled_;
  TimelinePoint last_;
  std::vector<TimelinePoint> recent_;  ///< ring, recent_next_ is oldest slot
  std::size_t recent_next_ = 0;
};

/// One cell's exported timeline: bounded points plus naming metadata.
struct CellTimeline {
  std::string cell;                     ///< "app@node"
  std::vector<std::string> temp_names;  ///< names TimelinePoint::temp_k
  std::vector<std::string> fit_names;   ///< names fit_inst / fit_avg
  std::uint64_t intervals = 0;          ///< raw intervals recorded
  std::uint64_t stride = 1;             ///< final sampling stride
  std::size_t capacity = 0;             ///< configured point budget
  std::vector<TimelinePoint> points;

  bool empty() const { return points.empty(); }
};

/// Declarative watchdog rules; a non-positive threshold/factor disables the
/// corresponding rule.
struct WatchdogRules {
  /// Trip when any structure exceeds this temperature. The default sits
  /// above the model's normal operating range (~355-370 K across the paper's
  /// sweep) at a typical 110 C qualification junction temperature.
  double max_temp_k = 383.15;
  /// Trip when the instantaneous total FIT exceeds this multiple of the
  /// running median over the sampled history.
  double fit_spike_factor = 8.0;
  /// Minimum sampled history before the spike rule arms (medians over a
  /// handful of warm-up intervals are noise).
  std::size_t spike_min_samples = 16;
  bool check_finite = true;  ///< trip on non-finite temperature/power/FIT
  std::size_t incident_points = 8;  ///< raw points captured per incident
};

/// A tripped rule's flight-recorder dump.
struct Incident {
  std::string cell;
  std::string rule;  ///< "over_temperature", "non_finite", "fit_spike"
  std::uint64_t interval = 0;
  double time_s = 0.0;
  double value = 0.0;      ///< offending measurement
  double threshold = 0.0;  ///< limit it crossed
  std::string detail;      ///< human-readable one-liner
  std::vector<TimelinePoint> points;  ///< last raw points incl. the trigger
};

/// Per-cell anomaly monitor. Single-threaded (one per evaluation); each rule
/// trips at most once per cell, and check() never throws, so an incident in
/// one sweep cell cannot abort siblings.
class Watchdog {
 public:
  Watchdog(std::string cell, WatchdogRules rules);

  /// Checks `p` against the rules, using `history` (the buffer *before*
  /// this point is pushed) for the median statistic and the incident dump.
  void check(const TimelinePoint& p, const TimelineBuffer& history);

  const std::vector<Incident>& incidents() const { return incidents_; }
  /// Rule trips suppressed by the once-per-rule dedup.
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  bool already_tripped(const std::string& rule);
  void trip(const std::string& rule, const TimelinePoint& p,
            const TimelineBuffer& history, double value, double threshold,
            std::string detail);

  std::string cell_;
  WatchdogRules rules_;
  std::vector<Incident> incidents_;
  std::uint64_t suppressed_ = 0;
};

/// Deterministic CSV: one `# cell=...` header comment, one column-name
/// header row, one row per point, 17-digit round-trip floats.
std::string timeline_to_csv(const CellTimeline& t);

/// NDJSON: one metadata line then one JSON object per point.
std::string timeline_to_ndjson(const CellTimeline& t);

/// One-line JSON object for an incident (NDJSON-friendly).
std::string incident_to_json(const Incident& i);

/// The file stem used for per-cell exports: "@" and path separators in the
/// cell name are mapped to safe characters ("gcc@65-1.0" -> "gcc_65-1.0").
std::string timeline_file_stem(const std::string& cell);

}  // namespace ramp::obs
