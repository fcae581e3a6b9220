#include "obs/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/export.hpp"
#include "util/error.hpp"

namespace ramp::obs {

namespace {

// Same float policy as the metrics exporters: %.17g round-trips doubles,
// integral values print without an exponent.
std::string num(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// JSON has no literal for non-finite doubles; the NDJSON/incident exporters
// emit null instead so payloads carrying NaN measurements (the non_finite
// watchdog rule exists precisely for those) stay parseable.
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  return num(v);
}

void append_array(std::ostringstream& out, const std::vector<double>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out << ',';
    out << jnum(v[i]);
  }
  out << ']';
}

void append_point_json(std::ostringstream& out, const TimelinePoint& p) {
  out << "{\"interval\":" << p.interval << ",\"time_s\":" << jnum(p.time_s)
      << ",\"ipc\":" << jnum(p.ipc) << ",\"dyn_w\":" << jnum(p.dyn_power_w)
      << ",\"leak_w\":" << jnum(p.leak_power_w) << ",\"temp_k\":";
  append_array(out, p.temp_k);
  out << ",\"fit_inst\":";
  append_array(out, p.fit_inst);
  out << ",\"fit_avg\":";
  append_array(out, p.fit_avg);
  out << '}';
}

}  // namespace

double TimelinePoint::hottest_temp_k() const {
  double t = 0.0;
  for (double v : temp_k) t = std::max(t, v);
  return t;
}

double TimelinePoint::inst_total_fit() const {
  double total = 0.0;
  for (double v : fit_inst) total += v;
  return total;
}

TimelineBuffer::TimelineBuffer(std::size_t capacity) : capacity_(capacity) {
  RAMP_REQUIRE(capacity_ >= 2, "timeline capacity must be at least 2");
}

void TimelineBuffer::push(TimelinePoint p) {
  // Raw ring for incident dumps, independent of the sampling stride.
  if (recent_.size() < kRecentCapacity) {
    recent_.push_back(p);
  } else {
    recent_[recent_next_] = p;
    recent_next_ = (recent_next_ + 1) % kRecentCapacity;
  }
  last_ = p;
  ++pushed_;

  if (p.interval % stride_ != 0) return;
  if (sampled_.size() == capacity_) {
    // Full: halve the retained density, then re-test admission under the
    // doubled stride. Keeping multiples of the new stride makes compaction
    // a pure function of the interval indices — order-independent and
    // deterministic.
    std::vector<TimelinePoint> kept;
    kept.reserve(capacity_ / 2 + 1);
    for (auto& q : sampled_) {
      if (q.interval % (stride_ * 2) == 0) kept.push_back(std::move(q));
    }
    sampled_ = std::move(kept);
    stride_ *= 2;
    if (p.interval % stride_ != 0) return;
  }
  sampled_.push_back(std::move(p));
}

std::vector<TimelinePoint> TimelineBuffer::points() const {
  std::vector<TimelinePoint> out = sampled_;
  if (pushed_ > 0 && (out.empty() || out.back().interval != last_.interval)) {
    out.push_back(last_);
  }
  return out;
}

std::vector<TimelinePoint> TimelineBuffer::recent(std::size_t k) const {
  const std::size_t n = std::min(k, recent_.size());
  std::vector<TimelinePoint> out;
  out.reserve(n);
  // recent_next_ is the oldest slot once the ring has wrapped; before that
  // the vector is already chronological from index 0.
  const std::size_t size = recent_.size();
  const std::size_t start = recent_.size() < kRecentCapacity ? 0 : recent_next_;
  for (std::size_t i = size - n; i < size; ++i) {
    out.push_back(recent_[(start + i) % size]);
  }
  return out;
}

Watchdog::Watchdog(std::string cell, WatchdogRules rules)
    : cell_(std::move(cell)), rules_(rules) {}

bool Watchdog::already_tripped(const std::string& rule) {
  for (const auto& i : incidents_) {
    if (i.rule == rule) {
      ++suppressed_;
      return true;
    }
  }
  return false;
}

void Watchdog::trip(const std::string& rule, const TimelinePoint& p,
                    const TimelineBuffer& history, double value,
                    double threshold, std::string detail) {
  Incident inc;
  inc.cell = cell_;
  inc.rule = rule;
  inc.interval = p.interval;
  inc.time_s = p.time_s;
  inc.value = value;
  inc.threshold = threshold;
  inc.detail = std::move(detail);
  if (rules_.incident_points > 0) {
    inc.points = history.recent(rules_.incident_points - 1);
    inc.points.push_back(p);  // the trigger itself is always captured
  }
  incidents_.push_back(std::move(inc));
}

void Watchdog::check(const TimelinePoint& p, const TimelineBuffer& history) {
  // Flight-recorder contract: monitoring must never break the evaluation.
  // Every rule is wrapped so an unexpected failure (allocation, arithmetic)
  // degrades to "no incident", not an aborted sweep cell.
  try {
    if (rules_.check_finite && !already_tripped("non_finite")) {
      const auto bad = [](const std::vector<double>& v) {
        for (double x : v) {
          if (!std::isfinite(x)) return true;
        }
        return false;
      };
      if (!std::isfinite(p.dyn_power_w) || !std::isfinite(p.leak_power_w) ||
          bad(p.temp_k) || bad(p.fit_inst) || bad(p.fit_avg)) {
        trip("non_finite", p, history, std::nan(""), 0.0,
             "non-finite temperature, power, or FIT at interval " +
                 std::to_string(p.interval));
      }
    }

    if (rules_.max_temp_k > 0.0) {
      const double hottest = p.hottest_temp_k();
      if (hottest > rules_.max_temp_k && !already_tripped("over_temperature")) {
        char detail[128];
        std::snprintf(detail, sizeof detail,
                      "structure temperature %.2f K exceeds the %.2f K limit",
                      hottest, rules_.max_temp_k);
        trip("over_temperature", p, history, hottest, rules_.max_temp_k,
             detail);
      }
    }

    if (rules_.fit_spike_factor > 0.0 &&
        history.sampled().size() >= rules_.spike_min_samples) {
      std::vector<double> totals;
      totals.reserve(history.sampled().size());
      for (const auto& q : history.sampled()) totals.push_back(q.inst_total_fit());
      const auto mid = totals.begin() + static_cast<std::ptrdiff_t>(totals.size() / 2);
      std::nth_element(totals.begin(), mid, totals.end());
      const double median = *mid;
      const double limit = rules_.fit_spike_factor * median;
      if (median > 0.0 && p.inst_total_fit() > limit &&
          !already_tripped("fit_spike")) {
        char detail[160];
        std::snprintf(detail, sizeof detail,
                      "instantaneous FIT %.6g exceeds %.3gx the running "
                      "median %.6g",
                      p.inst_total_fit(), rules_.fit_spike_factor, median);
        trip("fit_spike", p, history, p.inst_total_fit(), limit, detail);
      }
    }
  } catch (...) {
    // Swallowed by design; see the contract above.
  }
}

std::string timeline_to_csv(const CellTimeline& t) {
  std::ostringstream out;
  out << "# ramp_timeline v1 cell=" << t.cell << " intervals=" << t.intervals
      << " stride=" << t.stride << " capacity=" << t.capacity << "\n";
  out << "interval,time_s,ipc,dyn_w,leak_w";
  for (const auto& n : t.temp_names) out << ",temp_k_" << n;
  for (const auto& n : t.fit_names) out << ",fit_inst_" << n;
  for (const auto& n : t.fit_names) out << ",fit_avg_" << n;
  out << '\n';
  for (const auto& p : t.points) {
    out << p.interval << ',' << num(p.time_s) << ',' << num(p.ipc) << ','
        << num(p.dyn_power_w) << ',' << num(p.leak_power_w);
    for (double v : p.temp_k) out << ',' << num(v);
    for (double v : p.fit_inst) out << ',' << num(v);
    for (double v : p.fit_avg) out << ',' << num(v);
    out << '\n';
  }
  return out.str();
}

std::string timeline_to_ndjson(const CellTimeline& t) {
  std::ostringstream out;
  out << "{\"cell\":" << json_quote(t.cell) << ",\"intervals\":" << t.intervals
      << ",\"stride\":" << t.stride << ",\"capacity\":" << t.capacity
      << ",\"temp_names\":[";
  for (std::size_t i = 0; i < t.temp_names.size(); ++i) {
    if (i > 0) out << ',';
    out << json_quote(t.temp_names[i]);
  }
  out << "],\"fit_names\":[";
  for (std::size_t i = 0; i < t.fit_names.size(); ++i) {
    if (i > 0) out << ',';
    out << json_quote(t.fit_names[i]);
  }
  out << "]}\n";
  for (const auto& p : t.points) {
    append_point_json(out, p);
    out << '\n';
  }
  return out.str();
}

std::string incident_to_json(const Incident& i) {
  std::ostringstream out;
  out << "{\"cell\":" << json_quote(i.cell) << ",\"rule\":" << json_quote(i.rule)
      << ",\"interval\":" << i.interval << ",\"time_s\":" << jnum(i.time_s)
      << ",\"value\":" << jnum(i.value) << ",\"threshold\":" << jnum(i.threshold)
      << ",\"detail\":" << json_quote(i.detail) << ",\"points\":[";
  for (std::size_t k = 0; k < i.points.size(); ++k) {
    if (k > 0) out << ',';
    append_point_json(out, i.points[k]);
  }
  out << "]}";
  return out.str();
}

std::string timeline_file_stem(const std::string& cell) {
  std::string stem = cell;
  for (char& c : stem) {
    if (c == '@' || c == '/' || c == '\\' || c == ':') c = '_';
  }
  return stem;
}

}  // namespace ramp::obs
