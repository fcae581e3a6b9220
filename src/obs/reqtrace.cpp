#include "obs/reqtrace.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ramp::obs {

std::string_view phase_name(Phase p) {
  switch (p) {
    case Phase::kRead: return "read";
    case Phase::kParse: return "parse";
    case Phase::kAdmission: return "admission";
    case Phase::kQueue: return "queue";
    case Phase::kCache: return "cache";
    case Phase::kCompute: return "compute";
    case Phase::kSerialize: return "serialize";
    case Phase::kFlush: return "flush";
  }
  throw InvalidArgument("unknown phase");
}

TraceRing::TraceRing(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()),
      capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

std::uint64_t TraceRing::to_epoch_ns(
    std::chrono::steady_clock::time_point t) const {
  if (t <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::nanoseconds(t - epoch_).count());
}

void TraceRing::push(RequestTrace rec) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[next_] = std::move(rec);
  }
  next_ = (next_ + 1) % capacity_;
  ++pushed_;
}

std::vector<RequestTrace> TraceRing::snapshot() const {
  std::vector<RequestTrace> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Full ring: next_ points at the oldest record.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void TraceRing::clear() {
  ring_.clear();
  next_ = 0;
}

namespace {

/// The compute sub-stages worth drawing as their own slices (the pipeline
/// proper; kCache/kSchedule/kTotal are already covered by the phases).
constexpr Stage kComputeStages[] = {Stage::kTraceGen, Stage::kSim,
                                    Stage::kPower, Stage::kThermal,
                                    Stage::kFit};

void push_child(std::vector<TraceEvent>& events, Stage cat, std::string name,
                std::uint64_t ts_ns, std::uint64_t dur_ns) {
  TraceEvent ev;
  ev.stage = cat;
  ev.name = std::move(name);
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  events.push_back(std::move(ev));
}

}  // namespace

std::vector<ThreadTrace> request_lanes(const std::vector<RequestTrace>& recs) {
  std::vector<const RequestTrace*> sorted;
  sorted.reserve(recs.size());
  for (const RequestTrace& r : recs) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const RequestTrace* a, const RequestTrace* b) {
                     return a->start_ns < b->start_ns;
                   });

  std::vector<ThreadTrace> lanes;
  std::vector<std::uint64_t> lane_end;
  for (const RequestTrace* r : sorted) {
    // First-fit: the first lane whose previous request ended by our start.
    std::size_t lane = lane_end.size();
    for (std::size_t k = 0; k < lane_end.size(); ++k) {
      if (lane_end[k] <= r->start_ns) {
        lane = k;
        break;
      }
    }
    if (lane == lane_end.size()) {
      lane_end.push_back(0);
      ThreadTrace t;
      t.tid = 1 + lane;
      t.worker_id = -1;
      t.name = "requests-lane-" + std::to_string(lane);
      lanes.push_back(std::move(t));
    }
    const std::uint64_t end = r->start_ns + std::max<std::uint64_t>(
                                               r->total_ns, 1);
    lane_end[lane] = end;

    std::string title = r->op;
    if (!r->label.empty()) title += " " + r->label;
    if (!r->trace_id.empty()) title += " [" + r->trace_id + "]";
    push_child(lanes[lane].events, Stage::kTotal, std::move(title),
               r->start_ns, std::max<std::uint64_t>(r->total_ns, 1));

    // Phases back-to-back from the request start (attribution layout, not a
    // literal schedule — see the header comment).
    std::uint64_t cursor = r->start_ns;
    for (int p = 0; p < kNumPhases; ++p) {
      const auto ns = r->phase_ns[static_cast<std::size_t>(p)];
      if (ns == 0) continue;
      const Phase phase = static_cast<Phase>(p);
      if (phase == Phase::kCompute) {
        std::uint64_t staged = 0;
        for (Stage s : kComputeStages) {
          staged += r->stage_ns[static_cast<std::size_t>(s)];
        }
        if (staged > 0) {
          std::uint64_t sub_cursor = cursor;
          for (Stage s : kComputeStages) {
            const auto sns = r->stage_ns[static_cast<std::size_t>(s)];
            if (sns == 0) continue;
            push_child(lanes[lane].events, s, std::string(stage_name(s)),
                       sub_cursor, sns);
            sub_cursor += sns;
          }
          cursor += ns;
          continue;
        }
      }
      Stage cat = Stage::kTotal;
      if (phase == Phase::kQueue) cat = Stage::kSchedule;
      if (phase == Phase::kCache) cat = Stage::kCache;
      push_child(lanes[lane].events, cat, std::string(phase_name(phase)),
                 cursor, ns);
      cursor += ns;
    }
  }
  return lanes;
}

}  // namespace ramp::obs
