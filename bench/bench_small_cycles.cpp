// Extension bench: do small thermal cycles matter? (paper §2 leaves them
// unmodeled for lack of validated models.)
//
// Evaluates representative workloads at 65 nm through the pipeline with the
// flight-recorder timeline keeping every interval (holding each app's 180 nm
// heat-sink temperature, the paper's scaling rule), rainflow-counts the FXU
// temperature column, and reports the Coffin-Manson damage of the small
// (application-induced) cycles in units of equivalent large power-off
// cycles. The punchline matches the engineering folklore the paper leaned
// on: at q = 2.35, millikelvin micro-cycles are orders of magnitude below
// one daily power cycle.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "core/rainflow.hpp"
#include "util/error.hpp"

int main() {
  using namespace ramp;
  bench::print_header("Small-cycle ablation",
                      "rainflow-counted application thermal cycles");

  pipeline::EvaluationConfig cfg = bench::default_config();
  // The point budget is a bound, not an allocation: an unbounded one keeps
  // every interval (stride 1). Recording never changes results.
  cfg.timeline_enabled = true;
  cfg.timeline_points = std::numeric_limits<std::uint64_t>::max();
  const pipeline::Evaluator evaluator(cfg);

  TextTable table("Small-cycle damage per second of execution, 65 nm (1.0V)");
  table.set_header({"app", "cycles/s", "median dT (mK)", "max dT (mK)",
                    "damage vs one large cycle/s", "large cycles/day equiv"});
  const auto sci = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", v);
    return std::string(buf);
  };

  for (const std::string app : {"crafty", "gcc", "ammp", "mgrid"}) {
    const auto& w = workloads::workload(app);
    const auto base = evaluator.evaluate(w, scaling::TechPoint::k180nm);
    const auto scaled = evaluator.evaluate(w, scaling::TechPoint::k65nm_1V0,
                                           base.sink_temp_k);
    const obs::CellTimeline& timeline = scaled.timeline;
    RAMP_REQUIRE(timeline.stride == 1 && !timeline.points.empty(),
                 "the timeline must keep every interval");
    const auto fxu = static_cast<std::size_t>(
        std::find(timeline.temp_names.begin(), timeline.temp_names.end(),
                  "FXU") -
        timeline.temp_names.begin());
    RAMP_REQUIRE(fxu < timeline.temp_names.size(), "no FXU temperature column");
    std::vector<double> trace_temps;
    trace_temps.reserve(timeline.points.size());
    for (const auto& p : timeline.points) trace_temps.push_back(p.temp_k[fxu]);
    const double elapsed = timeline.points.back().time_s;

    // Large reference cycle: average die temp over ambient (eq. 4 inputs).
    const double ref_range = base.avg_die_temp_k - 300.0;
    core::SmallCycleDamage damage(2.35, ref_range, 1e-4);
    damage.add_signal(trace_temps);

    const auto cycles = core::rainflow_count(trace_temps);
    std::vector<double> ranges;
    double max_r = 0.0;
    for (const auto& c : cycles) {
      ranges.push_back(c.range);
      max_r = std::max(max_r, c.range);
    }
    std::sort(ranges.begin(), ranges.end());
    const double median =
        ranges.empty() ? 0.0 : ranges[ranges.size() / 2];

    const double per_s = elapsed > 0 ? damage.total_damage() / elapsed : 0.0;
    table.add_row({app, fmt(damage.cycles_counted() / elapsed, 0),
                   fmt(median * 1e3, 3), fmt(max_r * 1e3, 3), sci(per_s),
                   fmt(per_s * 86400.0, 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: the transient starts at its steady-state operating point, so\n"
      "the cycles left are the application's own: millikelvin swings, each\n"
      "1e-11..1e-10 of a large cycle (the q = 2.35 power law crushes small\n"
      "ranges). Even tens of thousands of them per second, integrated over a\n"
      "full day, stay below the single daily power-off cycle, so the paper's\n"
      "omission is safe at 1 us, per-block resolution; finer-grained hot\n"
      "spots are where the later small-cycle fatigue literature looked.\n");
  return 0;
}
