// Deployment mission profiles: from benchmark FIT to deployed lifetime.
//
// The sweep gives per-workload failure rates under continuous execution;
// a deployed processor runs a daily mix with idle time and power cycles.
// This example evaluates three machine archetypes (server / desktop /
// laptop) across the technology nodes, showing how duty cycling and
// power-cycle frequency reshape which mechanism dominates: wear-out
// mechanisms scale with powered hours, thermal cycling with on/off events.
//
// Usage: mission_profiles [instructions]
#include <cstdio>
#include <string>

#include "pipeline/mission.hpp"
#include "pipeline/sweep.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ramp;

  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/100'000);
  if (argc > 1) cfg.trace_instructions = std::stoull(argv[1]);
  pipeline::StderrProgress progress;
  pipeline::SweepRunner::Options opts;
  opts.jobs = 4;
  opts.observer = &progress;
  const pipeline::SweepResult sweep = pipeline::SweepRunner(cfg, opts).run();

  for (const auto& mission : pipeline::example_missions()) {
    TextTable table("Mission: " + mission.name + "  (" +
                    fmt(mission.active_hours(), 1) + " h/day active, " +
                    fmt(mission.power_cycles_per_day, 2) + " power cycles/day)");
    table.set_header({"tech", "EM", "SM", "TDDB", "TC", "total FIT",
                      "MTTF (y)"});
    for (const auto tp : scaling::kAllTechPoints) {
      const auto fit = pipeline::evaluate_mission(sweep, tp, mission);
      table.add_row({std::string(scaling::tech_name(tp)), fmt(fit.em, 0),
                     fmt(fit.sm, 0), fmt(fit.tddb, 0), fmt(fit.tc, 0),
                     fmt(fit.total(), 0), fmt(fit.mttf_years(), 1)});
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf(
      "Reading: the 24/7 server ages through EM/TDDB (wear-out tracks\n"
      "powered hours); the laptop's aggressive sleep schedule makes thermal\n"
      "cycling its leading mechanism despite far less runtime. Scaling\n"
      "shortens every mission's lifetime, but which mechanism to harden\n"
      "against depends on deployment — workload awareness all the way up.\n");
  return 0;
}
