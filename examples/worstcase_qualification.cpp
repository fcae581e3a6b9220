// Worst-case vs application-aware reliability qualification (paper §5.2).
//
// Qualifying a processor for worst-case operating conditions means
// designing for a failure rate no real application reaches — and the gap
// widens with scaling. This example quantifies the over-design at each
// node: the FIT budget a worst-case qualifier would provision versus what
// the workloads actually consume, i.e. the argument for the paper's
// dynamic reliability management proposal.
//
// Usage: worstcase_qualification [instructions]
#include <algorithm>
#include <cstdio>
#include <string>

#include "pipeline/sweep.hpp"
#include "util/constants.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ramp;

  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/100'000);
  if (argc > 1) cfg.trace_instructions = std::stoull(argv[1]);

  // Full-suite sweep (cached if a bench already ran with this config).
  pipeline::StderrProgress progress;
  pipeline::SweepRunner::Options opts;
  opts.jobs = 4;
  opts.observer = &progress;
  const pipeline::SweepResult sweep = pipeline::SweepRunner(cfg, opts).run();

  TextTable table(
      "Worst-case qualification overhead per node (16-app SPEC2K suite)");
  table.set_header({"tech", "worst-case FIT", "highest app FIT",
                    "average app FIT", "over highest", "over average",
                    "worst-case MTTF (y)", "avg-app MTTF (y)"});

  for (const auto tp : scaling::kAllTechPoints) {
    const double wc = sweep.worst_case(tp).total();
    double highest = 0.0, sum = 0.0;
    for (const auto& r : sweep.results) {
      if (r.tech != tp) continue;
      const double f = sweep.qualified_fits(r).total();
      highest = std::max(highest, f);
      sum += f;
    }
    const double avg = sum / 16.0;
    table.add_row({std::string(scaling::tech_name(tp)), fmt(wc, 0),
                   fmt(highest, 0), fmt(avg, 0),
                   fmt_pct_change(wc / highest), fmt_pct_change(wc / avg),
                   fmt(mttf_years_from_fit(wc), 1),
                   fmt(mttf_years_from_fit(avg), 1)});
  }
  std::printf("%s\n", table.str().c_str());

  std::printf(
      "Paper reference: the worst-case-over-highest-app gap grows from 25%%\n"
      "at 180 nm to 90%% at 65 nm, and worst-case-over-average from 67%% to\n"
      "206%% — qualifying for the worst case increasingly over-designs the\n"
      "processor for every workload it will actually run.\n");
  return 0;
}
