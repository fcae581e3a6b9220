// Shared setup for the table/figure reproduction benches.
//
// Every bench regenerates one table or figure of the paper from the same
// full sweep (16 apps × 5 nodes). The sweep's stage store persists under
// <out dir>/stage_cache, so the suite of benches pays for simulation once
// (later benches read the 80 fit rows back); the sweep CSV lands in
// <out dir>/ramp_sweep_cache.csv. Environment overrides:
//   RAMP_TRACE_LEN    instructions per synthetic trace (default 300000)
//   RAMP_SEED         base RNG seed (default 42)
//   RAMP_STAGE_CACHE  off = memory-only (recompute), or another directory
//   RAMP_JOBS         sweep worker threads (default: hardware concurrency)
//   RAMP_OUT_DIR      directory for CSV exports and the store (default out/)
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "pipeline/sweep.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace ramp::bench {

inline pipeline::EvaluationConfig default_config() {
  return pipeline::EvaluationConfig::from_env(/*trace_len=*/300'000);
}

inline const pipeline::SweepResult& shared_sweep() {
  static const pipeline::SweepResult sweep = [] {
    static pipeline::StderrProgress progress;
    pipeline::SweepRunner::Options opts;
    opts.jobs = env_jobs("RAMP_JOBS",
                         std::max(1u, std::thread::hardware_concurrency()));
    opts.cache_path =
        (std::filesystem::path(output_dir()) / "ramp_sweep_cache.csv").string();
    opts.observer = &progress;
    return pipeline::SweepRunner(default_config(), opts).run();
  }();
  return sweep;
}

/// Prints a standard bench header naming the paper artifact reproduced.
inline void print_header(const std::string& artifact, const std::string& what) {
  std::printf("=== %s — %s ===\n", artifact.c_str(), what.c_str());
  std::printf(
      "(reproduction of Srinivasan et al., DSN 2004; shape-level comparison,\n"
      " see EXPERIMENTS.md for paper-vs-measured discussion)\n\n");
}

/// Writes the table as CSV into the output directory ($RAMP_OUT_DIR,
/// default out/) for plotting, best effort.
inline void export_csv(const TextTable& table, const std::string& filename) {
  try {
    const std::filesystem::path dir(output_dir());
    std::filesystem::create_directories(dir);
    const std::string path = (dir / filename).string();
    table.write_csv(path);
    std::printf("[csv written to %s]\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csv export failed: %s\n", e.what());
  }
}

}  // namespace ramp::bench
