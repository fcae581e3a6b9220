#include "pipeline/progress.hpp"

#include <cstdio>

#include "pipeline/evaluator.hpp"

namespace ramp::pipeline {

void StderrProgress::on_sweep_begin(std::size_t total_cells, std::size_t jobs) {
  finished_ = 0;
  total_ = total_cells;
  std::fprintf(stderr, "[sweep] %zu cells on %zu worker%s\n", total_cells, jobs,
               jobs == 1 ? "" : "s");
}

void StderrProgress::on_cell_finish(const SweepCell& cell,
                                    const AppTechResult& result,
                                    double wall_seconds) {
  ++finished_;
  std::fprintf(stderr,
               "[sweep] %3zu/%zu %-9s %-12s ipc=%.2f power=%.1fW Tmax=%.1fK "
               "(worker %d, %.2fs)\n",
               finished_, total_, cell.app.c_str(),
               std::string(scaling::tech_name(cell.tech)).c_str(), result.ipc,
               result.avg_total_power_w, result.max_structure_temp_k,
               cell.worker_id, wall_seconds);
}

void StderrProgress::on_sweep_end(double wall_seconds) {
  std::fprintf(stderr, "[sweep] done in %.2fs\n", wall_seconds);
}

}  // namespace ramp::pipeline
