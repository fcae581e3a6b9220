// Progress reporting for sweep execution.
//
// SweepRunner reports cell-level lifecycle events through this interface
// instead of printing to stderr itself. Observer methods are invoked from pool
// worker threads, but SweepRunner serializes the calls: no two observer
// methods ever run concurrently, so implementations need no locking of
// their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "scaling/technology.hpp"

namespace ramp::pipeline {

struct AppTechResult;

/// Identity of one (app, tech) sweep cell in flight.
struct SweepCell {
  std::string app;
  scaling::TechPoint tech = scaling::TechPoint::k180nm;
  std::uint64_t task_id = 0;  ///< deterministic: app index × node count + node
  int worker_id = -1;         ///< pool worker executing the cell, -1 off-pool
};

class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;

  /// The sweep starts: `total_cells` evaluations over `jobs` workers.
  virtual void on_sweep_begin(std::size_t total_cells, std::size_t jobs) {
    (void)total_cells;
    (void)jobs;
  }
  /// A cell starts executing on a worker.
  virtual void on_cell_start(const SweepCell& cell) { (void)cell; }
  /// A cell finished after `wall_seconds`.
  virtual void on_cell_finish(const SweepCell& cell, const AppTechResult& result,
                              double wall_seconds) {
    (void)cell;
    (void)result;
    (void)wall_seconds;
  }
  /// All cells done and qualification applied, `wall_seconds` total.
  virtual void on_sweep_end(double wall_seconds) { (void)wall_seconds; }
};

/// Default observer: one stderr line per finished cell plus begin/end
/// summaries (what `ramp_cli sweep` prints).
class StderrProgress final : public ProgressObserver {
 public:
  void on_sweep_begin(std::size_t total_cells, std::size_t jobs) override;
  void on_cell_finish(const SweepCell& cell, const AppTechResult& result,
                      double wall_seconds) override;
  void on_sweep_end(double wall_seconds) override;

 private:
  std::size_t finished_ = 0;
  std::size_t total_ = 0;
};

}  // namespace ramp::pipeline
