#include "fleet/fleet_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <bit>
#include <cstdio>
#include <future>
#include <limits>
#include <vector>

#include "core/lifetime_distributions.hpp"
#include "core/qualification.hpp"
#include "core/ramp_model.hpp"
#include "drm/drm_controller.hpp"
#include "drm/thermal_sensor.hpp"
#include "obs/span.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::fleet {

namespace {

/// Expected failures per (FIT x year): FIT is failures per 1e9 device-hours.
constexpr double kFailuresPerFitYear = kHoursPerYear / kFitHours;

/// Per-chip substream indices under stream_seed(scenario.seed, chip). Fixed
/// assignments so every stochastic aspect is independent of the others and
/// of the policy under test (common random numbers for A/B comparisons).
enum Substream : std::uint64_t {
  kStreamVariation = 0,
  kStreamSchedule = 1,
  kStreamThresholds = 2,
  kStreamSensor = 3,
  kStreamAttack = 4,
  kStreamInfant = 5,
};

/// Wear-out instances of one chip, flat and in the order the event search
/// breaks ties: structure-major (s, m) pairs, then the package TC instance.
constexpr std::size_t kStructureInstances =
    static_cast<std::size_t>(sim::kNumStructures * core::kNumMechanisms);
constexpr std::size_t kTcInstance = kStructureInstances;
constexpr std::size_t kInstances = kStructureInstances + 1;
using InstanceRow = std::array<double, kInstances>;
static_assert(kInstances <= 32, "instance masks are 32-bit");

constexpr std::size_t mechanism_of(std::size_t i) {
  return i == kTcInstance ? static_cast<std::size_t>(core::Mechanism::kTc)
                          : i % static_cast<std::size_t>(core::kNumMechanisms);
}

/// Unit-mean failure thresholds (in expected-failure units) from the
/// scenario's lifetime family. With exponential thresholds the damage model
/// reduces exactly to SOFR / core::LifetimeMonteCarlo for constant stress;
/// Weibull beta > 1 reproduces wear-out clustering around the MTTF.
///
/// Everything that does not depend on the draw (the Weibull scale, 1/beta)
/// is computed once per run.
class ThresholdModel {
 public:
  explicit ThresholdModel(const core::LifetimeModelConfig& cfg)
      : family_(cfg.family) {
    for (std::size_t m = 0; m < shape_.size(); ++m) {
      shape_[m] = cfg.shape[m];
      inv_shape_[m] = 1.0 / cfg.shape[m];
      eta_[m] = 1.0 / std::tgamma(1.0 + 1.0 / cfg.shape[m]);
    }
  }

  double draw(Xoshiro256& rng, std::size_t m) const {
    const double u = 1.0 - rng.uniform();  // (0, 1]: keeps log() finite
    switch (family_) {
      case core::LifetimeFamily::kExponential:
        return -std::log(u);
      case core::LifetimeFamily::kWeibull:
        return eta_[m] * std::pow(-std::log(u), inv_shape_[m]);
      case core::LifetimeFamily::kLognormal: {
        const double z = rng.normal();
        return std::exp(-0.5 * shape_[m] * shape_[m] + shape_[m] * z);
      }
    }
    throw InvalidArgument("unknown lifetime family");
  }

 private:
  core::LifetimeFamily family_;
  std::array<double, core::kNumMechanisms> shape_{};
  std::array<double, core::kNumMechanisms> inv_shape_{};
  std::array<double, core::kNumMechanisms> eta_{};
};

/// The estimated FIT of one (cell, sensor reading) that DRM policies and
/// the monitor act on, memoized per block. Direct-mapped with exact keys
/// (the reading's bit pattern), so a hit returns the very double a
/// recompute would; a collision just recomputes and overwrites. Quantized
/// readings repeat across chips: with the default 1 K quantum about 98% of
/// lookups hit (docs/PERFORMANCE.md). An unquantized sensor misses on every
/// lookup.
class FitEstimateMemo {
 public:
  template <typename Compute>
  double get(std::size_t cell, double reading, const Compute& compute) {
    const auto bits = std::bit_cast<std::uint64_t>(reading);
    const std::uint64_t tag = cell + 1;
    Slot& slot = slots_[static_cast<std::size_t>(
        ((bits ^ (tag * 0x9e3779b97f4a7c15ULL)) * 0xff51afd7ed558ccdULL) >>
        (64 - kLogSlots))];
    if (slot.tag != tag || slot.bits != bits) {
      slot.tag = tag;
      slot.bits = bits;
      slot.value = compute();
    }
    return slot.value;
  }

 private:
  static constexpr int kLogSlots = 11;
  struct Slot {
    std::uint64_t bits = 0;
    std::uint64_t tag = 0;  ///< cell + 1; 0 = empty
    double value = 0.0;
  };
  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << kLogSlots);
};

/// d ln FIT / dT (1/K) of one mechanism around temperature `t_k`, by forward
/// difference of the steady-state kernel. Zero when the mechanism's FIT is
/// zero at these conditions (nothing to modulate).
double temp_sensitivity(const core::RampModel& model, double t_k,
                        double activity, double vdd, core::Mechanism m) {
  const auto at = [&](double t) {
    return core::steady_state_summary(model, t, activity, vdd)
        .by_mechanism()[static_cast<std::size_t>(m)];
  };
  const double f0 = at(t_k);
  if (f0 <= 0.0) return 0.0;
  const double f1 = at(t_k + 1.0);
  if (f1 <= 0.0) return 0.0;
  return std::log(f1 / f0);
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string_view cause_name(FailureCause c) {
  switch (c) {
    case FailureCause::kInfant: return "infant";
    case FailureCause::kEm: return "em";
    case FailureCause::kSm: return "sm";
    case FailureCause::kTddb: return "tddb";
    case FailureCause::kTc: return "tc";
  }
  throw InvalidArgument("unknown FailureCause");
}

FleetSimulator::FleetSimulator(FleetScenario scenario)
    : FleetSimulator(std::move(scenario), Options{}) {}

FleetSimulator::FleetSimulator(FleetScenario scenario, Options opts)
    : scenario_(std::move(scenario)), opts_(std::move(opts)) {
  scenario_.validate();
  RAMP_REQUIRE(opts_.block_size >= 1, "block size must be at least 1");
  if (opts_.stage_store == nullptr) {
    opts_.stage_store = std::make_shared<pipeline::StageStore>(
        pipeline::StageStore::Options{.dir = scenario_.cell.stage_cache_dir});
  }
  pool_ = opts_.pool;
  if (pool_ == nullptr && opts_.jobs > 1) {
    own_pool_ = std::make_unique<ThreadPool>(opts_.jobs);
    pool_ = own_pool_.get();
  }
}

void FleetSimulator::prepare() const {
  if (prepared_) return;
  obs::Span span(obs::Stage::kSchedule,
                 "fleet-prepare:" + scenario_.name + "@" +
                     std::string(scaling::tech_token(scenario_.tech)));

  // Resolve the workload pool.
  apps_.clear();
  if (scenario_.apps.empty()) {
    for (const auto& w : workloads::spec2k_suite()) apps_.push_back(&w);
  } else {
    for (const auto& name : scenario_.apps) {
      apps_.push_back(&workloads::workload(name));
    }
  }
  RAMP_REQUIRE(!apps_.empty(), "fleet needs at least one workload");

  // Physics cells. Every chip shares these: the 180 nm runs qualify the
  // constants (suite-average 1000 FIT per mechanism over the scenario's
  // pool, the paper's rule applied to the fleet's actual workload mix), and
  // the scaled-node runs pin each app's 180 nm heat-sink temperature. They
  // run on the sweep's cell schedule (on the pool when there is one); with a
  // warm stage store they are all cache hits.
  const pipeline::Evaluator ev(scenario_.cell, opts_.stage_store);
  std::vector<scaling::TechPoint> nodes = {scaling::TechPoint::k180nm};
  if (scenario_.tech != scaling::TechPoint::k180nm) {
    nodes.push_back(scenario_.tech);
  }
  const std::size_t nnodes = nodes.size();
  const std::vector<pipeline::AppTechResult> results =
      pipeline::evaluate_cells(ev, apps_, nodes, pool_);
  std::vector<core::FitSummary> raw180;
  raw180.reserve(apps_.size());
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    raw180.push_back(results[a * nnodes].raw_fits);
  }
  const core::MechanismConstants constants = core::qualify(raw180);

  // Operating-point ladder. Rung 0 is nominal; deeper rungs exist only when
  // something can step down onto them.
  const scaling::TechnologyNode node = scaling::node(scenario_.tech);
  const bool throttles = scenario_.policy == DrmPolicy::kDvfs ||
                         scenario_.kind == ScenarioKind::kMonitor;
  const int rungs = throttles ? scenario_.ladder_points : 1;
  const auto ladder = drm::dvfs_ladder(node, rungs);

  const double ambient_k = scenario_.cell.thermal.ambient_k;
  cells_.assign(apps_.size(), std::vector<CellPoint>());
  double rth_sum = 0.0;
  double leak_sum = 0.0;
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const auto& cell = results[a * nnodes + nnodes - 1];
    const double activity = std::clamp(cell.max_activity, 0.05, 1.0);
    const core::RampModel model0(node);
    const auto ss0 =
        core::steady_state_summary(model0, cell.max_structure_temp_k, activity,
                                   node.vdd)
            .by_mechanism();
    const auto ss0_die =
        core::steady_state_summary(model0, cell.avg_die_temp_k, activity,
                                   node.vdd)
            .by_mechanism();

    auto& app_cells = cells_[a];
    app_cells.resize(static_cast<std::size_t>(rungs));
    for (int r = 0; r < rungs; ++r) {
      CellPoint& cp = app_cells[static_cast<std::size_t>(r)];
      cp.relative_performance =
          ladder[static_cast<std::size_t>(r)].relative_performance;
      if (r == 0) {
        cp.fits = pipeline::scale_summary(cell.raw_fits, constants);
        cp.junction_k = cell.max_structure_temp_k;
        cp.die_temp_k = cell.avg_die_temp_k;
      } else {
        // A throttled rung is derived analytically from the rung-0 cell:
        // voltage/frequency scale the power, the app's effective thermal
        // resistance converts the power delta into a temperature delta, and
        // the RAMP physics converts (V, T) into mechanism-wise FIT ratios.
        // No extra sim-stage runs — the stage-store amortization argument
        // survives DVFS scenarios.
        const auto& pt = ladder[static_cast<std::size_t>(r)];
        const double v_ratio = pt.vdd / node.vdd;
        const double f_ratio = pt.frequency_hz / node.frequency_hz;
        const double p_r = cell.avg_dynamic_power_w * v_ratio * v_ratio *
                               f_ratio +
                           cell.avg_leakage_power_w * v_ratio;
        const double p_0 = cell.avg_total_power_w;
        const double rth =
            p_0 > 0.0 ? (cell.avg_die_temp_k - ambient_k) / p_0 : 0.0;
        const double delta_t = (p_0 - p_r) * rth;
        cp.junction_k = cell.max_structure_temp_k - delta_t;
        cp.die_temp_k = cell.avg_die_temp_k - delta_t;

        scaling::TechnologyNode node_r = node;
        node_r.vdd = pt.vdd;
        node_r.frequency_hz = pt.frequency_hz;
        const core::RampModel model_r(node_r);
        const auto ssr = core::steady_state_summary(model_r, cp.junction_k,
                                                    activity, pt.vdd)
                             .by_mechanism();
        const auto ssr_die = core::steady_state_summary(model_r, cp.die_temp_k,
                                                        activity, pt.vdd)
                                 .by_mechanism();
        const auto& base = app_cells[0];
        std::array<double, core::kNumMechanisms> ratio{};
        for (int m = 0; m < core::kNumMechanisms; ++m) {
          const auto mi = static_cast<std::size_t>(m);
          const bool tc = m == static_cast<int>(core::Mechanism::kTc);
          const double den = tc ? ss0_die[mi] : ss0[mi];
          const double num = tc ? ssr_die[mi] : ssr[mi];
          ratio[mi] = den > 0.0 ? num / den : 1.0;
        }
        for (int s = 0; s < sim::kNumStructures; ++s) {
          for (int m = 0; m < core::kNumMechanisms; ++m) {
            cp.fits.by_structure[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(m)] =
                base.fits.by_structure[static_cast<std::size_t>(s)]
                                      [static_cast<std::size_t>(m)] *
                ratio[static_cast<std::size_t>(m)];
          }
        }
        cp.fits.tc_fit =
            base.fits.tc_fit *
            ratio[static_cast<std::size_t>(core::Mechanism::kTc)];
      }
      cp.total_fit = cp.fits.total();

      const core::RampModel model_here(
          [&] {
            scaling::TechnologyNode n = node;
            n.vdd = ladder[static_cast<std::size_t>(r)].vdd;
            n.frequency_hz = ladder[static_cast<std::size_t>(r)].frequency_hz;
            return n;
          }());
      const double vdd_here = ladder[static_cast<std::size_t>(r)].vdd;
      for (int m = 0; m < core::kNumMechanisms; ++m) {
        const bool tc = m == static_cast<int>(core::Mechanism::kTc);
        cp.temp_sens[static_cast<std::size_t>(m)] = temp_sensitivity(
            model_here, tc ? cp.die_temp_k : cp.junction_k, activity, vdd_here,
            static_cast<core::Mechanism>(m));
      }
    }

    const double p0 = cell.avg_total_power_w;
    if (p0 > 0.0) rth_sum += (cell.avg_die_temp_k - ambient_k) / p0;
    leak_sum += cell.avg_leakage_power_w;
  }
  chip_delta_t_per_leak_w_ = rth_sum / static_cast<double>(apps_.size());
  nominal_leak_w_ = leak_sum / static_cast<double>(apps_.size());

  // Attack target: the named app, else the most wear-intensive cell.
  attack_app_ = 0;
  if (!scenario_.attack.app.empty()) {
    bool found = false;
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      if (apps_[a]->name == scenario_.attack.app) {
        attack_app_ = a;
        found = true;
        break;
      }
    }
    RAMP_REQUIRE(found, "attack app '" + scenario_.attack.app +
                            "' is not in the scenario's workload pool");
  } else {
    for (std::size_t a = 1; a < apps_.size(); ++a) {
      if (cells_[a][0].total_fit > cells_[attack_app_][0].total_fit) {
        attack_app_ = a;
      }
    }
  }

  prepared_ = true;
}

struct FleetSimulator::BlockAccum {
  std::vector<std::array<std::uint64_t, kNumFailureCauses>> bin_causes;
  std::array<std::uint64_t, sim::kNumStructures> by_structure{};
  std::uint64_t failed = 0;
  double failure_age_sum = 0.0;
  double perf_time_sum = 0.0;
  double alive_time_sum = 0.0;
  std::uint64_t throttle = 0;
  std::uint64_t migrations = 0;
  std::uint64_t spares = 0;
  std::uint64_t reconfigs = 0;
};

/// What every block reads and nothing per chip changes, computed once per
/// run(). Cells are indexed app * rungs + rung.
struct FleetSimulator::RunTables {
  explicit RunTables(const FleetScenario& sc) : thresholds(sc.lifetime) {}

  ThresholdModel thresholds;
  /// Each cell's fits.by_mechanism(), the FIT estimate's weights.
  std::vector<std::array<double, core::kNumMechanisms>> mech_fit;
  std::vector<drm::OperatingPoint> ladder;  ///< the DVFS controllers' ladder
  /// Whether anything consumes the sensed FIT estimate (a DRM policy or the
  /// monitor). Without a consumer the sensor is never read: it draws from
  /// its own substream, so skipping it moves no other draw.
  bool senses = false;
};

void FleetSimulator::simulate_block(const RunTables& tables,
                                    std::uint64_t first, std::uint64_t count,
                                    BlockAccum* acc) const {
  const auto& sc = scenario_;
  const ThresholdModel& model = tables.thresholds;
  const std::size_t napps = apps_.size();
  const int rungs = static_cast<int>(cells_[0].size());
  const std::size_t ncells = napps * static_cast<std::size_t>(rungs);
  const std::size_t nbins = acc->bin_causes.size();
  const double bin_years = sc.curve_bin_years;
  const double horizon = sc.horizon_years;
  const double budget_damage =
      sc.drm.fit_budget * horizon * kFailuresPerFitYear;

  // Per-chip wear rates of each cell this chip has run, filled on first use:
  // rate_owner[c] names the chip (index + 1) whose row rates[c] holds.
  std::vector<InstanceRow> rates(ncells);
  std::vector<std::uint64_t> rate_owner(ncells, 0);
  FitEstimateMemo est_memo;

  for (std::uint64_t chip = first; chip < first + count; ++chip) {
    const std::uint64_t chip_seed = stream_seed(sc.seed, chip);
    Xoshiro256 var_rng(stream_seed(chip_seed, kStreamVariation));
    Xoshiro256 sched_rng(stream_seed(chip_seed, kStreamSchedule));
    Xoshiro256 thresh_rng(stream_seed(chip_seed, kStreamThresholds));
    Xoshiro256 attack_rng(stream_seed(chip_seed, kStreamAttack));
    Xoshiro256 infant_rng(stream_seed(chip_seed, kStreamInfant));
    drm::ThermalSensor sensor(sc.sensor, stream_seed(chip_seed, kStreamSensor));

    // Process variation: per-mechanism model-constant jitter plus a leakage
    // multiplier that shifts the whole die's temperature.
    std::array<double, core::kNumMechanisms> jitter{};
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      jitter[static_cast<std::size_t>(m)] =
          std::exp(sc.variation.mechanism_sigma * var_rng.normal());
    }
    const double leak_mult =
        std::exp(sc.variation.leakage_sigma * var_rng.normal());
    const double chip_dt = std::clamp(
        (leak_mult - 1.0) * nominal_leak_w_ * chip_delta_t_per_leak_w_, -25.0,
        25.0);

    // Latent-defect (infant) population.
    const bool weak = infant_rng.bernoulli(sc.infant.fraction);
    const double infant_t =
        weak ? sc.infant.eta_years *
                   std::pow(-std::log(1.0 - infant_rng.uniform()),
                            1.0 / sc.infant.beta)
             : std::numeric_limits<double>::infinity();

    // Targeted-attack membership is a per-chip property.
    const bool targeted = sc.kind == ScenarioKind::kAttack &&
                          attack_rng.bernoulli(sc.attack.targeted_fraction);

    // Damage state. Thresholds are drawn for every instance up front (fixed
    // draw count regardless of which cells have zero FIT).
    InstanceRow damage{};
    InstanceRow threshold{};
    const auto draw_threshold = [&](std::size_t i) {
      threshold[i] = model.draw(thresh_rng, mechanism_of(i));
    };
    // A cold spare: fresh structure, zero damage, new thresholds.
    const auto renew_structure = [&](std::size_t s) {
      const std::size_t begin = s * core::kNumMechanisms;
      for (std::size_t i = begin; i < begin + core::kNumMechanisms; ++i) {
        damage[i] = 0.0;
        draw_threshold(i);
      }
    };
    for (std::size_t i = 0; i < kInstances; ++i) draw_threshold(i);
    std::array<int, sim::kNumStructures> spares_left{};
    for (int s = 0; s < sim::kNumStructures; ++s) {
      spares_left[static_cast<std::size_t>(s)] =
          sc.spares.spares[static_cast<std::size_t>(s)];
    }

    // This chip's wear rates on cell c: the cell's FITs under the chip's
    // per-mechanism stress multipliers.
    const auto chip_rates = [&](std::size_t c, const CellPoint& cp)
        -> const InstanceRow& {
      InstanceRow& row = rates[c];
      if (rate_owner[c] == chip + 1) return row;
      rate_owner[c] = chip + 1;
      std::array<double, core::kNumMechanisms> factor{};
      for (std::size_t m = 0; m < factor.size(); ++m) {
        factor[m] = jitter[m] * std::exp(cp.temp_sens[m] * chip_dt);
      }
      for (std::size_t i = 0; i < kStructureInstances; ++i) {
        const std::size_t m = mechanism_of(i);
        row[i] = cp.fits.by_structure[i / core::kNumMechanisms][m] *
                 factor[m] * kFailuresPerFitYear;
      }
      row[kTcInstance] =
          cp.fits.tc_fit * factor[mechanism_of(kTcInstance)] *
          kFailuresPerFitYear;
      return row;
    };

    std::unique_ptr<drm::DrmController> ctrl;
    if (sc.policy == DrmPolicy::kDvfs) {
      ctrl = std::make_unique<drm::DrmController>(sc.drm, tables.ladder);
    }

    int rung = 0;
    bool cooling = false;
    bool reconfigured = false;
    double consumed = 0.0;  // monitor's estimated damage (expected failures)
    double t = 0.0;
    bool alive = true;
    double death_t = 0.0;
    FailureCause cause = FailureCause::kInfant;
    int dead_structure = -1;

    while (alive && t < horizon) {
      const double dt = std::min(sc.phase_years, horizon - t);

      // Workload selection for this phase.
      std::size_t app;
      if (targeted && attack_rng.bernoulli(sc.attack.occupancy)) {
        app = attack_app_;
      } else if (cooling && sc.policy == DrmPolicy::kMigration) {
        // The scheduler offers 4 candidate slots and migrates the job to
        // the coolest (lowest-FIT) one.
        app = sched_rng.below(napps);
        for (int c = 1; c < 4; ++c) {
          const std::size_t cand = sched_rng.below(napps);
          if (cells_[cand][static_cast<std::size_t>(rung)].total_fit <
              cells_[app][static_cast<std::size_t>(rung)].total_fit) {
            app = cand;
          }
        }
        ++acc->migrations;
      } else {
        app = sched_rng.below(napps);
      }
      const CellPoint& cp = cells_[app][static_cast<std::size_t>(rung)];
      const std::size_t cell = app * static_cast<std::size_t>(rungs) +
                               static_cast<std::size_t>(rung);

      // Sensing: the controller sees the sensor, not the true junction.
      const double dt_seconds = dt * kHoursPerYear * kSecondsPerHour;
      double est_fit = 0.0;
      if (tables.senses) {
        const double reading =
            sensor.read(cp.junction_k + chip_dt, dt_seconds);
        est_fit = est_memo.get(cell, reading, [&] {
          const double est_dt = reading - cp.junction_k;
          const auto& mech_fit = tables.mech_fit[cell];
          double fit = 0.0;
          for (std::size_t m = 0; m < mech_fit.size(); ++m) {
            fit += mech_fit[m] * std::exp(cp.temp_sens[m] * est_dt);
          }
          return fit;
        });
      }

      // Wear-out event loop inside the phase: damage accrues linearly at
      // this phase's rates, so the next threshold crossing is analytic.
      const InstanceRow& rate = chip_rates(cell, cp);
      double local_t = 0.0;
      while (alive && local_t < dt) {
        // Pre-filter, branch-free: instance i cannot cross before the phase
        // ends when its threshold lies a relative 1e-9 beyond the damage it
        // could reach. Division and subtraction round monotonically, so the
        // exact test below would find tt >= t_next for every instance
        // dropped here.
        const double phase_left = dt - local_t;
        const double reach = phase_left * (1.0 + 1e-9);
        std::uint32_t live = 0;
        for (std::size_t i = 0; i < kInstances; ++i) {
          live |= static_cast<std::uint32_t>(
                      !(threshold[i] - damage[i] >= rate[i] * reach))
                  << i;
        }

        // The exact search over the survivors, in instance order.
        double t_next = phase_left;
        int ev = -1;
        for (; live != 0; live &= live - 1) {
          const auto i = static_cast<std::size_t>(std::countr_zero(live));
          if (rate[i] <= 0.0) continue;
          const double tt = (threshold[i] - damage[i]) / rate[i];
          if (tt < t_next) {
            t_next = tt;
            ev = static_cast<int>(i);
          }
        }

        for (std::size_t i = 0; i < kInstances; ++i) {
          damage[i] += rate[i] * t_next;
        }
        local_t += t_next;

        if (ev == static_cast<int>(kTcInstance)) {
          alive = false;
          death_t = t + local_t;
          cause = FailureCause::kTc;
        } else if (ev >= 0) {
          const auto si = static_cast<std::size_t>(ev) / core::kNumMechanisms;
          if (spares_left[si] > 0) {
            --spares_left[si];
            ++acc->spares;
            renew_structure(si);
          } else {
            alive = false;
            death_t = t + local_t;
            cause = static_cast<FailureCause>(
                mechanism_of(static_cast<std::size_t>(ev)) + 1);
            dead_structure = static_cast<int>(si);
          }
        }
      }

      // Infant mortality preempts any wear-out event after it.
      if (infant_t <= (alive ? t + dt : death_t)) {
        alive = false;
        death_t = infant_t;
        cause = FailureCause::kInfant;
        dead_structure = -1;
      }

      const double alive_dt = (alive ? dt : std::max(0.0, death_t - t));
      acc->perf_time_sum += cp.relative_performance * alive_dt;
      acc->alive_time_sum += alive_dt;

      if (alive) {
        // End-of-phase policy response, driven by the *estimated* FIT.
        if (sc.policy == DrmPolicy::kDvfs) {
          rung = ctrl->update(est_fit, dt_seconds).point_index;
        } else if (sc.policy == DrmPolicy::kMigration) {
          cooling = est_fit > sc.drm.fit_budget * (1.0 + sc.drm.headroom);
        }
        if (sc.kind == ScenarioKind::kMonitor) {
          consumed += est_fit * dt * kFailuresPerFitYear;
          if (!reconfigured &&
              consumed >= sc.monitor.threshold * budget_damage) {
            // One-time reconfiguration: deepest throttle plus a switch to
            // every available cold spare (fresh structures).
            reconfigured = true;
            ++acc->reconfigs;
            rung = rungs - 1;
            for (int s = 0; s < sim::kNumStructures; ++s) {
              const auto si = static_cast<std::size_t>(s);
              if (spares_left[si] > 0) {
                --spares_left[si];
                ++acc->spares;
                renew_structure(si);
              }
            }
          }
        }
      }
      t += dt;
    }

    if (ctrl) acc->throttle += ctrl->switches();
    if (!alive) {
      ++acc->failed;
      acc->failure_age_sum += death_t;
      const auto bin = static_cast<std::size_t>(
          std::min(static_cast<double>(nbins - 1), death_t / bin_years));
      ++acc->bin_causes[bin][static_cast<std::size_t>(cause)];
      if (dead_structure >= 0) {
        ++acc->by_structure[static_cast<std::size_t>(dead_structure)];
      }
    }
  }
}

FleetResult FleetSimulator::run() const {
  obs::Span span(obs::Stage::kTotal,
                 "fleet:" + scenario_.name + "@" +
                     std::string(scaling::tech_token(scenario_.tech)));
  prepare();

  const auto nbins = static_cast<std::size_t>(std::ceil(
      scenario_.horizon_years / scenario_.curve_bin_years - 1e-12));
  RAMP_REQUIRE(nbins >= 1, "curve needs at least one bin");

  const std::uint64_t chips = scenario_.chips;
  const std::uint64_t block = opts_.block_size;
  const std::uint64_t nblocks = (chips + block - 1) / block;
  std::vector<BlockAccum> accums(nblocks);
  for (auto& acc : accums) {
    acc.bin_causes.assign(nbins,
                          std::array<std::uint64_t, kNumFailureCauses>{});
  }

  RunTables tables(scenario_);
  const int rungs = static_cast<int>(cells_[0].size());
  for (const auto& app_cells : cells_) {
    for (const CellPoint& cp : app_cells) {
      tables.mech_fit.push_back(cp.fits.by_mechanism());
    }
  }
  if (scenario_.policy == DrmPolicy::kDvfs) {
    tables.ladder = drm::dvfs_ladder(scaling::node(scenario_.tech), rungs);
  }
  tables.senses = scenario_.policy != DrmPolicy::kNone ||
                  scenario_.kind == ScenarioKind::kMonitor;

  const auto run_block = [&](std::uint64_t b) {
    const std::uint64_t first = b * block;
    simulate_block(tables, first, std::min(block, chips - first), &accums[b]);
  };

  // Chips are sharded into fixed blocks; block results are merged in block
  // order below, so the curve is byte-identical at any job count.
  if (pool_ != nullptr) {
    std::vector<std::future<void>> futures;
    futures.reserve(nblocks);
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      futures.push_back(pool_->submit([&run_block, b] { run_block(b); }));
    }
    for (auto& f : futures) f.get();
  } else {
    for (std::uint64_t b = 0; b < nblocks; ++b) run_block(b);
  }

  FleetResult result;
  result.scenario = scenario_;
  result.summary.chips = chips;

  std::vector<std::array<std::uint64_t, kNumFailureCauses>> bins(
      nbins, std::array<std::uint64_t, kNumFailureCauses>{});
  double perf_time = 0.0;
  double alive_time = 0.0;
  for (const auto& acc : accums) {
    for (std::size_t i = 0; i < nbins; ++i) {
      for (int c = 0; c < kNumFailureCauses; ++c) {
        bins[i][static_cast<std::size_t>(c)] +=
            acc.bin_causes[i][static_cast<std::size_t>(c)];
      }
    }
    for (int s = 0; s < sim::kNumStructures; ++s) {
      result.summary.failures_by_structure[static_cast<std::size_t>(s)] +=
          acc.by_structure[static_cast<std::size_t>(s)];
    }
    result.summary.failed += acc.failed;
    result.summary.throttle_switches += acc.throttle;
    result.summary.migrations += acc.migrations;
    result.summary.spare_activations += acc.spares;
    result.summary.monitor_reconfigs += acc.reconfigs;
    result.summary.mean_failure_age_years += acc.failure_age_sum;
    perf_time += acc.perf_time_sum;
    alive_time += acc.alive_time_sum;
  }
  if (result.summary.failed > 0) {
    result.summary.mean_failure_age_years /=
        static_cast<double>(result.summary.failed);
  }
  result.summary.avg_relative_performance =
      alive_time > 0.0 ? perf_time / alive_time : 1.0;

  result.curve.reserve(nbins);
  std::uint64_t survivors = chips;
  for (std::size_t i = 0; i < nbins; ++i) {
    FleetCurvePoint pt;
    const double bin_start =
        static_cast<double>(i) * scenario_.curve_bin_years;
    const double width =
        std::min(scenario_.curve_bin_years, scenario_.horizon_years - bin_start);
    pt.t_end_years = bin_start + width;
    pt.by_cause = bins[i];
    for (int c = 0; c < kNumFailureCauses; ++c) {
      pt.failures += bins[i][static_cast<std::size_t>(c)];
      result.summary.failures_by_cause[static_cast<std::size_t>(c)] +=
          bins[i][static_cast<std::size_t>(c)];
    }
    pt.hazard_per_year =
        survivors > 0
            ? static_cast<double>(pt.failures) /
                  (static_cast<double>(survivors) * width)
            : 0.0;
    survivors -= pt.failures;
    pt.survivors = survivors;
    pt.survival = static_cast<double>(survivors) / static_cast<double>(chips);
    result.curve.push_back(pt);
  }
  result.summary.survival_at_horizon = result.curve.back().survival;

  auto& reg = opts_.registry != nullptr ? *opts_.registry
                                        : obs::MetricsRegistry::global();
  reg.counter("ramp_fleet_chips_total").inc(chips);
  reg.counter("ramp_fleet_failures_total").inc(result.summary.failed);
  reg.counter("ramp_fleet_spare_activations_total")
      .inc(result.summary.spare_activations);
  reg.counter("ramp_fleet_migrations_total").inc(result.summary.migrations);
  reg.counter("ramp_fleet_throttle_switches_total")
      .inc(result.summary.throttle_switches);
  reg.counter("ramp_fleet_monitor_reconfigs_total")
      .inc(result.summary.monitor_reconfigs);

  return result;
}

// ---- deterministic exports -------------------------------------------------

namespace {

std::string scenario_echo(const FleetScenario& sc) {
  std::string out = "# scenario=" + sc.name;
  out += " kind=" + std::string(kind_name(sc.kind));
  out += " chips=" + std::to_string(sc.chips);
  out += " node=" + std::string(scaling::tech_token(sc.tech));
  out += " policy=" + std::string(policy_name(sc.policy));
  out += " seed=" + std::to_string(sc.seed);
  out += " years=" + g17(sc.horizon_years);
  out += " phase=" + g17(sc.phase_years);
  out += " bin=" + g17(sc.curve_bin_years);
  out += " ladder=" + std::to_string(sc.ladder_points);
  out += " spares=" + std::to_string(sc.spares.total());
  out += "\n";
  return out;
}

}  // namespace

std::string fleet_curve_csv(const FleetResult& r) {
  std::string out = "# ramp_fleet v1\n";
  out += scenario_echo(r.scenario);
  out +=
      "t_end_years,failures,survivors,survival,hazard_per_year,infant,em,sm,"
      "tddb,tc\n";
  for (const auto& pt : r.curve) {
    out += g17(pt.t_end_years);
    out += ',';
    out += std::to_string(pt.failures);
    out += ',';
    out += std::to_string(pt.survivors);
    out += ',';
    out += g17(pt.survival);
    out += ',';
    out += g17(pt.hazard_per_year);
    for (int c = 0; c < kNumFailureCauses; ++c) {
      out += ',';
      out += std::to_string(pt.by_cause[static_cast<std::size_t>(c)]);
    }
    out += '\n';
  }
  return out;
}

std::string fleet_ndjson(const FleetResult& r) {
  const auto& s = r.summary;
  std::string out = "{\"type\":\"summary\"";
  out += ",\"scenario\":\"" + r.scenario.name + "\"";
  out += ",\"kind\":\"" + std::string(kind_name(r.scenario.kind)) + "\"";
  out += ",\"policy\":\"" + std::string(policy_name(r.scenario.policy)) + "\"";
  out += ",\"node\":\"" +
         std::string(scaling::tech_token(r.scenario.tech)) + "\"";
  out += ",\"seed\":" + std::to_string(r.scenario.seed);
  out += ",\"chips\":" + std::to_string(s.chips);
  out += ",\"failed\":" + std::to_string(s.failed);
  out += ",\"survival_at_horizon\":" + g17(s.survival_at_horizon);
  out += ",\"mean_failure_age_years\":" + g17(s.mean_failure_age_years);
  out += ",\"avg_relative_performance\":" + g17(s.avg_relative_performance);
  out += ",\"throttle_switches\":" + std::to_string(s.throttle_switches);
  out += ",\"migrations\":" + std::to_string(s.migrations);
  out += ",\"spare_activations\":" + std::to_string(s.spare_activations);
  out += ",\"monitor_reconfigs\":" + std::to_string(s.monitor_reconfigs);
  out += ",\"failures_by_cause\":{";
  for (int c = 0; c < kNumFailureCauses; ++c) {
    if (c > 0) out += ",";
    out += "\"" + std::string(cause_name(static_cast<FailureCause>(c))) +
           "\":" +
           std::to_string(s.failures_by_cause[static_cast<std::size_t>(c)]);
  }
  out += "},\"failures_by_structure\":{";
  for (int st = 0; st < sim::kNumStructures; ++st) {
    if (st > 0) out += ",";
    out += "\"" +
           std::string(
               sim::structure_name(static_cast<sim::StructureId>(st))) +
           "\":" +
           std::to_string(
               s.failures_by_structure[static_cast<std::size_t>(st)]);
  }
  out += "}}\n";

  for (const auto& pt : r.curve) {
    out += "{\"type\":\"bin\",\"t_end_years\":" + g17(pt.t_end_years);
    out += ",\"failures\":" + std::to_string(pt.failures);
    out += ",\"survivors\":" + std::to_string(pt.survivors);
    out += ",\"survival\":" + g17(pt.survival);
    out += ",\"hazard_per_year\":" + g17(pt.hazard_per_year);
    out += ",\"by_cause\":{";
    for (int c = 0; c < kNumFailureCauses; ++c) {
      if (c > 0) out += ",";
      out += "\"" + std::string(cause_name(static_cast<FailureCause>(c))) +
             "\":" + std::to_string(pt.by_cause[static_cast<std::size_t>(c)]);
    }
    out += "}}\n";
  }
  return out;
}

std::string fleet_ab_csv(const FleetResult& a, const FleetResult& b) {
  RAMP_REQUIRE(a.curve.size() == b.curve.size(),
               "A/B runs must share the curve binning");
  std::string out = "# ramp_fleet_ab v1\n";
  out += "# a: policy=" + std::string(policy_name(a.scenario.policy)) +
         " b: policy=" + std::string(policy_name(b.scenario.policy)) +
         " scenario=" + a.scenario.name +
         " seed=" + std::to_string(a.scenario.seed) + "\n";
  out +=
      "t_end_years,survival_a,survival_b,delta_survival,hazard_a,hazard_b,"
      "delta_hazard\n";
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    const auto& pa = a.curve[i];
    const auto& pb = b.curve[i];
    RAMP_REQUIRE(pa.t_end_years == pb.t_end_years,
                 "A/B runs must share the curve binning");
    out += g17(pa.t_end_years);
    out += "," + g17(pa.survival);
    out += "," + g17(pb.survival);
    out += "," + g17(pb.survival - pa.survival);
    out += "," + g17(pa.hazard_per_year);
    out += "," + g17(pb.hazard_per_year);
    out += "," + g17(pb.hazard_per_year - pa.hazard_per_year);
    out += "\n";
  }
  return out;
}

}  // namespace ramp::fleet
