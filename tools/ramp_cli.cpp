// ramp — command-line front end to the library.
//
// Subcommands:
//   ramp list                         list workloads and technology nodes
//   ramp evaluate <app> <node> [...]  run one (workload, node) cell
//   ramp sweep [--trace-len N] [--jobs N]    full 16-app x 5-node sweep
//   ramp report [--trace-len N] [--jobs N]   markdown report of a sweep
//   ramp serve [--jobs N] [...]       NDJSON evaluation service on stdin/stdout
//   ramp fleet [--chips N] [...]      fleet-scale population scenario
//   ramp simcheck [...]               fast-sim vs detailed differential check
//   ramp trace <app> <file> [N]       capture a synthetic trace to a file
//
// Node names accept "180", "130", "90", "65-0.9", "65-1.0".
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/qualification.hpp"
#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/mission.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "serve/eval_service.hpp"
#include "serve/server.hpp"
#include "sim/core_config.hpp"
#include "sim/ooo_core.hpp"
#include "sim/sampled_core.hpp"
#include "sim/sim_mode.hpp"
#include "trace/synthetic_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/constants.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ramp;

scaling::TechPoint parse_node(const std::string& name) {
  return scaling::parse_tech(name);
}

std::uint64_t flag_u64(std::vector<std::string>& args, const std::string& flag,
                       std::uint64_t fallback) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag && std::next(it) != args.end()) {
      const std::uint64_t v = parse_u64(*std::next(it), "flag " + flag);
      args.erase(it, it + 2);
      return v;
    }
  }
  return fallback;
}

std::string flag_str(std::vector<std::string>& args, const std::string& flag,
                     std::string fallback) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag && std::next(it) != args.end()) {
      std::string v = *std::next(it);
      args.erase(it, it + 2);
      return v;
    }
  }
  return fallback;
}

double flag_double(std::vector<std::string>& args, const std::string& flag,
                   double fallback) {
  const std::string s = flag_str(args, flag, "");
  if (s.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  RAMP_REQUIRE(end != nullptr && *end == '\0' && end != s.c_str() &&
                   std::isfinite(v),
               "flag " + flag + " expects a finite number, got '" + s + "'");
  return v;
}

// --sim-mode detailed|sampled|auto (strict parse; throws on junk). Call it
// after --trace-len: an explicit sampled mode (flag or RAMP_SIM_MODE) on a
// trace too short for the estimator's tolerance contract still runs, but
// says so on stderr.
void flag_sim_mode(std::vector<std::string>& args,
                   pipeline::EvaluationConfig& cfg) {
  if (const std::string m = flag_str(args, "--sim-mode", ""); !m.empty()) {
    cfg.sim_mode = sim::parse_sim_mode(m);
  }
  if (cfg.sim_mode == sim::SimMode::kSampled &&
      cfg.trace_instructions < pipeline::kSampledContractInstructions) {
    std::fprintf(stderr,
                 "warning: sampled sim mode at %llu instructions is below "
                 "the %llu where its +/-2%% IPC contract holds\n",
                 static_cast<unsigned long long>(cfg.trace_instructions),
                 static_cast<unsigned long long>(
                     pipeline::kSampledContractInstructions));
  }
}

bool flag_present(std::vector<std::string>& args, const std::string& flag) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return false;
  args.erase(it);
  return true;
}

// --NAME / --NAME=VALUE: nullopt when absent; "" for the bare form (use the
// default destination). Shared by --metrics and --timeline.
std::optional<std::string> flag_opt_value(std::vector<std::string>& args,
                                          const std::string& flag) {
  const std::string eq = flag + "=";
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == flag) {
      args.erase(it);
      return std::string();
    }
    if (it->rfind(eq, 0) == 0) {
      std::string value = it->substr(eq.size());
      args.erase(it);
      return value;
    }
  }
  return std::nullopt;
}

std::optional<std::string> flag_metrics(std::vector<std::string>& args) {
  return flag_opt_value(args, "--metrics");
}

// --trace-out FILE / --trace-out=FILE; "" when absent.
std::string flag_trace_out(std::vector<std::string>& args) {
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (it->rfind("--trace-out=", 0) == 0) {
      std::string path = it->substr(std::strlen("--trace-out="));
      args.erase(it);
      return path;
    }
  }
  return flag_str(args, "--trace-out", "");
}

// Dump-on-exit for the sweep-based subcommands: one snapshot of the global
// registry + stage profile, written to `request` (the --metrics value),
// falling back to RAMP_METRICS_PATH and then stderr. Prometheus text unless
// the destination ends in ".json" (see obs::write_metrics_file).
void dump_metrics(const std::optional<std::string>& request) {
  if (!request) return;
  const std::string path =
      !request->empty() ? *request
                        : env_string("RAMP_METRICS_PATH").value_or("");
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::StageProfile profile = obs::Profiler::global().snapshot();
  if (path.empty()) {
    std::fputs(obs::to_prometheus(snap, &profile).c_str(), stderr);
  } else {
    obs::write_metrics_file(path, snap, &profile);
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
  }
}

// One pool for the whole process, sized on first use, so the sweep/report/
// missions subcommands (and any future multi-sweep command) share workers
// instead of spinning up a pool per sweep.
ThreadPool& shared_pool(std::size_t jobs) {
  static std::unique_ptr<ThreadPool> pool;
  if (!pool) pool = std::make_unique<ThreadPool>(jobs);
  return *pool;
}

// The flight-recorder/metrics switches of one sweep-based invocation, as
// resolved from flags with environment fallbacks (RAMP_METRICS_PATH,
// RAMP_TIMELINE, RAMP_TRACE_OUT).
struct ObsFlags {
  std::optional<std::string> metrics;   ///< --metrics[=FILE]
  std::optional<std::string> timeline;  ///< --timeline[=DIR]; "" = default dir
  std::string trace_out;                ///< --trace-out FILE; "" = disabled
  std::string out_dir;
};

// Shared front half of the sweep-based subcommands: environment config with
// --trace-len / --jobs / --out-dir overrides, stderr progress, pooled
// execution. RAMP_JOBS sets the default worker count, like the benches.
pipeline::SweepResult cli_sweep(std::vector<std::string>& args, ObsFlags& fl) {
  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/200'000);
  cfg.trace_instructions = flag_u64(args, "--trace-len", cfg.trace_instructions);
  flag_sim_mode(args, cfg);
  const std::size_t default_jobs =
      env_jobs("RAMP_JOBS", std::max(1u, std::thread::hardware_concurrency()));
  const auto jobs =
      static_cast<std::size_t>(flag_u64(args, "--jobs", default_jobs));
  RAMP_REQUIRE(jobs > 0, "--jobs must be at least 1");

  fl.metrics = flag_metrics(args);
  fl.timeline = flag_opt_value(args, "--timeline");
  fl.trace_out = flag_trace_out(args);
  fl.out_dir = flag_str(args, "--out-dir", output_dir());
  // Environment fallbacks: RAMP_TIMELINE[=DIR] / RAMP_TRACE_OUT behave like
  // the flags when those are absent.
  if (!fl.timeline && cfg.timeline_enabled) fl.timeline = cfg.timeline_dir;
  cfg.timeline_enabled = fl.timeline.has_value();
  if (fl.trace_out.empty()) fl.trace_out = cfg.trace_out;
  if (!fl.trace_out.empty()) obs::Profiler::global().enable_trace();

  static pipeline::StderrProgress progress;
  pipeline::SweepRunner::Options opts;
  opts.cache_path =
      (std::filesystem::path(fl.out_dir) / "ramp_sweep_cache.csv").string();
  opts.observer = &progress;
  opts.pool = &shared_pool(jobs);
  // The store persists under <out-dir>/stage_cache unless --stage-cache /
  // RAMP_STAGE_CACHE say otherwise (see pipeline::stage_cache_dir).
  cfg.stage_cache_dir = pipeline::stage_cache_dir(
      fl.out_dir, flag_opt_value(args, "--stage-cache"), true);
  return pipeline::SweepRunner(cfg, opts).run();
}

// Dump-on-exit back half: metrics snapshot, per-cell timeline CSV/NDJSON +
// incident log, and the Chrome trace file.
void dump_obs(const ObsFlags& fl, const pipeline::SweepResult& sweep) {
  dump_metrics(fl.metrics);

  if (fl.timeline) {
    namespace fs = std::filesystem;
    const std::string dir =
        fl.timeline->empty() ? (fs::path(fl.out_dir) / "timeline").string()
                             : *fl.timeline;
    std::size_t cells = 0;
    std::size_t incidents = 0;
    std::string incident_body;
    for (const auto& r : sweep.results) {
      if (r.timeline.empty()) continue;
      ++cells;
      const std::string stem =
          (fs::path(dir) / obs::timeline_file_stem(r.timeline.cell)).string();
      obs::write_text_file_atomic(stem + ".csv",
                                  obs::timeline_to_csv(r.timeline));
      obs::write_text_file_atomic(stem + ".ndjson",
                                  obs::timeline_to_ndjson(r.timeline));
      for (const auto& inc : r.incidents) {
        ++incidents;
        incident_body += obs::incident_to_json(inc);
        incident_body += '\n';
      }
    }
    // Always published (possibly empty): consumers can watch one file.
    obs::write_text_file_atomic(
        (fs::path(dir) / "incidents.ndjson").string(), incident_body);
    std::fprintf(stderr,
                 "timelines for %zu cell(s), %zu incident(s), written to %s\n",
                 cells, incidents, dir.c_str());
  }

  if (!fl.trace_out.empty()) {
    if (!obs::Profiler::global().enabled()) {
      std::fprintf(stderr,
                   "--trace-out ignored: RAMP_METRICS=off disables the "
                   "profiler\n");
    } else {
      obs::write_trace_file(fl.trace_out,
                            obs::Profiler::global().trace_snapshot());
      std::fprintf(stderr, "trace written to %s\n", fl.trace_out.c_str());
    }
  }
}

int cmd_list() {
  TextTable apps("Workloads (SPEC2K, Table 3)");
  apps.set_header({"name", "suite", "IPC (paper)", "power W (paper)"});
  for (const auto& w : workloads::spec2k_suite()) {
    apps.add_row({w.name, workloads::suite_name(w.suite), fmt(w.table3_ipc, 2),
                  fmt(w.table3_power_w, 2)});
  }
  std::printf("%s\n", apps.str().c_str());

  TextTable nodes("Technology nodes (Table 4)");
  nodes.set_header({"name", "Vdd", "GHz", "tox A", "rel area"});
  for (const auto& n : scaling::standard_nodes()) {
    nodes.add_row({n.name, fmt(n.vdd, 1), fmt(n.frequency_hz / 1e9, 2),
                   fmt(n.tox_nm * 10, 0), fmt(n.relative_area, 2)});
  }
  std::printf("%s", nodes.str().c_str());
  return 0;
}

int cmd_evaluate(std::vector<std::string> args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "usage: ramp evaluate <app> <node> [--trace-len N]\n");
    return 2;
  }
  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/200'000);
  cfg.trace_instructions = flag_u64(args, "--trace-len", cfg.trace_instructions);
  flag_sim_mode(args, cfg);
  const std::string out_dir = flag_str(args, "--out-dir", output_dir());
  // Uncached unless --stage-cache / RAMP_STAGE_CACHE name a store.
  const pipeline::StageStore::Options so{
      .dir = pipeline::stage_cache_dir(
          out_dir, flag_opt_value(args, "--stage-cache"), false)};
  const auto& w = workloads::workload(args[0]);
  const auto node = parse_node(args[1]);

  const pipeline::Evaluator ev(
      cfg,
      so.dir.empty() ? nullptr : std::make_shared<pipeline::StageStore>(so));
  const auto base = ev.evaluate(w, scaling::TechPoint::k180nm);
  const auto r = node == scaling::TechPoint::k180nm
                     ? base
                     : ev.evaluate(w, node, base.sink_temp_k);
  const auto k = core::qualify({base.raw_fits});
  const auto fits = pipeline::scale_summary(r.raw_fits, k);

  std::printf("%s @ %s\n", w.name.c_str(),
              std::string(scaling::tech_name(node)).c_str());
  std::printf("  IPC               %.2f\n", r.ipc);
  std::printf("  power             %.1f W (dyn %.1f + leak %.1f)\n",
              r.avg_total_power_w, r.avg_dynamic_power_w,
              r.avg_leakage_power_w);
  std::printf("  hottest structure %.1f K (sink %.1f K)\n",
              r.max_structure_temp_k, r.sink_temp_k);
  const auto mech = fits.by_mechanism();
  std::printf("  FIT               EM %.0f, SM %.0f, TDDB %.0f, TC %.0f\n",
              mech[0], mech[1], mech[2], mech[3]);
  std::printf("  total             %.0f FIT  (MTTF %.1f years)\n",
              fits.total(), fits.mttf_years());
  return 0;
}

int cmd_sweep(std::vector<std::string> args, bool markdown) {
  ObsFlags fl;
  const auto sweep = cli_sweep(args, fl);

  if (!markdown) {
    TextTable table("Qualified total FIT (sweep)");
    std::vector<std::string> header = {"app"};
    for (const auto tp : scaling::kAllTechPoints) {
      header.push_back(std::string(scaling::tech_name(tp)));
    }
    table.set_header(header);
    for (const auto& w : workloads::spec2k_suite()) {
      std::vector<std::string> row = {w.name};
      for (const auto tp : scaling::kAllTechPoints) {
        row.push_back(fmt(sweep.qualified_fits(sweep.at(w.name, tp)).total(), 0));
      }
      table.add_row(row);
    }
    std::printf("%s", table.str().c_str());
    dump_obs(fl, sweep);
    return 0;
  }

  // Markdown report.
  std::printf("# RAMP scaling report\n\n");
  std::printf("Qualification: 180 nm suite average = 4000 FIT (30-year MTTF).\n\n");
  std::printf("| node | avg FIT | vs 180nm | avg MTTF (y) | hottest app |\n");
  std::printf("|---|---|---|---|---|\n");
  const double base = sweep.average_total_fit_all(scaling::TechPoint::k180nm);
  for (const auto tp : scaling::kAllTechPoints) {
    const double avg = sweep.average_total_fit_all(tp);
    std::string hottest;
    double max_t = 0;
    for (const auto& r : sweep.results) {
      if (r.tech == tp && r.max_structure_temp_k > max_t) {
        max_t = r.max_structure_temp_k;
        hottest = r.app;
      }
    }
    std::printf("| %s | %.0f | %s | %.1f | %s (%.1f K) |\n",
                std::string(scaling::tech_name(tp)).c_str(), avg,
                fmt_pct_change(avg / base).c_str(), mttf_years_from_fit(avg),
                hottest.c_str(), max_t);
  }
  std::printf("\n## Mechanism breakdown (suite average)\n\n");
  std::printf("| node | EM | SM | TDDB | TC |\n|---|---|---|---|---|\n");
  for (const auto tp : scaling::kAllTechPoints) {
    std::printf("| %s |", std::string(scaling::tech_name(tp)).c_str());
    for (int m = 0; m < core::kNumMechanisms; ++m) {
      const double fp = sweep.average_mechanism_fit(
          workloads::Suite::kSpecFp, tp, static_cast<core::Mechanism>(m));
      const double in = sweep.average_mechanism_fit(
          workloads::Suite::kSpecInt, tp, static_cast<core::Mechanism>(m));
      std::printf(" %.0f |", (fp + in) / 2.0);
    }
    std::printf("\n");
  }
  dump_obs(fl, sweep);
  return 0;
}

int cmd_missions(std::vector<std::string> args) {
  ObsFlags fl;
  const auto sweep = cli_sweep(args, fl);
  TextTable table("Example deployment missions, MTTF (years) per node");
  std::vector<std::string> header = {"mission"};
  for (const auto tp : scaling::kAllTechPoints) {
    header.push_back(std::string(scaling::tech_name(tp)));
  }
  table.set_header(header);
  for (const auto& mission : pipeline::example_missions()) {
    std::vector<std::string> row = {mission.name};
    for (const auto tp : scaling::kAllTechPoints) {
      row.push_back(
          fmt(pipeline::evaluate_mission(sweep, tp, mission).mttf_years(), 1));
    }
    table.add_row(row);
  }
  std::printf("%s", table.str().c_str());
  dump_obs(fl, sweep);
  return 0;
}

// `--listen ADDR:PORT` for the TCP mode ("ADDR:0" binds an ephemeral
// port); PORT alone means 127.0.0.1:PORT.
void parse_listen(const std::string& listen, std::string* host,
                  std::uint16_t* port) {
  const std::size_t colon = listen.rfind(':');
  std::string port_str = listen;
  if (colon != std::string::npos) {
    *host = listen.substr(0, colon);
    port_str = listen.substr(colon + 1);
  }
  const std::uint64_t p = parse_u64(port_str, "--listen port");
  RAMP_REQUIRE(p <= 65535, "--listen port out of range");
  *port = static_cast<std::uint16_t>(p);
}

// The bound port, written atomically so a launcher polling for the file
// never reads a partial line.
void write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return;
  obs::write_text_file_atomic(path, std::to_string(port) + "\n");
}

// NDJSON evaluation service: one request per line, one response per line
// (`eval`, `timeline`, `fleet`, `stats`, `metrics`, `metrics_reset`,
// `health`, `trace_dump`, `shutdown`). Default transport is stdin/stdout;
// `--listen ADDR:PORT` serves many concurrent TCP clients from one epoll
// loop. External drivers (sweeps, DRM loops, RPC shims, loadgens) stream
// queries against warm processes instead of paying pipeline startup per FIT
// estimate.
int cmd_serve(std::vector<std::string> args) {
  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/200'000);
  cfg.trace_instructions = flag_u64(args, "--trace-len", cfg.trace_instructions);
  flag_sim_mode(args, cfg);
  const std::size_t default_jobs =
      env_jobs("RAMP_JOBS", std::max(1u, std::thread::hardware_concurrency()));

  const auto jobs =
      static_cast<std::size_t>(flag_u64(args, "--jobs", default_jobs));
  const auto cache_capacity =
      static_cast<std::size_t>(flag_u64(args, "--cache-capacity", 512));
  const auto max_pending =
      static_cast<std::size_t>(flag_u64(args, "--max-queue", 128));
  const std::string out_dir = flag_str(args, "--out-dir", output_dir());
  const bool no_persist = flag_present(args, "--no-persist");
  const std::string listen = flag_str(args, "--listen", "");
  const std::string port_file = flag_str(args, "--port-file", "");
  const auto max_conns =
      static_cast<std::size_t>(flag_u64(args, "--max-conns", 256));
  const auto max_queued =
      static_cast<std::size_t>(flag_u64(args, "--max-queued", 1024));
  const std::string stage_dir = pipeline::stage_cache_dir(
      out_dir, flag_opt_value(args, "--stage-cache"), true);
  const bool request_trace = flag_present(args, "--request-trace");
  const std::optional<std::string> slow_log_flag =
      flag_opt_value(args, "--slow-log");
  const double slow_ms = flag_double(args, "--slow-ms", 10.0);
  std::string trace_out = flag_trace_out(args);
  if (trace_out.empty()) trace_out = cfg.trace_out;
  if (!trace_out.empty()) obs::Profiler::global().enable_trace();
  if (!args.empty()) {
    std::fprintf(stderr, "serve: unknown argument '%s'\n", args.front().c_str());
    return 2;
  }
  RAMP_REQUIRE(slow_ms >= 0.0, "--slow-ms must be non-negative");

  // --slow-log[=FILE]: bare form lands next to the other serve artifacts.
  std::string slow_log_path;
  if (slow_log_flag) {
    slow_log_path = *slow_log_flag;
    if (slow_log_path.empty()) {
      std::filesystem::create_directories(out_dir);
      slow_log_path =
          (std::filesystem::path(out_dir) / "serve_slow.ndjson").string();
    }
  }

  // A client dying mid-stream must be a clean shutdown, not a SIGPIPE
  // kill; SIGINT/SIGTERM request a graceful drain (answer everything
  // accepted, flush, exit 0).
  serve::ignore_sigpipe();
  volatile std::sig_atomic_t* drain = serve::install_drain_handlers();

  serve::EvalService::Options opts;
  opts.jobs = jobs;
  opts.cache_capacity = cache_capacity;
  opts.max_pending = max_pending;
  cfg.stage_cache_dir = no_persist ? "" : stage_dir;
  const std::string persist =
      cfg.stage_cache_dir.empty() ? "off" : cfg.stage_cache_dir;

  int rc = 0;
  if (listen.empty()) {
    // stdio mode.
    serve::EvalService service(cfg, opts);
    std::fprintf(stderr,
                 "ramp serve: %zu worker(s), cache %zu results, persist %s\n",
                 opts.jobs, opts.cache_capacity, persist.c_str());
    serve::StdioOptions sopts;
    sopts.drain_flag = drain;
    sopts.request_trace = request_trace;
    sopts.slow_log_path = slow_log_path;
    sopts.slow_ms = slow_ms;
    rc = serve::serve_stdio(service, sopts);
  } else {
    // TCP mode.
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    parse_listen(listen, &host, &port);
    serve::EvalService service(cfg, opts);
    net::ServerOptions sopts;
    sopts.host = host;
    sopts.port = port;
    sopts.max_connections = max_conns;
    sopts.max_queued_requests = max_queued;
    sopts.drain_flag = drain;
    sopts.request_trace = request_trace;
    sopts.slow_log_path = slow_log_path;
    sopts.slow_ms = slow_ms;
    net::Server server(service, sopts);
    write_port_file(port_file, server.port());
    std::fprintf(stderr,
                 "ramp serve: listening on %s:%u, %zu worker(s), cache %zu "
                 "results, persist %s\n",
                 host.c_str(), server.port(), opts.jobs, opts.cache_capacity,
                 persist.c_str());
    rc = server.run();
  }

  if (!trace_out.empty() && obs::Profiler::global().enabled()) {
    obs::write_trace_file(trace_out, obs::Profiler::global().trace_snapshot());
    std::fprintf(stderr, "trace written to %s\n", trace_out.c_str());
  }
  return rc;
}

// Fleet-scale population scenario: N chips over a multi-decade horizon,
// with per-chip process variation, workload schedules, DRM policies, and
// optional redundancy. Scenario defaults come from the preset and the
// RAMP_FLEET_* environment; flags override both. stdout carries the
// deterministic curve CSV (byte-identical at any --jobs and across reruns
// with one --seed); fleet_curve.csv and fleet.ndjson land in --out-dir.
int cmd_fleet(std::vector<std::string> args) {
  std::string scenario_name = flag_str(args, "--scenario", "");
  // Also accepted positionally: `ramp fleet attack --chips N`.
  if (scenario_name.empty() && !args.empty() &&
      args.front().rfind("--", 0) != 0) {
    scenario_name = args.front();
    args.erase(args.begin());
  }
  fleet::FleetScenario sc =
      fleet::FleetScenario::from_env(scenario_name, /*trace_len=*/200'000);
  sc.chips = flag_u64(args, "--chips", sc.chips);
  sc.seed = flag_u64(args, "--seed", sc.seed);
  sc.horizon_years = flag_double(args, "--years", sc.horizon_years);
  sc.phase_years = flag_double(args, "--phase", sc.phase_years);
  sc.curve_bin_years = flag_double(args, "--bin", sc.curve_bin_years);
  sc.ladder_points = static_cast<int>(
      flag_u64(args, "--ladder", static_cast<std::uint64_t>(sc.ladder_points)));
  if (const std::string node = flag_str(args, "--node", ""); !node.empty()) {
    sc.tech = parse_node(node);
  }
  if (const std::string policy = flag_str(args, "--policy", "");
      !policy.empty()) {
    sc.policy = fleet::parse_policy(policy);
  }
  if (std::string apps = flag_str(args, "--apps", ""); !apps.empty()) {
    sc.apps.clear();
    std::size_t start = 0;
    while (start <= apps.size()) {
      const std::size_t comma = apps.find(',', start);
      const std::size_t end = comma == std::string::npos ? apps.size() : comma;
      if (end > start) sc.apps.push_back(apps.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  sc.cell.trace_instructions =
      flag_u64(args, "--trace-len", sc.cell.trace_instructions);
  flag_sim_mode(args, sc.cell);

  const std::size_t default_jobs =
      env_jobs("RAMP_JOBS", std::max(1u, std::thread::hardware_concurrency()));
  const auto jobs =
      static_cast<std::size_t>(flag_u64(args, "--jobs", default_jobs));
  RAMP_REQUIRE(jobs > 0, "--jobs must be at least 1");
  const auto metrics = flag_metrics(args);
  const std::string out_dir = flag_str(args, "--out-dir", output_dir());
  const std::string ab_policy = flag_str(args, "--ab", "");

  fleet::FleetSimulator::Options opts;
  sc.cell.stage_cache_dir = pipeline::stage_cache_dir(
      out_dir, flag_opt_value(args, "--stage-cache"), false);
  opts.pool = &shared_pool(jobs);
  if (!args.empty()) {
    std::fprintf(stderr, "fleet: unknown argument '%s'\n", args.front().c_str());
    return 2;
  }
  sc.validate();

  const fleet::FleetSimulator sim(sc, opts);
  const fleet::FleetResult result = sim.run();
  const std::string csv = fleet::fleet_curve_csv(result);
  std::fputs(csv.c_str(), stdout);

  namespace fs = std::filesystem;
  obs::write_text_file_atomic((fs::path(out_dir) / "fleet_curve.csv").string(),
                              csv);
  obs::write_text_file_atomic((fs::path(out_dir) / "fleet.ndjson").string(),
                              fleet::fleet_ndjson(result));

  if (!ab_policy.empty()) {
    // Same scenario, same seed, alternate policy: identical chips see both
    // policies, so the per-bin deltas are pure policy signal.
    fleet::FleetScenario alt = sc;
    alt.policy = fleet::parse_policy(ab_policy);
    const fleet::FleetSimulator sim_b(alt, opts);
    const std::string ab = fleet::fleet_ab_csv(result, sim_b.run());
    std::fputs(ab.c_str(), stdout);
    obs::write_text_file_atomic((fs::path(out_dir) / "fleet_ab.csv").string(),
                                ab);
  }

  std::fprintf(stderr,
               "fleet: %llu chips, %llu failed, survival %.4f, artifacts in "
               "%s\n",
               static_cast<unsigned long long>(result.summary.chips),
               static_cast<unsigned long long>(result.summary.failed),
               result.summary.survival_at_horizon, out_dir.c_str());
  dump_metrics(metrics);
  return 0;
}

// Differential validation of the sampled sim path: every workload runs the
// detailed OooCore and SampledCore over the same synthetic stream, then the
// run-level IPC must agree within --tol-ipc (relative) and every
// structure's average activity within --tol-act (absolute). Prints a
// per-app table and exits nonzero on any violation — this is the tolerance
// contract the cached sampled payloads are sold under, wired into ctest so
// an estimator regression fails the suite.
int cmd_simcheck(std::vector<std::string> args) {
  // 2M instructions: the sampled estimator's tolerance contract holds from
  // ~1M up (enough sampling units for the regression); shorter streams are
  // what `auto` keeps on the detailed core anyway.
  pipeline::EvaluationConfig cfg =
      pipeline::EvaluationConfig::from_env(/*trace_len=*/2'000'000);
  cfg.trace_instructions = flag_u64(args, "--trace-len", cfg.trace_instructions);
  const auto node = parse_node(flag_str(args, "--node", "180"));
  const double tol_ipc = flag_double(args, "--tol-ipc", 0.02);
  const double tol_act = flag_double(args, "--tol-act", 0.02);
  if (!args.empty()) {
    std::fprintf(stderr, "simcheck: unknown argument '%s'\n",
                 args.front().c_str());
    return 2;
  }
  RAMP_REQUIRE(tol_ipc > 0.0 && tol_act > 0.0, "tolerances must be positive");

  const scaling::TechnologyNode& tech = scaling::node(node);
  const sim::CoreConfig core_cfg = sim::core_config_for(tech);
  const auto interval_cycles = static_cast<std::uint64_t>(
      std::llround(core_cfg.frequency_hz * cfg.interval_seconds));

  TextTable table("simcheck @ " + std::string(scaling::tech_name(node)) +
                  ", " + std::to_string(cfg.trace_instructions) +
                  " instructions");
  table.set_header({"app", "IPC det", "IPC est", "dIPC %", "max dAct",
                    "status"});
  int violations = 0;
  for (const auto& w : workloads::spec2k_suite()) {
    const std::uint64_t seed = pipeline::app_trace_seed(cfg.seed, w.name);
    trace::SyntheticTrace det_trace(w.profile, cfg.trace_instructions, seed);
    sim::OooCore det_core(core_cfg);
    const sim::SimResult det = det_core.run(det_trace, interval_cycles);

    trace::SyntheticTrace est_trace(w.profile, cfg.trace_instructions, seed);
    sim::SampledCore est_core(core_cfg, cfg.sampled);
    const sim::SimResult est = est_core.run(est_trace, interval_cycles);

    const double det_ipc = det.totals.ipc();
    const double rel_ipc =
        det_ipc > 0.0 ? std::abs(est.totals.ipc() - det_ipc) / det_ipc : 0.0;
    double max_act = 0.0;
    for (std::size_t s = 0; s < sim::kNumStructures; ++s) {
      max_act = std::max(max_act, std::abs(est.totals.avg_activity[s] -
                                           det.totals.avg_activity[s]));
    }
    const bool ok = rel_ipc <= tol_ipc && max_act <= tol_act;
    if (!ok) ++violations;
    table.add_row({w.name, fmt(det_ipc, 4), fmt(est.totals.ipc(), 4),
                   fmt(rel_ipc * 100.0, 2), fmt(max_act, 4),
                   ok ? "ok" : "FAIL"});
  }
  std::printf("%s\n", table.str().c_str());
  if (violations > 0) {
    std::fprintf(stderr,
                 "simcheck: %d estimate(s) outside tolerance "
                 "(tol-ipc %.3f, tol-act %.3f)\n",
                 violations, tol_ipc, tol_act);
    return 1;
  }
  std::printf("simcheck: all estimates within tolerance "
              "(tol-ipc %.3f, tol-act %.3f)\n",
              tol_ipc, tol_act);
  return 0;
}

int cmd_trace(std::vector<std::string> args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "usage: ramp trace <app> <file> [instructions]\n");
    return 2;
  }
  const auto& w = workloads::workload(args[0]);
  const std::uint64_t n =
      args.size() > 2 ? parse_u64(args[2], "instruction count") : 1'000'000;
  trace::SyntheticTrace gen(w.profile, n, 42);
  trace::TraceWriter writer(args[1]);
  writer.append_all(gen);
  std::printf("wrote %llu instructions of '%s' to %s\n",
              static_cast<unsigned long long>(writer.written()),
              w.name.c_str(), args[1].c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ramp <command>\n"
               "  list                          workloads and nodes\n"
               "  evaluate <app> <node> [...]   one cell (e.g. ramp evaluate gcc 65-1.0)\n"
               "  sweep [--trace-len N] [--jobs N]    full qualified sweep table\n"
               "  report [--trace-len N] [--jobs N]   markdown report of the sweep\n"
               "  missions [--trace-len N] [--jobs N] deployed-lifetime presets\n"
               "  serve [--jobs N] [--cache-capacity N] [--max-queue N]\n"
               "        [--out-dir DIR] [--no-persist] [--trace-out FILE]\n"
               "        [--listen ADDR:PORT] [--port-file FILE]\n"
               "        [--max-conns N] [--max-queued N] [--request-trace]\n"
               "        [--slow-log[=FILE]] [--slow-ms MS]\n"
               "                                NDJSON eval service; stdin/stdout by\n"
               "                                default, TCP with --listen (port 0 =\n"
               "                                ephemeral, reported via --port-file);\n"
               "                                --request-trace traces every request\n"
               "                                (else only \"trace\":true requests),\n"
               "                                --slow-log appends traced requests\n"
               "                                over --slow-ms ms as NDJSON (default\n"
               "                                <out-dir>/serve_slow.ndjson, 10 ms)\n"
               "  fleet [baseline|attack|monitor] [--chips N]\n"
               "        [--years Y] [--phase Y] [--bin Y] [--seed N]\n"
               "        [--node NAME] [--policy none|dvfs|migration]\n"
               "        [--ladder N] [--apps a,b,c] [--ab POLICY] [--jobs N]\n"
               "                                population scenario: survival and\n"
               "                                failure-rate curves on stdout and\n"
               "                                fleet_curve.csv / fleet.ndjson in\n"
               "                                --out-dir (RAMP_FLEET_* env too)\n"
               "  simcheck [--trace-len N] [--node NAME] [--tol-ipc F]\n"
               "        [--tol-act F]\n"
               "                                differential validation of the\n"
               "                                sampled sim path vs detailed on\n"
               "                                every workload; nonzero exit if\n"
               "                                any estimate misses tolerance\n"
               "                                (rel IPC 0.02, 0.02 abs activity)\n"
               "  trace <app> <file> [N]        capture a synthetic trace\n"
               "Sweep-based commands and serve also honor --out-dir (default\n"
               "$RAMP_OUT_DIR or out/) for caches and generated artifacts.\n"
               "sweep/report/missions take --metrics[=FILE] to dump process\n"
               "metrics and the per-stage profile on exit (Prometheus text;\n"
               "NDJSON when FILE ends in .json); RAMP_METRICS=off disables\n"
               "collection.\n"
               "Flight recorder: sweep/report/missions take --timeline[=DIR]\n"
               "to record per-interval physics timelines (CSV + NDJSON per\n"
               "cell, plus incidents.ndjson; default DIR <out-dir>/timeline)\n"
               "and, like serve, --trace-out FILE to write a Chrome\n"
               "trace-event JSON for ui.perfetto.dev. Env equivalents:\n"
               "RAMP_TIMELINE[=DIR], RAMP_TRACE_OUT=FILE.\n"
               "Stage cache: the one result cache; every trace/sim/power/\n"
               "thermal/fit output is memoized under its content-addressed\n"
               "stage key (results are identical, only faster). sweep/report/\n"
               "missions/serve persist it under <out-dir>/stage_cache,\n"
               "evaluate/fleet only with --stage-cache[=DIR]; env equivalent\n"
               "RAMP_STAGE_CACHE=on|off|DIR (off = memory-only). serve\n"
               "--no-persist keeps it in memory; --cache-capacity N (default\n"
               "512) sizes its memory tier to 512 + 5*N entries.\n"
               "Sim mode: evaluate/sweep/report/missions/serve/fleet take\n"
               "--sim-mode detailed|sampled|auto to pick the timing\n"
               "estimator (default detailed; sampled trades <=2%% IPC\n"
               "accuracy for speed, see ramp simcheck). Env equivalents:\n"
               "RAMP_SIM_MODE, RAMP_SIM_PERIOD/WARMUP/MEASURE/WINDOWS.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());
  try {
    if (cmd == "list") return cmd_list();
    if (cmd == "evaluate") return cmd_evaluate(std::move(args));
    if (cmd == "sweep") return cmd_sweep(std::move(args), false);
    if (cmd == "report") return cmd_sweep(std::move(args), true);
    if (cmd == "missions") return cmd_missions(std::move(args));
    if (cmd == "serve") return cmd_serve(std::move(args));
    if (cmd == "fleet") return cmd_fleet(std::move(args));
    if (cmd == "simcheck") return cmd_simcheck(std::move(args));
    if (cmd == "trace") return cmd_trace(std::move(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
