// perfbench_native — the C++ half of the repository benchmark (see
// perfbench/NOTES.md). Every subcommand prints one JSON object on stdout.
//
//   loadgen   --port P --schedule FILE --out FILE [--closed]
//       Drives `ramp serve --listen` over NDJSON/TCP from a schedule file
//       (one request per line: due_us <TAB> connection <TAB> json). Open
//       loop by default: a request is sent when it falls due, whatever is
//       still outstanding, and its latency is taken from the due time.
//       --closed sends a connection's next request only after the previous
//       reply (used for references and the idle round-trip probe). Writes
//       one line per request to --out: index, due, sent and received times
//       in ns from the start of the schedule, then the reply line.
//   fleet     --chips N --seconds S --setups K --jobs J --trace-len L
//             --node NAME --policy P --seed N --cell-seed N [--traced]
//       The in-process fleet workload: K cold FleetSimulator::prepare()
//       calls (the set-up), then FleetSimulator::run() repeated for S
//       seconds (and at least 20 times). --traced adds the same population under policy `none`.
//   fleet-ref --trace-len L --node NAME --cell-seed N
//       Detailed-core IPC and qualified FIT of the cells fleet prepares.
//   probe     --trace-len L --seed N --apps a,b --nodes n1,n2 --dir DIR
//             [--reps R]
//       Times each layer's public functions on the given cells: trace
//       drain, detailed and sampled sim, power, thermal, fit, payload
//       codecs, StageStore memory/disk paths, serve::Json and requests.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "scaling/technology.hpp"
#include "serve/json.hpp"
#include "serve/request.hpp"
#include "trace/synthetic_generator.hpp"
#include "workloads/spec2k.hpp"

namespace {

using ramp::serve::Json;
namespace pipeline = ramp::pipeline;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- arguments --------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + key);
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  std::uint64_t u64(const std::string& key) const {
    return std::stoull(str(key));
  }
  double num(const std::string& key) const { return std::stod(str(key)); }
  bool has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string fnv64_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Json num_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push(Json(x));
  return a;
}

// Spans recorded by the benchmark's own code around calls into a layer.
// Kept in memory; the Python side merges them into the Perfetto file.
struct SpanLog {
  Json spans = Json::array();
  void add(const std::string& name, const std::string& layer,
           std::int64_t start, std::int64_t end, int lane = 0) {
    Json s = Json::object();
    s.set("name", name)
        .set("layer", layer)
        .set("start_ns", static_cast<double>(start))
        .set("end_ns", static_cast<double>(end))
        .set("lane", lane);
    spans.push(std::move(s));
  }
};

// ---- loadgen ----------------------------------------------------------------

struct Request {
  std::int64_t due = 0;  // ns after t0
  std::size_t conn = 0;
  std::string line;
  std::int64_t sent = -1;
  std::int64_t recv = -1;
  std::string reply;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> waiting;  // sent, reply not yet read (in order)
  std::deque<std::size_t> queued;   // closed loop: not yet sent
  bool open = true;
};

int connect_local(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("connect failed: " + std::string(strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

std::vector<Request> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Request> reqs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::runtime_error("bad schedule line: " + line);
    }
    Request r;
    r.due = static_cast<std::int64_t>(std::stoll(line.substr(0, a))) * 1000;
    r.conn = std::stoul(line.substr(a + 1, b - a - 1));
    r.line = line.substr(b + 1) + "\n";
    reqs.push_back(std::move(r));
  }
  return reqs;
}

int cmd_loadgen(const Args& args) {
  const auto port = static_cast<std::uint16_t>(args.u64("port"));
  const bool closed = args.has("closed");
  // Wake at the due time, not up to the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<Request> reqs = read_schedule(args.str("schedule"));
  std::size_t nconn = 1;
  for (const auto& r : reqs) nconn = std::max(nconn, r.conn + 1);

  std::vector<Conn> conns(nconn);
  for (auto& c : conns) c.fd = connect_local(port);
  if (closed) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      conns[reqs[i].conn].queued.push_back(i);
    }
  }

  // Open loop: a 20 ms lead-in, so the first due times are not already late.
  const std::int64_t t0 = now_ns() + (closed ? 0 : 20'000'000);
  std::size_t next = 0;   // open loop: next request to send
  std::size_t done = 0;
  std::int64_t last_progress = now_ns();
  std::vector<pollfd> pfds(nconn);
  char buf[65536];

  const auto send_one = [&](std::size_t i, std::int64_t t) {
    Conn& c = conns[reqs[i].conn];
    reqs[i].sent = t;
    if (!c.open) return;  // counted as failed below
    c.out += reqs[i].line;
    c.waiting.push_back(i);
  };

  while (done < reqs.size()) {
    std::int64_t t = now_ns() - t0;
    if (closed) {
      for (auto& c : conns) {
        if (c.waiting.empty() && !c.queued.empty() && c.open) {
          const std::size_t i = c.queued.front();
          c.queued.pop_front();
          reqs[i].due = t;  // closed loop: due when the previous reply came
          send_one(i, t);
        }
      }
    } else {
      while (next < reqs.size() && reqs[next].due <= t) {
        send_one(next, t);
        if (!conns[reqs[next].conn].open) ++done;
        ++next;
      }
    }
    for (auto& c : conns) {
      while (c.open && c.out_off < c.out.size()) {
        // MSG_NOSIGNAL: a connection the server closed fails its requests
        // instead of killing the generator with SIGPIPE.
        const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
          break;
        } else {
          c.open = false;
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }

    std::int64_t wait_ns = 50'000'000;
    if (!closed && next < reqs.size()) {
      wait_ns = std::max<std::int64_t>(0, reqs[next].due - (now_ns() - t0));
    }
    for (std::size_t k = 0; k < nconn; ++k) {
      pfds[k].fd = conns[k].open ? conns[k].fd : -1;
      pfds[k].events = static_cast<short>(
          POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
      pfds[k].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ppoll(pfds.data(), nconn, &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    t = now_ns() - t0;
    for (std::size_t k = 0; k < nconn; ++k) {
      Conn& c = conns[k];
      if (!c.open || (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = read(c.fd, buf, sizeof buf);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
        c.open = false;  // EOF or error: outstanding requests fail
        break;
      }
      std::size_t pos = 0;
      for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        if (c.waiting.empty()) continue;  // unsolicited line
        const std::size_t i = c.waiting.front();
        c.waiting.pop_front();
        reqs[i].recv = t;
        reqs[i].reply = c.in.substr(pos, nl - pos);
        ++done;
        last_progress = now_ns();
      }
      c.in.erase(0, pos);
      if (!c.open) {
        done += c.waiting.size() + c.queued.size();
        c.waiting.clear();
        c.queued.clear();
      }
    }
    if (now_ns() - last_progress > 120'000'000'000LL) {
      throw std::runtime_error("loadgen: no reply for 120 s");
    }
  }
  for (auto& c : conns) close(c.fd);

  std::ofstream out(args.str("out"));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    out << i << '\t' << reqs[i].due << '\t' << reqs[i].sent << '\t'
        << reqs[i].recv << '\t' << reqs[i].reply << '\n';
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write " + args.str("out"));
  Json r = Json::object();
  r.set("t0_ns", static_cast<double>(t0))
      .set("requests", static_cast<std::uint64_t>(reqs.size()));
  std::printf("%s\n", r.dump().c_str());
  return 0;
}

// ---- fleet ------------------------------------------------------------------

ramp::fleet::FleetScenario fleet_scenario(const Args& args,
                                          ramp::sim::SimMode mode) {
  auto sc = ramp::fleet::FleetScenario::preset("baseline");
  sc.tech = ramp::scaling::parse_tech(args.str("node"));
  sc.cell.trace_instructions = args.u64("trace-len");
  sc.cell.seed = args.u64("cell-seed");
  sc.cell.sim_mode = mode;
  if (args.has("chips")) sc.chips = args.u64("chips");
  if (args.has("seed")) sc.seed = args.u64("seed");
  if (args.has("policy")) sc.policy = ramp::fleet::parse_policy(args.str("policy"));
  sc.validate();
  return sc;
}

// Stage-store hits and misses per stage, named as the per-layer metrics
// (pipeline.store.<stage>.<hits|misses>).
Json store_counts(const ramp::obs::MetricsRegistry& reg) {
  Json c = Json::object();
  for (const char* stage : {"sim", "power", "thermal", "fit"}) {
    for (const char* kind : {"hits", "misses"}) {
      const std::string want =
          std::string("ramp_stage_") + stage + "_" + kind + "_total";
      std::uint64_t v = 0;
      for (const auto& [name, value] : reg.snapshot().counters) {
        if (name == want) v = value;
      }
      c.set(std::string("pipeline.store.") + stage + "." + kind, v);
    }
  }
  return c;
}

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Per prepared cell: IPC at 180 nm and at the scenario node (read back
// through the simulator's own stage store, so they are hits), and the
// qualified rung-0 total FIT the chips consume.
Json prepared_cells(const ramp::fleet::FleetScenario& sc,
                    const ramp::fleet::FleetSimulator& sim,
                    const std::shared_ptr<pipeline::StageStore>& store) {
  const pipeline::Evaluator ev(sc.cell, store);
  Json cells = Json::array();
  const auto& suite = ramp::workloads::spec2k_suite();
  for (std::size_t a = 0; a < suite.size(); ++a) {
    const auto& w = suite[a];
    const auto base = ev.evaluate(w, ramp::scaling::TechPoint::k180nm);
    const auto cell = sc.tech == ramp::scaling::TechPoint::k180nm
                          ? base
                          : ev.evaluate(w, sc.tech, base.sink_temp_k);
    Json c = Json::object();
    c.set("app", w.name)
        .set("ipc_180", base.ipc)
        .set("ipc_node", cell.ipc)
        .set("total_fit", sim.cells()[a][0].total_fit);
    cells.push(std::move(c));
  }
  return cells;
}

int cmd_fleet(const Args& args) {
  const auto sc = fleet_scenario(args, ramp::sim::SimMode::kAuto);
  const std::size_t jobs = args.u64("jobs");
  const double seconds = args.num("seconds");
  const std::uint64_t setups = std::max<std::uint64_t>(1, args.u64("setups"));
  const bool traced = args.has("traced");
  SpanLog log;

  // Set-up: cold prepare() on a fresh stage store each time; the last
  // simulator serves the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<ramp::fleet::FleetSimulator> sim;
  std::shared_ptr<pipeline::StageStore> store;
  std::unique_ptr<ramp::obs::MetricsRegistry> reg;
  for (std::uint64_t k = 0; k < setups; ++k) {
    reg = std::make_unique<ramp::obs::MetricsRegistry>(true);
    pipeline::StageStore::Options so;
    so.registry = reg.get();
    store = std::make_shared<pipeline::StageStore>(so);
    ramp::fleet::FleetSimulator::Options fo;
    fo.jobs = jobs;
    fo.stage_store = store;
    fo.registry = reg.get();
    sim = std::make_unique<ramp::fleet::FleetSimulator>(sc, fo);
    const std::int64_t t = now_ns();
    sim->prepare();
    setup_s.push_back(seconds_since(t));
    log.add("fleet.prepare", "fleet", t, now_ns());
  }
  Json prep = store_counts(*reg);
  Json cells = prepared_cells(sc, *sim, store);

  // Timed phase: whole populations, back to back.
  std::vector<double> run_s;
  std::string digest;
  std::string curve_csv;
  std::uint64_t digest_mismatches = 0;
  double survival = 0.0;
  const double cpu0 = cpu_seconds();
  const std::int64_t phase = now_ns();
  // At least 20 runs, so the median has ten samples beyond it.
  while (run_s.size() < 20 || seconds_since(phase) < seconds) {
    const std::int64_t t = now_ns();
    const auto res = sim->run();
    run_s.push_back(seconds_since(t));
    log.add("fleet.run", "fleet", t, now_ns());
    const std::string csv = ramp::fleet::fleet_curve_csv(res);
    const std::string d = fnv64_hex(csv);
    if (digest.empty()) {
      digest = d;
      curve_csv = csv;
    } else if (d != digest) {
      ++digest_mismatches;
    }
    survival = res.summary.survival_at_horizon;
  }
  const double phase_s = seconds_since(phase);
  const double run_cpu_s = cpu_seconds() - cpu0;
  const double sim_misses = prep.find("pipeline.store.sim.misses")->as_number();

  Json out = Json::object();
  out.set("setup_s", num_array(setup_s))
      .set("run_s", num_array(run_s))
      .set("phase_s", phase_s)
      .set("run_cpu_s", run_cpu_s)
      .set("chips", sc.chips)
      .set("jobs", static_cast<std::uint64_t>(jobs))
      .set("curve_digest", digest)
      .set("digest_mismatches", digest_mismatches)
      .set("survival", survival)
      .set("prepare_sim_misses", sim_misses)
      .set("prepare_store", std::move(prep))
      .set("cells", std::move(cells));

  if (traced) {
    // The DRM share of a chip: the same population (same seed, same chips)
    // with no runtime policy.
    auto none = sc;
    none.policy = ramp::fleet::DrmPolicy::kNone;
    ramp::fleet::FleetSimulator::Options fo;
    fo.jobs = jobs;
    fo.stage_store = store;
    fo.registry = reg.get();
    const ramp::fleet::FleetSimulator base(none, fo);
    base.prepare();  // stage-store hits
    std::vector<double> none_s;
    const std::int64_t p2 = now_ns();
    while (none_s.size() < 3 || seconds_since(p2) < seconds / 4) {
      const std::int64_t t = now_ns();
      base.run();
      none_s.push_back(seconds_since(t));
      log.add("fleet.run.none", "fleet", t, now_ns());
    }
    out.set("run_none_s", num_array(none_s));
    out.set("curve_csv", curve_csv);
    out.set("spans", std::move(log.spans));
  }
  out.set("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int cmd_fleet_ref(const Args& args) {
  const auto sc = fleet_scenario(args, ramp::sim::SimMode::kDetailed);
  auto store = std::make_shared<pipeline::StageStore>();
  ramp::fleet::FleetSimulator::Options fo;
  fo.jobs = 1;
  fo.stage_store = store;
  const ramp::fleet::FleetSimulator sim(sc, fo);
  sim.prepare();
  Json out = Json::object();
  out.set("cells", prepared_cells(sc, sim, store));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// ---- probe ------------------------------------------------------------------

template <typename F>
double time_median_us(int reps, F&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t) * 1e-3);
  }
  return median(us);
}

int cmd_probe(const Args& args) {
  const std::uint64_t len = args.u64("trace-len");
  const auto apps = split(args.str("apps"), ',');
  const auto nodes = split(args.str("nodes"), ',');
  const std::string dir = args.str("dir");
  const int reps = args.has("reps") ? static_cast<int>(args.u64("reps")) : 50;
  pipeline::EvaluationConfig cfg;
  cfg.trace_instructions = len;
  cfg.seed = args.u64("seed");
  pipeline::EvaluationConfig sampled_cfg = cfg;
  sampled_cfg.sim_mode = ramp::sim::SimMode::kSampled;
  cfg.sim_mode = ramp::sim::SimMode::kDetailed;

  // Samples per metric, one per cell; reported as medians.
  std::map<std::string, std::vector<double>> s;
  const auto add = [&s](const std::string& k, double x) { s[k].push_back(x); };
  SpanLog log;
  ramp::obs::MetricsRegistry reg(true);
  std::filesystem::remove_all(dir);

  for (const auto& app : apps) {
    const auto& w = ramp::workloads::workload(app);
    const std::uint64_t seed = pipeline::app_trace_seed(cfg.seed, w.name);

    // trace: the synthetic stream drained on its own.
    {
      ramp::trace::SyntheticTrace stream(w.profile, len, seed);
      ramp::trace::Instruction ins;
      const std::int64_t t = now_ns();
      std::uint64_t n = 0;
      while (stream.next(ins)) ++n;
      const std::int64_t e = now_ns();
      add("trace.ns_per_instr", static_cast<double>(e - t) / static_cast<double>(n));
      log.add("trace:" + app, "trace", t, e);
    }

    double sink = 0.0;
    std::vector<std::string> cell_nodes = {"180"};
    for (const auto& n : nodes) {
      if (ramp::scaling::parse_tech(n) != ramp::scaling::TechPoint::k180nm) {
        cell_nodes.push_back(n);
      }
    }
    for (const auto& node_name : cell_nodes) {
      const auto tp = ramp::scaling::parse_tech(node_name);
      const auto& tech = ramp::scaling::node(tp);
      const std::string cell = app + "@" + std::string(ramp::scaling::tech_token(tp));
      const std::int64_t cell_t = now_ns();

      ramp::trace::SyntheticTrace stream(w.profile, len, seed);
      std::int64_t t = now_ns();
      const auto sim = pipeline::run_sim_stage(cfg, tech, stream, cell);
      std::int64_t e = now_ns();
      const double sim_ns = static_cast<double>(e - t);
      log.add("sim.detailed:" + cell, "sim", t, e);
      add("sim.detailed.ns_per_instr", sim_ns / static_cast<double>(len));

      t = now_ns();
      const auto power = pipeline::run_power_stage(cfg, tech, w.power_bias,
                                                   sim.result, cell);
      e = now_ns();
      log.add("power:" + cell, "power", t, e);
      add("power.us_per_cell", static_cast<double>(e - t) * 1e-3);

      const double target = tp == ramp::scaling::TechPoint::k180nm ? 0.0 : sink;
      t = now_ns();
      const auto thermal =
          pipeline::run_thermal_stage(cfg, tech, target, power, cell);
      e = now_ns();
      log.add("thermal:" + cell, "thermal", t, e);
      add("thermal.us_per_cell", static_cast<double>(e - t) * 1e-3);
      add("thermal.steps", static_cast<double>(thermal.struct_temps.size()));

      t = now_ns();
      auto result = pipeline::run_fit_stage(cfg, tech, sim.result, power,
                                            thermal, cell);
      e = now_ns();
      log.add("fit:" + cell, "core", t, e);
      add("fit.us_per_cell", static_cast<double>(e - t) * 1e-3);
      result.app = w.name;
      result.tech = tp;
      add("cell_ms", static_cast<double>(e - cell_t) * 1e-6);
      if (tp == ramp::scaling::TechPoint::k180nm) sink = thermal.sink_temp_k;

      // sim (sampled) on the same cell, against the detailed IPC.
      ramp::trace::SyntheticTrace sstream(w.profile, len, seed);
      t = now_ns();
      const auto ssim = pipeline::run_sim_stage(sampled_cfg, tech, sstream, cell);
      e = now_ns();
      log.add("sim.sampled:" + cell, "sim", t, e);
      add("sim.sampled.ns_per_instr",
            static_cast<double>(e - t) / static_cast<double>(len));
      const double ipc = sim.result.totals.ipc();
      add("sim.sampled.ipc_err_pct",
            100.0 * std::abs(ssim.result.totals.ipc() - ipc) / ipc);

      // pipeline: payload codecs, per stage output.
      const std::string sim_p = pipeline::encode_payload(sim);
      const std::string power_p = pipeline::encode_payload(power);
      const std::string thermal_p = pipeline::encode_payload(thermal);
      const std::string fit_p = pipeline::encode_payload(result);
      const std::int64_t ct = now_ns();
      double enc = time_median_us(reps, [&] { (void)pipeline::encode_payload(sim); });
      enc += time_median_us(reps, [&] { (void)pipeline::encode_payload(power); });
      enc += time_median_us(reps, [&] { (void)pipeline::encode_payload(thermal); });
      enc += time_median_us(reps, [&] { (void)pipeline::encode_payload(result); });
      double dec = time_median_us(reps, [&] {
        pipeline::SimStageOut o;
        if (!pipeline::decode_payload(sim_p, o)) throw std::runtime_error("decode sim");
      });
      dec += time_median_us(reps, [&] {
        pipeline::PowerStageOut o;
        if (!pipeline::decode_payload(power_p, o)) throw std::runtime_error("decode power");
      });
      dec += time_median_us(reps, [&] {
        pipeline::ThermalStageOut o;
        if (!pipeline::decode_payload(thermal_p, o)) throw std::runtime_error("decode thermal");
      });
      dec += time_median_us(reps, [&] {
        pipeline::AppTechResult o;
        if (!pipeline::decode_payload(fit_p, o)) throw std::runtime_error("decode fit");
      });
      log.add("codec:" + cell, "pipeline", ct, now_ns());
      add("pipeline.store.encode_us", enc);
      add("pipeline.store.decode_us", dec);
      add("pipeline.store.payload_kb",
            static_cast<double>(sim_p.size() + power_p.size() +
                                thermal_p.size() + fit_p.size()) / 1024.0);

      // util: the store's persistent tier. A miss writes the sim payload
      // (encode + file write); a second store over the same directory
      // reads it back (file read + decode). Codec time is subtracted.
      const pipeline::StageKey key{"perfbench|" + cell + "|" + std::to_string(cfg.seed)};
      const double sim_enc = time_median_us(3, [&] { (void)pipeline::encode_payload(sim); });
      const double sim_dec = time_median_us(3, [&] {
        pipeline::SimStageOut o;
        (void)pipeline::decode_payload(sim_p, o);
      });
      pipeline::StageStore::Options so;
      so.dir = dir;
      so.registry = &reg;
      const std::function<pipeline::SimStageOut()> compute = [&] { return sim; };
      const std::int64_t bt = now_ns();
      {
        pipeline::StageStore writer(so);
        t = now_ns();
        (void)writer.get_or_compute<pipeline::SimStageOut>(
            pipeline::StageId::kSim, key, compute);
        e = now_ns();
        add("util.blob.write_us",
              std::max(0.0, static_cast<double>(e - t) * 1e-3 - sim_enc));
      }
      {
        pipeline::StageStore reader(so);
        t = now_ns();
        (void)reader.get_or_compute<pipeline::SimStageOut>(
            pipeline::StageId::kSim, key, compute);
        e = now_ns();
        add("util.blob.read_us",
              std::max(0.0, static_cast<double>(e - t) * 1e-3 - sim_dec));
      }
      log.add("blob:" + cell, "util", bt, now_ns());

      // serve: the wire codec and the CPU a cache hit costs the service
      // (request parse, result object, reply line) without transport.
      const std::string line = "{\"op\":\"eval\",\"app\":\"" + app +
                               "\",\"node\":\"" +
                               std::string(ramp::scaling::tech_token(tp)) + "\"}";
      const std::string body = ramp::serve::result_json(result).dump();
      const std::int64_t jt = now_ns();
      add("serve.json.dump_us", time_median_us(reps, [&] {
              (void)ramp::serve::result_json(result).dump();
            }));
      add("serve.json.parse_us",
            time_median_us(reps, [&] { (void)Json::parse(body); }));
      add("serve.service.hit_us", time_median_us(reps, [&] {
              const auto req = ramp::serve::parse_request(line);
              Json r = Json::object();
              r.set("ok", true).set("op", "eval").set("cached", true);
              r.set("result", ramp::serve::result_json(result));
              (void)req;
              (void)r.dump();
            }));
      log.add("json:" + cell, "serve", jt, now_ns());
    }
  }
  std::filesystem::remove_all(dir);

  Json metrics = Json::object();
  for (const auto& [k, v] : s) metrics.set(k, median(v));
  Json out = Json::object();
  out.set("metrics", std::move(metrics));
  out.set("spans", std::move(log.spans));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_native loadgen|fleet|fleet-ref|probe ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "loadgen") return cmd_loadgen(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "fleet-ref") return cmd_fleet_ref(args);
    if (cmd == "probe") return cmd_probe(args);
    std::fprintf(stderr, "perfbench_native: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_native: %s\n", e.what());
    return 1;
  }
}
