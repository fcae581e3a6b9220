#include "serve/session.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <string_view>
#include <utility>

#include "fleet/fleet_simulator.hpp"
#include "fleet/scenario.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "scaling/technology.hpp"
#include "util/error.hpp"

namespace ramp::serve {

namespace {

std::uint64_t delta_ns(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return b <= a ? std::uint64_t{0}
                : static_cast<std::uint64_t>(
                      std::chrono::nanoseconds(b - a).count());
}

Json stats_json(const ServiceStats& s) {
  Json j = Json::object();
  j.set("requests", s.requests)
      .set("hits", s.hits)
      .set("coalesced", s.coalesced)
      .set("misses", s.misses)
      .set("persist_hits", s.persist_hits)
      .set("evaluations", s.evaluations)
      .set("failures", s.failures)
      .set("evictions", s.evictions)
      .set("queue_depth", static_cast<std::uint64_t>(s.queue_depth))
      .set("cache_size", static_cast<std::uint64_t>(s.cache_size))
      .set("p50_latency_ms", s.p50_latency_ms)
      .set("p99_latency_ms", s.p99_latency_ms);
  return j;
}

Json cause_counts_json(
    const std::array<std::uint64_t, fleet::kNumFailureCauses>& counts) {
  Json j = Json::object();
  for (int c = 0; c < fleet::kNumFailureCauses; ++c) {
    j.set(std::string(fleet::cause_name(static_cast<fleet::FailureCause>(c))),
          counts[static_cast<std::size_t>(c)]);
  }
  return j;
}

std::string oversize_line_message() {
  return "request line exceeds " + std::to_string(kMaxRequestLine) +
         " bytes";
}

void set_id(Json& response, const std::string& id) {
  // The id is re-parsed from its captured raw JSON so it round-trips with
  // whatever type the client sent (number, string, object, ...).
  if (!id.empty()) response.set("id", Json::parse(id));
}

/// {"ok":false,"id":...,"error":message}
Json error_response(const std::string& message, const std::string& id = {}) {
  Json r = Json::object();
  r.set("ok", false);
  set_id(r, id);
  r.set("error", message);
  return r;
}

Json shutdown_response(const EvalRequest& req) {
  Json r = Json::object();
  r.set("ok", true).set("op", "shutdown");
  set_id(r, req.id);
  return r;
}

/// The `stats` op. `quiesce` runs EvalService::drain() first so queue_depth
/// reflects delivered responses — right for the single stdio client, wrong
/// for a multi-client server (other clients keep the service busy).
Json stats_response(EvalService& service, const EvalRequest& req,
                    bool quiesce) {
  if (quiesce) service.drain();  // queue_depth reflects delivered responses
  Json r = Json::object();
  r.set("ok", true).set("op", "stats");
  set_id(r, req.id);
  r.set("stats", stats_json(service.stats()));
  return r;
}

Json metrics_response(EvalService& service, const EvalRequest& req,
                      bool quiesce) {
  if (quiesce) service.drain();  // counters are settled
  // Service metrics (always booked) plus whatever the process-wide registry
  // collected, with the stage profile attached.
  obs::MetricsSnapshot snap = service.metrics().snapshot();
  snap.merge_from(obs::MetricsRegistry::global().snapshot());
  const obs::StageProfile profile = obs::Profiler::global().snapshot();
  Json r = Json::object();
  r.set("ok", true).set("op", "metrics");
  set_id(r, req.id);
  if (req.metrics_format == "json") {
    // The machine-readable form: raw bucket counts and counters (Prometheus
    // text would lose the per-bucket structure behind formatting).
    r.set("snapshot", Json::parse(obs::to_ndjson(snap, &profile)));
  } else {
    r.set("prometheus", obs::to_prometheus(snap, &profile));
  }
  return r;
}

Json health_response(const EvalRequest& req, const HealthInfo& info) {
  Json r = Json::object();
  r.set("ok", true).set("op", "health");
  set_id(r, req.id);
  r.set("mode", info.mode)
      .set("uptime_s", info.uptime_s)
      .set("accepted_connections", info.accepted_connections)
      .set("active_connections", info.active_connections)
      .set("draining", info.draining)
      .set("shards", std::uint64_t{1});
  return r;
}

Json trace_dump_response(const EvalRequest& req, const obs::TraceRing& ring) {
  const std::vector<obs::RequestTrace> recs = ring.snapshot();
  Json r = Json::object();
  r.set("ok", true).set("op", "trace_dump");
  set_id(r, req.id);
  r.set("count", static_cast<std::uint64_t>(recs.size()))
      .set("capacity", static_cast<std::uint64_t>(ring.capacity()))
      .set("total_traced", ring.total_pushed())
      .set("perfetto", obs::to_chrome_trace(obs::request_lanes(recs),
                                            "ramp-serve requests"));
  return r;
}

Json metrics_reset_response(EvalService& service, const EvalRequest& req,
                            bool quiesce) {
  // Zero the service counters, the process-wide registry, and the stage
  // profile — so a long-lived server can separate load phases.
  if (quiesce) service.drain();
  service.reset_stats();
  obs::MetricsRegistry::global().reset();
  obs::Profiler::global().reset();
  Json r = Json::object();
  r.set("ok", true).set("op", "metrics_reset");
  set_id(r, req.id);
  return r;
}

Json timeline_response(EvalService& service, const EvalRequest& req) {
  try {
    const pipeline::AppTechResult res = service.evaluate_timeline(req);
    Json r = Json::object();
    r.set("ok", true).set("op", "timeline");
    set_id(r, req.id);
    r.set("result", result_json(res));
    r.set("cell", res.timeline.cell);
    r.set("intervals", res.timeline.intervals);
    r.set("stride", res.timeline.stride);
    Json points = Json::array();
    for (const auto& p : res.timeline.points) {
      Json pt = Json::object();
      pt.set("interval", p.interval)
          .set("time_s", p.time_s)
          .set("ipc", p.ipc)
          .set("dyn_w", p.dyn_power_w)
          .set("leak_w", p.leak_power_w);
      Json temps = Json::array();
      for (double t : p.temp_k) temps.push(t);
      pt.set("temp_k", std::move(temps));
      Json inst = Json::array();
      for (double f : p.fit_inst) inst.push(f);
      pt.set("fit_inst", std::move(inst));
      Json avg = Json::array();
      for (double f : p.fit_avg) avg.push(f);
      pt.set("fit_avg", std::move(avg));
      points.push(std::move(pt));
    }
    r.set("points", std::move(points));
    Json incidents = Json::array();
    for (const auto& inc : res.incidents) {
      incidents.push(Json::parse(obs::incident_to_json(inc)));
    }
    r.set("incidents", std::move(incidents));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), req.id);
  }
}

Json fleet_response(EvalService& service, const EvalRequest& req) {
  try {
    fleet::FleetScenario sc = fleet::FleetScenario::preset(
        req.fleet_scenario.empty() ? "baseline" : req.fleet_scenario);
    if (req.chips) sc.chips = *req.chips;
    if (req.years) sc.horizon_years = *req.years;
    if (req.bin) sc.curve_bin_years = *req.bin;
    if (!req.fleet_policy.empty())
      sc.policy = fleet::parse_policy(req.fleet_policy);
    if (req.has_node) sc.tech = req.node;
    if (req.seed) sc.seed = *req.seed;
    // The scenario's physics cells run with the service's base config and
    // through the service's stage store, so a fleet op and the eval path
    // share per-stage work instead of duplicating it.
    sc.cell = service.config();
    // A serve request must not be able to wedge the process for hours: the
    // CLI handles unbounded studies, the wire op handles bounded ones.
    RAMP_REQUIRE(sc.chips <= 200'000,
                 "fleet op caps chips at 200000 (use `ramp fleet` for "
                 "larger populations)");
    RAMP_REQUIRE(sc.horizon_years <= 100.0, "fleet op caps years at 100");
    sc.validate();

    fleet::FleetSimulator::Options opts;
    opts.jobs = service.options().jobs;
    opts.stage_store = service.stage_store();
    opts.registry = &service.registry();
    const fleet::FleetResult res = fleet::FleetSimulator(sc, opts).run();

    Json scenario = Json::object();
    scenario.set("name", sc.name)
        .set("chips", sc.chips)
        .set("years", sc.horizon_years)
        .set("bin", sc.curve_bin_years)
        .set("policy", std::string(fleet::policy_name(sc.policy)))
        .set("node", std::string(scaling::tech_token(sc.tech)))
        .set("seed", sc.seed);

    const fleet::FleetSummary& s = res.summary;
    Json summary = Json::object();
    summary.set("chips", s.chips)
        .set("failed", s.failed)
        .set("survival_at_horizon", s.survival_at_horizon)
        .set("mean_failure_age_years", s.mean_failure_age_years)
        .set("by_cause", cause_counts_json(s.failures_by_cause))
        .set("avg_relative_performance", s.avg_relative_performance)
        .set("throttle_switches", s.throttle_switches)
        .set("migrations", s.migrations)
        .set("spare_activations", s.spare_activations)
        .set("monitor_reconfigs", s.monitor_reconfigs);

    Json curve = Json::array();
    for (const auto& p : res.curve) {
      Json bin = Json::object();
      bin.set("t_end_years", p.t_end_years)
          .set("failures", p.failures)
          .set("survivors", p.survivors)
          .set("survival", p.survival)
          .set("hazard_per_year", p.hazard_per_year)
          .set("by_cause", cause_counts_json(p.by_cause));
      curve.push(std::move(bin));
    }

    Json r = Json::object();
    r.set("ok", true).set("op", "fleet");
    set_id(r, req.id);
    r.set("scenario", std::move(scenario));
    r.set("summary", std::move(summary));
    r.set("curve", std::move(curve));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), req.id);
  }
}

Json eval_response(const EvalService::Ticket& ticket, const std::string& id) {
  try {
    const OutcomePtr outcome = ticket.future.get();
    Json r = Json::object();
    r.set("ok", true);
    r.set("op", "eval");
    set_id(r, id);
    r.set("key", outcome->key);
    r.set("cached", ticket.source == EvalService::Source::kCache);
    r.set("coalesced", ticket.source == EvalService::Source::kCoalesced);
    r.set("result", result_json(outcome->result));
    return r;
  } catch (const std::exception& e) {
    return error_response(e.what(), id);
  }
}


/// Answers a control op (anything but eval and shutdown) that needs only
/// the service. Never throws: op failures become {"ok":false}.
Json service_op_response(EvalService& service, const EvalRequest& req,
                         bool quiesce) {
  switch (req.op) {
    case Op::kStats: return stats_response(service, req, quiesce);
    case Op::kMetrics: return metrics_response(service, req, quiesce);
    case Op::kMetricsReset:
      return metrics_reset_response(service, req, quiesce);
    case Op::kTimeline: return timeline_response(service, req);
    case Op::kFleet: return fleet_response(service, req);
    default: break;
  }
  return error_response("internal: not a service op", req.id);
}

bool is_aux_op(Op op) { return op == Op::kTimeline || op == Op::kFleet; }

}  // namespace

Json overloaded_response(const std::string& id) {
  Json r = error_response("overloaded", id);
  r.set("overloaded", true);
  return r;
}

Json trace_object(const obs::RequestTrace& rec) {
  Json t = Json::object();
  t.set("trace_id", rec.trace_id).set("op", rec.op);
  if (!rec.label.empty()) t.set("label", rec.label);
  t.set("start_ns", rec.start_ns)
      .set("total_ns", rec.total_ns)
      .set("cached", rec.cached)
      .set("coalesced", rec.coalesced);
  Json phases = Json::object();
  for (int p = 0; p < obs::kNumPhases; ++p) {
    phases.set(std::string(obs::phase_name(static_cast<obs::Phase>(p))),
               rec.phase_ns[static_cast<std::size_t>(p)]);
  }
  t.set("phases", std::move(phases));
  bool any_stage = false;
  for (const auto ns : rec.stage_ns) any_stage = any_stage || ns != 0;
  if (any_stage) {
    Json stages = Json::object();
    for (int s = 0; s < obs::kNumStages; ++s) {
      const auto ns = rec.stage_ns[static_cast<std::size_t>(s)];
      if (ns == 0) continue;
      stages.set(std::string(obs::stage_name(static_cast<obs::Stage>(s))), ns);
    }
    t.set("stages", std::move(stages));
  }
  return t;
}

std::string slow_log_line(const obs::RequestTrace& rec, double wall_unix_ms) {
  const Json trace = trace_object(rec);
  Json line = Json::object();
  line.set("ts_ms", static_cast<std::uint64_t>(wall_unix_ms));
  for (const auto& [key, value] : trace.items()) line.set(key, value);
  line.set("ok", rec.ok);
  return line.dump();
}

// ---- Protocol --------------------------------------------------------------

Protocol::Protocol(EvalService& service, Transport transport,
                   const TraceOptions& trace, std::size_t max_queued_work)
    : service_(service),
      transport_(transport),
      max_queued_work_(max_queued_work),
      tracing_(trace.request_trace || !trace.slow_log_path.empty()) {
  if (!trace.slow_log_path.empty()) {
    slow_log_.open(trace.slow_log_path, std::ios::app);
    RAMP_REQUIRE(slow_log_.is_open(),
                 "cannot open slow log " + trace.slow_log_path);
    slow_ns_ = static_cast<std::uint64_t>(trace.slow_ms * 1e6);
  }
  auto& reg = service.registry();
  m_requests_ = reg.counter("ramp_net_requests");
  m_shed_ = reg.counter("ramp_net_requests_shed");
  m_parse_errors_ = reg.counter("ramp_net_parse_errors");
  m_responses_ = reg.counter("ramp_net_responses");
  m_dropped_ = reg.counter("ramp_net_responses_dropped");
  const std::vector<double> latency_bounds = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
      0.025,  0.05,    0.1,    0.25,  0.5,    1.0,   2.5};
  constexpr const char* kOpClassName[kNumOpClasses] = {"eval", "control",
                                                       "aux"};
  for (int k = 0; k < kNumOpClasses; ++k) {
    const std::string suffix = kOpClassName[k];
    m_op_requests_[k] = reg.counter("ramp_net_op_requests_total_" + suffix);
    m_op_errors_[k] = reg.counter("ramp_net_op_errors_total_" + suffix);
    m_op_duration_[k] = reg.histogram(
        "ramp_net_op_duration_seconds_" + suffix, latency_bounds);
  }
  for (int p = 0; p < obs::kNumPhases; ++p) {
    m_phase_ns_[p] = reg.counter(
        "ramp_net_phase_ns_total_" +
        std::string(obs::phase_name(static_cast<obs::Phase>(p))));
  }
}

Json Protocol::control(const EvalRequest& req) {
  switch (req.op) {
    case Op::kHealth: {
      if (!single_client()) return health_response(req, health());
      HealthInfo info;
      info.mode = "stdio";
      info.uptime_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started_)
                          .count();
      info.accepted_connections = 1;
      info.active_connections = 1;
      return health_response(req, info);
    }
    case Op::kTraceDump: return trace_dump_response(req, ring_);
    default:
      // The only client quiesces the service; with many clients the
      // counters are a live snapshot (the others keep it busy by design).
      return service_op_response(service_, req, /*quiesce=*/single_client());
  }
}

void Protocol::finalize_trace(obs::RequestTrace rec) {
  for (int p = 0; p < obs::kNumPhases; ++p) {
    m_phase_ns_[p].inc(rec.phase_ns[static_cast<std::size_t>(p)]);
  }
  if (slow_log_.is_open() && rec.total_ns >= slow_ns_) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    slow_log_ << slow_log_line(rec, wall_ms) << '\n';
    slow_log_.flush();
  }
  ring_.push(std::move(rec));
}

// ---- Session ---------------------------------------------------------------

/// Result cell an aux-thread job fills in; the slot holds the same pointer,
/// so a client going away mid-computation just orphans the cell harmlessly.
struct Session::AuxResult {
  std::atomic<bool> done{false};
  std::string line;
};

Session::Session(Protocol& protocol) : p_(protocol) {}

Session::~Session() {
  for (const Slot& s : slots_) {
    if (s.counts_as_work) p_.queued_work_--;
    p_.counters_.dropped++;
    p_.m_dropped_.inc();
  }
}

void Session::feed(const char* data, std::size_t n) {
  if (shutdown_ || input_ended_) return;
  inbuf_.append(data, n);
  process_input();
}

void Session::end_input() {
  if (input_ended_) return;
  input_ended_ = true;
  // An over-long tail was answered when the cap tripped and inbuf_ holds
  // none of it; any other unterminated tail is a last request.
  if (!inbuf_.empty() && inbuf_.back() != '\n') inbuf_ += '\n';
  process_input();
}

void Session::process_input() {
  std::size_t start = 0;
  while (!shutdown_ && !held_) {
    const std::size_t nl = inbuf_.find('\n', start);
    if (nl == std::string::npos) break;
    if (discarding_) {
      discarding_ = false;  // the over-long line ended; already answered
    } else {
      handle_line(start, nl - start);
    }
    start = nl + 1;
  }
  inbuf_.erase(0, start);
  if (shutdown_) {
    inbuf_.clear();
    return;
  }
  // Complete lines behind a barrier wait for it; the stdio transport reads no
  // more input meanwhile, so the buffer stays bounded.
  if (held_) return;
  if (!discarding_ && inbuf_.size() > kMaxRequestLine) {
    // Stop buffering: no client may grow our memory by withholding '\n'.
    push_error(oversize_line_message());
    inbuf_.clear();
    discarding_ = true;
    has_partial_ = false;
  } else if (discarding_) {
    inbuf_.clear();
    has_partial_ = false;
  } else if (p_.tracing_) {
    // A leftover line head starts (or continues) the next request's read
    // phase; one clock read per partial arrival, not per byte.
    if (inbuf_.empty()) {
      has_partial_ = false;
    } else if (!has_partial_) {
      has_partial_ = true;
      partial_since_ = std::chrono::steady_clock::now();
    }
  }
}

void Session::handle_line(std::size_t start, std::size_t len) {
  const std::string_view text(inbuf_.data() + start, len);
  if (text.find_first_not_of(" \t\r") == std::string_view::npos) return;
  // One clock read per request, always: the RED duration base. With the
  // trace switch off this is the only timestamp the request ever takes.
  const SteadyTp t0 = std::chrono::steady_clock::now();
  std::uint64_t read_ns = 0;
  if (has_partial_) {
    // This line's head arrived in an earlier read; the gap is the request's
    // wire-read phase. Only the buffered head line qualifies.
    read_ns = delta_ns(partial_since_, t0);
    has_partial_ = false;
  }
  if (len > kMaxRequestLine) {
    push_error(oversize_line_message());
    return;
  }

  EvalRequest req;
  try {
    req = parse_request(std::string(text));
  } catch (const std::exception& e) {
    push_error(e.what());
    return;
  }
  const SteadyTp t1 = (p_.tracing_ || req.trace)
                          ? std::chrono::steady_clock::now()
                          : SteadyTp{};

  if (req.op == Op::kShutdown) {
    push_ready(shutdown_response(req).dump(), t0, Protocol::kOpControl);
    shutdown_ = true;
    return;
  }
  if (req.op == Op::kEval) {
    admit_eval(std::move(req), t0, t1, read_ns);
    return;
  }

  Slot s;
  s.kind = Slot::Kind::kControl;
  s.accepted = t0;
  if (is_aux_op(req.op)) {
    s.op_class = Protocol::kOpAux;
    if (!p_.single_client()) {
      if (p_.queued_work_ >= p_.max_queued_work_) {
        push_shed(req.id, t0, Protocol::kOpAux);
        return;
      }
      // Expensive ops never stall an event loop: the transport's aux
      // thread runs them and the slot waits for the published line.
      s.kind = Slot::Kind::kAux;
      s.aux = std::make_shared<AuxResult>();
      s.counts_as_work = true;
      p_.queued_work_++;
      p_.run_aux([&service = p_.service_, req = std::move(req), aux = s.aux] {
        aux->line = service_op_response(service, req, /*quiesce=*/false)
                        .dump();
        aux->done.store(true, std::memory_order_release);
      });
    }
  }
  // Control ops are computed when they reach the head of this client's
  // line, so they sit after the evals pipelined before them. The only
  // client's control ops are barriers: nothing after one is handled until
  // it is answered.
  if (s.kind == Slot::Kind::kControl) {
    s.req = std::move(req);
    held_ = p_.single_client();
  }
  push(std::move(s));
}

void Session::admit_eval(EvalRequest req, SteadyTp t0, SteadyTp t1,
                         std::uint64_t read_ns) {
  Slot s;
  s.kind = Slot::Kind::kEval;
  s.op_class = Protocol::kOpEval;
  s.accepted = t0;
  try {
    if (p_.single_client()) {
      // The only client waits out service backpressure; it is never shed.
      s.ticket = p_.service_.submit(req);
    } else if (p_.queued_work_ >= p_.max_queued_work_ ||
               !p_.service_.try_submit(req, &s.ticket)) {
      // Over the global cap, or the service's pending bound is full: shed,
      // never block the event loop.
      push_shed(req.id, t0, Protocol::kOpEval);
      return;
    }
  } catch (const std::exception& e) {
    push_ready(error_response(e.what(), req.id).dump(), t0,
               Protocol::kOpEval);
    return;
  }
  s.id = std::move(req.id);
  s.counts_as_work = true;
  p_.queued_work_++;

  if (p_.tracing_ || req.trace) {
    const SteadyTp t2 = std::chrono::steady_clock::now();
    auto rec = std::make_unique<obs::RequestTrace>();
    if (req.trace_id.empty()) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "s%llx",
                    static_cast<unsigned long long>(++p_.trace_seq_));
      rec->trace_id = buf;
    } else {
      rec->trace_id = std::move(req.trace_id);
    }
    rec->op = "eval";
    rec->label = req.app + "@" + std::string(scaling::tech_token(req.node));
    const std::uint64_t t0_ns = p_.ring_.to_epoch_ns(t0);
    rec->start_ns = t0_ns >= read_ns ? t0_ns - read_ns : 0;
    auto& ph = rec->phase_ns;
    ph[static_cast<std::size_t>(obs::Phase::kRead)] = read_ns;
    // A "trace":true request under a cold tracing switch starts its clock
    // after parsing — its parse phase reads 0 by construction.
    ph[static_cast<std::size_t>(obs::Phase::kParse)] =
        p_.tracing_ ? delta_ns(t0, t1) : 0;
    ph[static_cast<std::size_t>(obs::Phase::kAdmission)] = delta_ns(t1, t2);
    rec->cached = s.ticket.source == EvalService::Source::kCache;
    rec->coalesced = s.ticket.source == EvalService::Source::kCoalesced;
    s.trace = std::move(rec);
    s.want_response_trace = req.trace;
  }
  push(std::move(s));
}

void Session::push(Slot s) {
  slots_.push_back(std::move(s));
  p_.counters_.accepted++;
  p_.m_requests_.inc();
}

void Session::push_ready(std::string line, SteadyTp accepted, int op_class) {
  Slot s;
  s.kind = Slot::Kind::kReady;
  s.line = std::move(line);
  s.accepted = accepted;
  s.op_class = op_class;
  push(std::move(s));
}

void Session::push_error(const std::string& message) {
  push_ready(error_response(message).dump(), SteadyTp{},
             Protocol::kOpControl);
  p_.counters_.parse_errors++;
  p_.m_parse_errors_.inc();
}

void Session::push_shed(const std::string& id, SteadyTp accepted,
                        int op_class) {
  push_ready(overloaded_response(id).dump(), accepted, op_class);
  p_.counters_.shed++;
  p_.m_shed_.inc();
}

void Session::resolve() {
  // One clock read amortized over every slot resolved in a pass — the RED
  // duration endpoint (excludes the write; identical with tracing on or
  // off, so the two configurations report comparable latencies).
  SteadyTp t3{};
  while (true) {
    while (!slots_.empty()) {
      Slot& s = slots_.front();
      std::string line;
      switch (s.kind) {
        case Slot::Kind::kReady:
          line = std::move(s.line);
          break;
        case Slot::Kind::kEval:
          if (s.ticket.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            return;
          }
          line = s.trace != nullptr ? traced_eval_response(s)
                                    : eval_response(s.ticket, s.id).dump();
          break;
        case Slot::Kind::kControl:
          // A barrier runs once everything before it is written: the op
          // sees a settled service and a ring holding every earlier trace.
          if (p_.single_client() && !out_.empty()) return;
          line = p_.control(s.req).dump();
          break;
        case Slot::Kind::kAux:
          if (!s.aux->done.load(std::memory_order_acquire)) return;
          line = std::move(s.aux->line);
          break;
      }
      if (t3 == SteadyTp{}) t3 = std::chrono::steady_clock::now();
      const int k = s.op_class;
      p_.m_op_requests_[k].inc();
      // Responses put "ok" first, so errors are a prefix check, not a parse.
      if (line.rfind("{\"ok\":false", 0) == 0) p_.m_op_errors_[k].inc();
      if (s.accepted != SteadyTp{}) {
        p_.m_op_duration_[k].observe(
            static_cast<double>(delta_ns(s.accepted, t3)) * 1e-9);
      }
      if (s.counts_as_work) p_.queued_work_--;
      out_ += line;
      out_ += '\n';
      out_enqueued_ += line.size() + 1;
      if (s.trace != nullptr) {
        // The record completes when its last byte is written; park it
        // against the written-byte watermark.
        pending_flush_.push_back({out_enqueued_, t3, std::move(*s.trace)});
      }
      slots_.pop_front();
      p_.counters_.responses++;
      p_.m_responses_.inc();
    }
    if (!held_) return;
    // The barrier is answered: the lines that waited behind it go next.
    held_ = false;
    t3 = SteadyTp{};
    process_input();
  }
}

std::string Session::traced_eval_response(Slot& s) {
  const SteadyTp r0 = std::chrono::steady_clock::now();
  Json r = eval_response(s.ticket, s.id);
  const SteadyTp r1 = std::chrono::steady_clock::now();

  obs::RequestTrace& rec = *s.trace;
  const Json* ok = r.find("ok");
  rec.ok = ok != nullptr && ok->as_bool("ok");
  auto& ph = rec.phase_ns;
  if (s.ticket.source == EvalService::Source::kScheduled &&
      s.ticket.phases != nullptr) {
    ph[static_cast<std::size_t>(obs::Phase::kQueue)] =
        s.ticket.phases->queue_ns;
    ph[static_cast<std::size_t>(obs::Phase::kCache)] =
        s.ticket.phases->cache_ns;
    ph[static_cast<std::size_t>(obs::Phase::kCompute)] =
        s.ticket.phases->compute_ns;
    rec.stage_ns = s.ticket.phases->stage_ns;
  } else {
    // Cache hit / coalesced join: no work of its own — the latency is
    // head-of-line wait on this client (minus the phases already attributed
    // when the line was handled).
    const std::uint64_t wait = delta_ns(s.accepted, r0);
    const std::uint64_t booked =
        ph[static_cast<std::size_t>(obs::Phase::kParse)] +
        ph[static_cast<std::size_t>(obs::Phase::kAdmission)];
    ph[static_cast<std::size_t>(obs::Phase::kQueue)] =
        wait >= booked ? wait - booked : 0;
  }
  ph[static_cast<std::size_t>(obs::Phase::kSerialize)] = delta_ns(r0, r1);
  if (s.want_response_trace) {
    // The in-response flush phase necessarily reads 0 — a response cannot
    // carry its own write time. The ring and slow-log records get it.
    rec.total_ns = delta_ns(s.accepted, r1) +
                   ph[static_cast<std::size_t>(obs::Phase::kRead)];
    r.set("trace", trace_object(rec));
  }
  return r.dump();
}

void Session::wrote(std::size_t n) {
  out_.erase(0, n);
  out_written_ += n;
  if (pending_flush_.empty() || pending_flush_.front().target > out_written_) {
    return;
  }
  // One clock read per write batch, shared by every record it completed.
  const SteadyTp t5 = std::chrono::steady_clock::now();
  const std::uint64_t t5_ns = p_.ring_.to_epoch_ns(t5);
  while (!pending_flush_.empty() &&
         pending_flush_.front().target <= out_written_) {
    obs::RequestTrace rec = std::move(pending_flush_.front().rec);
    rec.phase_ns[static_cast<std::size_t>(obs::Phase::kFlush)] =
        delta_ns(pending_flush_.front().resolved, t5);
    rec.total_ns = t5_ns >= rec.start_ns ? t5_ns - rec.start_ns : 0;
    pending_flush_.pop_front();
    p_.finalize_trace(std::move(rec));
  }
}

void Session::wait() const {
  if (!slots_.empty() && slots_.front().kind == Slot::Kind::kEval) {
    slots_.front().ticket.future.wait();
  }
}

}  // namespace ramp::serve
