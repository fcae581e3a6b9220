#include "serve/request.hpp"

#include <cmath>

#include "util/error.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::serve {

namespace {

std::uint64_t as_u64_field(const Json& v, const char* what) {
  const double d = v.as_number(what);
  RAMP_REQUIRE(d >= 0.0 && d == std::floor(d) && d < 9.007199254740992e15,
               std::string(what) + " must be a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

}  // namespace

pipeline::EvaluationConfig EvalRequest::effective_config(
    const pipeline::EvaluationConfig& base) const {
  pipeline::EvaluationConfig cfg = base;
  if (trace_len) cfg.trace_instructions = *trace_len;
  if (seed) cfg.seed = *seed;
  return cfg;
}

EvalRequest parse_request(const std::string& line) {
  const Json j = Json::parse(line);
  RAMP_REQUIRE(j.is_object(), "request must be a JSON object");

  EvalRequest req;
  if (const Json* op = j.find("op")) {
    const std::string& name = op->as_string("op");
    if (name == "eval") req.op = Op::kEval;
    else if (name == "stats") req.op = Op::kStats;
    else if (name == "metrics") req.op = Op::kMetrics;
    else if (name == "metrics_reset") req.op = Op::kMetricsReset;
    else if (name == "shutdown") req.op = Op::kShutdown;
    else if (name == "timeline") req.op = Op::kTimeline;
    else if (name == "fleet") req.op = Op::kFleet;
    else if (name == "health") req.op = Op::kHealth;
    else if (name == "trace_dump") req.op = Op::kTraceDump;
    else throw InvalidArgument("unknown op '" + name +
                               "' (use eval, timeline, fleet, stats, "
                               "metrics, metrics_reset, health, "
                               "trace_dump, shutdown)");
  }

  for (const auto& [key, value] : j.items()) {
    if (key == "op") continue;
    if (key == "id") {
      req.id = value.dump();
      continue;
    }
    if (req.op == Op::kFleet) {
      // The fleet schema: scenario preset plus a few bounded overrides
      // (node and seed are shared with the eval schema below).
      if (key == "scenario") {
        req.fleet_scenario = value.as_string("scenario");
      } else if (key == "chips") {
        req.chips = as_u64_field(value, "chips");
        RAMP_REQUIRE(*req.chips > 0, "chips must be positive");
      } else if (key == "years") {
        req.years = value.as_number("years");
        RAMP_REQUIRE(*req.years > 0.0, "years must be positive");
      } else if (key == "bin") {
        req.bin = value.as_number("bin");
        RAMP_REQUIRE(*req.bin > 0.0, "bin must be positive");
      } else if (key == "policy") {
        req.fleet_policy = value.as_string("policy");
      } else if (key == "node") {
        req.node = scaling::parse_tech(value.as_string("node"));
        req.has_node = true;
      } else if (key == "seed") {
        req.seed = as_u64_field(value, "seed");
      } else {
        throw InvalidArgument("unknown fleet request field '" + key + "'");
      }
      continue;
    }
    if (key == "format") {
      RAMP_REQUIRE(req.op == Op::kMetrics,
                   "field 'format' is only valid on metrics requests");
      req.metrics_format = value.as_string("format");
      RAMP_REQUIRE(req.metrics_format == "prometheus" ||
                       req.metrics_format == "json",
                   "format must be \"prometheus\" or \"json\"");
      continue;
    }
    RAMP_REQUIRE(req.op == Op::kEval || req.op == Op::kTimeline,
                 "field '" + key +
                     "' is only valid on eval/timeline requests");
    if (key == "trace") {
      req.trace = value.as_bool("trace");
      continue;
    }
    if (key == "trace_id") {
      req.trace_id = value.as_string("trace_id");
      RAMP_REQUIRE(!req.trace_id.empty() && req.trace_id.size() <= 128,
                   "trace_id must be 1..128 bytes");
      for (const char c : req.trace_id) {
        RAMP_REQUIRE(static_cast<unsigned char>(c) >= 0x20 && c != 0x7f,
                     "trace_id must be printable");
      }
      continue;
    }
    if (key == "points") {
      RAMP_REQUIRE(req.op == Op::kTimeline,
                   "field 'points' is only valid on timeline requests");
      req.points = as_u64_field(value, "points");
      RAMP_REQUIRE(*req.points >= 2, "points must be at least 2");
      continue;
    }
    if (key == "app") {
      req.app = value.as_string("app");
    } else if (key == "node") {
      req.node = scaling::parse_tech(value.as_string("node"));
      req.has_node = true;
    } else if (key == "trace_len") {
      req.trace_len = as_u64_field(value, "trace_len");
      RAMP_REQUIRE(*req.trace_len > 0, "trace_len must be positive");
    } else if (key == "seed") {
      req.seed = as_u64_field(value, "seed");
    } else if (key == "pin_sink") {
      req.pin_sink = value.as_bool("pin_sink");
    } else if (key == "sink_k") {
      req.sink_k = value.as_number("sink_k");
      RAMP_REQUIRE(req.sink_k >= 0.0, "sink_k must be non-negative");
    } else if (key == "stage_cache") {
      req.stage_cache = value.as_bool("stage_cache");
    } else {
      throw InvalidArgument("unknown request field '" + key + "'");
    }
  }

  if (req.op == Op::kEval || req.op == Op::kTimeline) {
    RAMP_REQUIRE(!req.app.empty(), "eval request needs an \"app\" field");
    workloads::workload(req.app);  // validates the name, throws when unknown
  }
  return req;
}

Json result_json(const pipeline::AppTechResult& r) {
  const auto mech = r.raw_fits.by_mechanism();
  Json fit = Json::object();
  fit.set("em", mech[0])
      .set("sm", mech[1])
      .set("tddb", mech[2])
      .set("tc", mech[3])
      .set("total", r.raw_fits.total());

  Json out = Json::object();
  out.set("app", r.app)
      .set("node", std::string(scaling::tech_token(r.tech)))
      .set("ipc", r.ipc)
      .set("dynamic_w", r.avg_dynamic_power_w)
      .set("leakage_w", r.avg_leakage_power_w)
      .set("total_w", r.avg_total_power_w)
      .set("max_temp_k", r.max_structure_temp_k)
      .set("sink_temp_k", r.sink_temp_k)
      .set("avg_die_temp_k", r.avg_die_temp_k)
      .set("max_activity", r.max_activity)
      .set("raw_fit", std::move(fit));
  return out;
}

}  // namespace ramp::serve
