// Evaluation request codec: the JSON wire format of `ramp serve`.
//
// Request schema (one JSON object per line):
//   {"op":"eval","app":"gcc","node":"65-1.0",          // required for eval
//    "trace_len":200000,"seed":7,                      // optional overrides
//    "pin_sink":true,                                  // default true
//    "sink_k":356.0,                                   // explicit sink target
//    "stage_cache":true,                               // default true
//    "id":...}                                         // echoed verbatim
//   {"op":"stats"}    {"op":"metrics","format":"prometheus"|"json"}
//   {"op":"metrics_reset"}    {"op":"shutdown"}
//   {"op":"health"}      // readiness probe (uptime, conns, drain state)
//   {"op":"trace_dump"}  // recent request traces as Perfetto JSON
//   {"op":"timeline", ...eval fields..., "points":64}   // flight recorder
//   {"op":"fleet","scenario":"baseline",               // bounded population
//    "chips":2000,"years":10,"bin":1,"policy":"dvfs",  // scenario overrides
//    "node":"90","seed":7,"id":...}                    // (see session.hpp)
//
// `pin_sink` reproduces the paper's constant-sink-temperature scaling rule:
// the workload's 180 nm run pins the heat-sink temperature the scaled node
// holds. An explicit positive `sink_k` overrides pinning; `pin_sink:false`
// with no `sink_k` evaluates with the base 0.8 K/W convection resistance.
//
// The cache key of an eval request is its target cell's fit-stage key (see
// EvalService), so semantically identical requests (defaults spelled out or
// omitted, node aliases, pin flags that cannot matter at 180 nm, an explicit
// sink_k equal to the pinned one) share one result row.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "pipeline/evaluator.hpp"
#include "scaling/technology.hpp"
#include "serve/json.hpp"

namespace ramp::serve {

enum class Op {
  kEval,
  kStats,
  kMetrics,
  kMetricsReset,
  kShutdown,
  kTimeline,
  kFleet,
  kHealth,
  kTraceDump,
};

struct EvalRequest {
  Op op = Op::kEval;
  std::string app;
  scaling::TechPoint node = scaling::TechPoint::k180nm;
  bool has_node = false;   ///< whether the request spelled `node` out (the
                           ///< fleet op only overrides its preset's tech
                           ///< when it did)
  std::optional<std::uint64_t> trace_len;  ///< overrides base config
  std::optional<std::uint64_t> seed;       ///< overrides base config
  bool pin_sink = true;
  double sink_k = 0.0;     ///< >0: explicit sink target (overrides pinning)
  /// Whether this request may use the service's pipeline::StageStore.
  /// False computes every stage and caches nothing; the answer is the same
  /// (staged output is byte-identical to the monolithic path).
  bool stage_cache = true;
  std::optional<std::uint64_t> points;  ///< timeline op: point budget override
  // Fleet-op fields (op == kFleet only). The preset supplies everything not
  // spelled out; `node` and `seed` above are shared with the eval schema.
  std::string fleet_scenario;            ///< preset name; "" = "baseline"
  std::optional<std::uint64_t> chips;    ///< population size override
  std::optional<double> years;           ///< horizon override
  std::optional<double> bin;             ///< curve bin width override
  std::string fleet_policy;              ///< none|dvfs|migration; "" = preset
  std::string id;          ///< raw JSON of the "id" field, "" when absent
  /// Per-request tracing: `"trace":true` asks the server to attach the phase
  /// breakdown to this response; `"trace_id"` names the trace (1..128
  /// printable bytes; server-generated when absent). Neither affects the
  /// result or its key.
  bool trace = false;
  std::string trace_id;
  /// Metrics op only: response payload format, "prometheus" (default) or
  /// "json" (the to_ndjson snapshot, with raw histogram buckets).
  std::string metrics_format;

  /// The effective evaluation config: `base` with this request's overrides.
  pipeline::EvaluationConfig effective_config(
      const pipeline::EvaluationConfig& base) const;
};

/// Parses one request line; throws InvalidArgument on malformed JSON,
/// unknown ops/fields of the wrong type, or unknown app/node names.
EvalRequest parse_request(const std::string& line);

/// Serializes one evaluation result as the wire "result" object.
Json result_json(const pipeline::AppTechResult& r);

}  // namespace ramp::serve
