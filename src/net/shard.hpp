// Multi-process sharding: N forked workers, one proxying front.
//
// `ramp serve --listen A:P --shards N` turns into
//
//   parent: bind N ephemeral shard listeners → fork N workers (each inherits
//           exactly its own listener fd and runs a full net::Server over its
//           own EvalService) → bind A:P → proxy client lines to shards.
//
// Evals route by consistent hash on their trace-stage key (eval_route_key,
// see hash_ring.hpp): every cell of one (app, trace length, seed) — the
// 180 nm base a pinned request needs, the sims two nodes share — lands on
// one shard, so each shard's stage store owns a disjoint slice of the
// keyspace and per-key single-flight coalescing holds across every client
// of the whole front. Ops without a cache key (stats, fleet,
// timeline, trace_dump) route by a stable hash of the raw line; `health`
// is answered by the front itself (it owns the transport state); `metrics`
// and `metrics_reset` fan out to *every* worker and the front merges the
// parts (per-bucket histogram sums) into one coherent payload — a single
// shard's registry only ever saw its slice of the keyspace. Malformed
// lines are answered by the front directly.
//
// Ordering. The front keeps one upstream connection per shard, shared by
// all clients. Each forwarded line is remembered in that upstream's FIFO;
// since a net::Server answers strictly in request order per connection,
// response k on the upstream is response to forward k, which the FIFO maps
// back to the issuing client's own in-order queue. A client's responses
// therefore arrive in its request order even when they ran on different
// shards.
//
// Drain. SIGTERM (drain_flag) or any client's `shutdown` op: the front
// stops accepting/reading, delivers everything outstanding, sends
// `shutdown` to every shard, waits for the workers to drain and exit, and
// returns 0 (or the first non-zero worker exit code).
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>

#include "net/socket.hpp"
#include "pipeline/evaluator.hpp"
#include "serve/request.hpp"

namespace ramp::net {

struct ShardFrontOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0: ephemeral (reported via on_listening)
  std::size_t shards = 2;
  std::size_t vnodes = 64;  ///< hash-ring smoothing (see hash_ring.hpp)
  std::size_t max_connections = 256;
  /// Base evaluation config — must match the workers' — so the front
  /// resolves the same effective trace length and seed they do.
  pipeline::EvaluationConfig base_config{};
  volatile std::sig_atomic_t* drain_flag = nullptr;
  /// Called once the front socket is bound and listening (port reporting).
  std::function<void(std::uint16_t port)> on_listening;
};

/// Runs in the forked worker: build a per-shard EvalService (disjoint cache
/// directories!) and run a net::Server on the inherited listener. The
/// return value becomes the worker's exit code.
using ShardMain = std::function<int(std::size_t shard, OwnedFd listener)>;

/// The key the front routes an eval request by: the canonical trace-stage
/// key of its app at the effective trace length and seed under `base`.
/// Requests differing only in node, sink or pinning share it.
std::string eval_route_key(const serve::EvalRequest& req,
                           const pipeline::EvaluationConfig& base);

/// Forks the workers, then proxies until drained. Returns the front's exit
/// code: 0 when the front and every worker drained cleanly.
int run_sharded_front(const ShardFrontOptions& opts,
                      const ShardMain& child_main);

}  // namespace ramp::net
