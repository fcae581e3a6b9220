#!/usr/bin/env python3
"""Find the TCP serve saturation knee and emit BENCH_serve.json.

Boots `ramp serve --listen 127.0.0.1:0` on an ephemeral port, warms the
request key pool with a closed-loop pass, then sweeps *open-loop* offered
load upward (geometric doubling plus a bisection refine) until the server
stops keeping up. Open loop is the honest probe: requests are sent on
schedule whether or not earlier ones completed, so a saturated server
cannot slow the offered load down and hide the knee (coordinated
omission).

Every pass is a schedule file (``due_us<TAB>conn<TAB>json``, one request a
line) run by the repository's one load client, ``perfbench_native
loadgen`` (built as build/tools/perfbench_native); counts and latencies
come from the rows it writes back. Latency runs from each request's due
time, not its send time, so a generator or server that falls behind is
charged for the wait it causes.

A sweep point is "good" when the server kept up: achieved throughput
within 5% of offered, zero transport errors, zero `overloaded` sheds, and
every request answered. The knee is the highest good rate; the summary
records its achieved throughput and p50/p99 latency.

The result is written in the same ``ramp-bench-micro/1`` schema the
micro-kernel gate uses, so scripts/check_bench_regression.py works
unchanged:

  serve_knee_request          ns_per_iter = 1e9 / knee throughput
  serve_half_knee_p50_latency p50 at half the knee rate, in ns
  serve_half_knee_p99_latency p99 at half the knee rate, in ns
  serve_closed_loop_rtt       warm single-in-flight round trip, p50 ns

Latency is sampled at *half* the knee rate, not at the knee itself: right
at the knee the queue is on the edge of instability and percentiles swing
wildly run to run, while at 50% utilization they are reproducible.

All four scale together with machine speed, so the checker's normalized
(geomean) mode compares shape, not hardware: a regression in tail latency
or in the knee sticks out of the pack. Use --absolute only on the machine
the baseline was recorded on.

After the knee is found, a second server is started with per-request
tracing on (``--request-trace``) and driven open-loop at the knee rate.
The server's ``ramp_net_phase_ns_total_*`` counters attribute every traced
nanosecond to a serving phase (read/parse/admission/queue/cache/compute/
serialize/flush); the result lands in the output as a top-level
``attribution`` block — phase totals, fractions that sum to 1, and the
traced-over-plain throughput ratio (the cost of tracing at the knee).
The regression gate only reads the ``benchmarks`` array, so the block is
additive; scripts/check_serve_attribution.py validates its schema.

The server is told to drain with SIGTERM at the end and must exit 0 —
a bench run doubles as a graceful-drain check.

Usage:
  bench_serve.py [--out out/BENCH_serve.json] [--smoke]
      [--ramp build/tools/ramp] [--loadgen build/tools/perfbench_native]
      [--duration 4.0] [--start-rate 500] [--max-rate 2000000]
      [--connections 16] [--jobs N] [--trace-len 3000]

--smoke shortens every phase (CI: prove the loop end-to-end under ASan in
seconds); the knee it finds is still real, just noisier.

Exit status: 0 on success, 1 when the bench itself failed (server died,
warm-up errored, no good point found, unclean drain), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

DEFAULT_OUT = "out/BENCH_serve.json"
SCHEMA = "ramp-bench-micro/1"


def log(msg: str) -> None:
    print(f"bench_serve: {msg}", flush=True)


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


APPS = ("gcc", "gzip", "twolf", "crafty")
NODES = ("180", "130", "90", "65-1.0")
HOT_FRAC = 0.5        # open-loop and RTT passes: half the load on one key
WARM_REQUESTS = 2000  # closed-loop warm-up: covers all 16 keys many times
RTT_REQUESTS = 2000   # closed-loop RTT pass at one request in flight


def build_schedule(rate: float, duration: float, connections: int,
                   hot_frac: float, trace_len: int,
                   seed: int = 42) -> list[tuple[int, int, str]]:
    """``rate`` eval requests a second for ``duration`` s, evenly spaced, as
    ``(due_us, conn, json)`` schedule rows taking connections round-robin.

    Fraction ``hot_frac`` goes to ONE hot key (the first app x node), the
    rest uniformly over the app x node pool: hot-key traffic exercises the
    server's single-flight and cache path, uniform traffic its scheduling
    and miss path. A closed-loop pass ignores due times, so it asks for its
    request count as the rate over 1 s.
    """
    rng = random.Random(seed)
    rows = []
    for i in range(round(rate * duration)):
        app, node = APPS[0], NODES[0]
        if rng.random() >= hot_frac:
            app, node = rng.choice(APPS), rng.choice(NODES)
        line = (f'{{"op":"eval","app":"{app}","node":"{node}",'
                f'"trace_len":{trace_len},"id":{i}}}')
        rows.append((int(i * 1e6 / rate), i % connections, line))
    return rows


def summarize(rows: list[tuple[int, int, int, str]],
              offered_rps: float) -> dict:
    """Counts and latencies of one generator pass from its ``--out`` rows
    ``(due_ns, sent_ns, recv_ns, reply)``; ``recv_ns`` is -1 when the
    request was never answered. Latency runs from the due time, so a
    server that falls behind is charged for the queue it builds."""
    s = {"offered_rps": offered_rps, "sent": len(rows), "completed": 0,
         "ok": 0, "errors": 0, "overloaded": 0}
    lat_ms = []
    for due, _sent, recv, reply in rows:
        if recv < 0:
            continue
        s["completed"] += 1
        lat_ms.append((recv - due) / 1e6)
        try:
            r = json.loads(reply)
        except json.JSONDecodeError:
            r = {}
        if r.get("ok") is True:
            s["ok"] += 1
        elif r.get("overloaded"):
            s["overloaded"] += 1
        else:
            s["errors"] += 1
    lat_ms.sort()
    last_ns = max((recv for _, _, recv, _ in rows), default=0)
    s["achieved_rps"] = s["completed"] / (last_ns / 1e9) if last_ns > 0 else 0.0
    for key, q in (("p50_ms", 0.50), ("p99_ms", 0.99)):
        s[key] = lat_ms[int(q * (len(lat_ms) - 1))] if lat_ms else 0.0
    return s


def run_loadgen(loadgen: str, port: int, rows: list[tuple[int, int, str]],
                path: str, timeout_s: float, closed: bool = False,
                offered_rps: float = 0.0) -> dict | None:
    """Runs one ``perfbench_native loadgen`` pass over ``rows``; returns
    its summary (None when the generator failed)."""
    with open(path + ".sched", "w", encoding="utf-8") as f:
        for due_us, conn, line in rows:
            f.write(f"{due_us}\t{conn}\t{line}\n")
    cmd = [loadgen, "loadgen", "--port", str(port),
           "--schedule", path + ".sched", "--out", path + ".out"]
    if closed:
        cmd.append("--closed")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"loadgen timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"loadgen failed (rc {proc.returncode}): {proc.stderr.strip()}")
        return None
    out = []
    with open(path + ".out", encoding="utf-8") as f:
        for raw in f:
            _, due, sent, recv, reply = raw.rstrip("\n").split("\t", 4)
            out.append((int(due), int(sent), int(recv), reply))
    return summarize(out, offered_rps)


def point_is_good(s: dict) -> bool:
    """The server kept up with this offered load."""
    return (s["errors"] == 0
            and s["overloaded"] == 0
            and s["sent"] > 0
            and s["completed"] == s["sent"]
            and s["achieved_rps"] >= 0.95 * s["offered_rps"])


def warm_up(loadgen: str, port: int, path: str, trace_len: int) -> bool:
    """WARM_REQUESTS closed-loop requests uniform over the key pool on 4
    connections, so every key is cached before it is measured; True when
    every request came back ok. Closed loop self-limits while cold."""
    rows = build_schedule(WARM_REQUESTS, 1.0, 4, 0.0, trace_len)
    s = run_loadgen(loadgen, port, rows, path, 120.0, closed=True)
    if s is None or s["ok"] != s["sent"]:
        log(f"warm-up failed: {s}")
        return False
    log(f"warm: {s['completed']} requests, p50 {s['p50_ms']:.3f} ms")
    return True


def open_pass(args: argparse.Namespace, port: int, path: str, rate: float,
              duration: float) -> dict | None:
    """One open-loop pass: ``rate`` requests/second for ``duration`` s."""
    rows = build_schedule(rate, duration, args.connections, HOT_FRAC,
                          args.trace_len)
    return run_loadgen(args.loadgen, port, rows, path, 60.0 + duration * 4,
                       offered_rps=rate)


def read_port(port_file: str, timeout_s: float = 15.0) -> int | None:
    """Polls the server's --port-file until it holds a port number."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(port_file, encoding="utf-8") as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.05)
    return None


def send_op(port: int, line: str, timeout_s: float = 30.0) -> dict | None:
    """One NDJSON request/response round trip on a fresh connection."""
    try:
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout_s) as sock:
            sock.sendall((line + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf.decode())
    except (OSError, json.JSONDecodeError) as e:
        log(f"control op failed ({line}): {e}")
        return None


def drain_server(server: subprocess.Popen, what: str) -> int | None:
    """SIGTERMs `server` and waits for a graceful exit; returns its rc."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        return server.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        server.kill()
        log(f"FAIL: {what} did not drain within 30s of SIGTERM")
        return None


def attribution_pass(args: argparse.Namespace, tmp: str, knee_rps: float,
                     duration: float) -> dict | None:
    """Drives the knee rate against a tracing-on server; attributes it.

    Returns the ``attribution`` block for BENCH_serve.json, or None when
    the pass failed. Phase totals come from the server's own
    ``ramp_net_phase_ns_total_*`` counters, so they include time the
    client cannot see (queue wait, flush).
    """
    port_file = os.path.join(tmp, "traced_port")
    cmd = [args.ramp, "serve", "--listen", "127.0.0.1:0",
           "--port-file", port_file, "--no-persist", "--request-trace",
           "--trace-len", str(args.trace_len), "--out-dir", tmp]
    if args.jobs > 0:
        cmd += ["--jobs", str(args.jobs)]
    log(f"attribution: starting traced server: {' '.join(cmd)}")
    server = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        port = read_port(port_file)
        if port is None:
            log("attribution: traced server never published a port")
            return None
        if not warm_up(args.loadgen, port, os.path.join(tmp, "traced_warm"),
                       args.trace_len):
            log("attribution: warm-up on the traced server failed")
            return None
        # Zero the counters so the snapshot attributes the knee-rate pass
        # alone, not the warm-up.
        if send_op(port, '{"op":"metrics_reset"}') is None:
            return None
        traced = open_pass(args, port, os.path.join(tmp, "traced"), knee_rps,
                           duration)
        if traced is None or traced["completed"] == 0:
            log("attribution: traced load pass failed")
            return None
        snap = send_op(port, '{"op":"metrics","format":"json"}')
        if snap is None or not snap.get("ok"):
            log("attribution: metrics snapshot failed")
            return None
        counters = snap.get("snapshot", {}).get("counters", {})
        prefix = "ramp_net_phase_ns_total_"
        phase_ns = {name[len(prefix):]: int(v)
                    for name, v in counters.items()
                    if name.startswith(prefix)}
        total = sum(phase_ns.values())
        if not phase_ns or total <= 0:
            log("attribution: no traced nanoseconds booked")
            return None
        ratio = traced["achieved_rps"] / knee_rps if knee_rps > 0 else 0.0
        log("attribution: phase breakdown at the knee rate "
            f"({traced['achieved_rps']:.0f} rps traced, "
            f"{ratio:.2f}x the plain knee):")
        for name, ns in sorted(phase_ns.items(), key=lambda kv: -kv[1]):
            log(f"    {name:<10} {ns / total:7.2%}  ({ns} ns)")
        return {
            "rate_rps": knee_rps,
            "requests": int(traced["completed"]),
            "traced_achieved_rps": traced["achieved_rps"],
            "traced_over_plain": ratio,
            "phase_ns": phase_ns,
            "phase_fraction": {n: ns / total for n, ns in phase_ns.items()},
        }
    finally:
        rc = drain_server(server, "traced server")
        if rc != 0:
            log(f"attribution: traced server exited {rc} after SIGTERM")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--ramp", default="build/tools/ramp")
    parser.add_argument("--loadgen", default="build/tools/perfbench_native")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds per open-loop sweep point")
    parser.add_argument("--start-rate", type=float, default=500.0)
    parser.add_argument("--max-rate", type=float, default=2e6,
                        help="sweep ceiling, requests/second")
    parser.add_argument("--connections", type=int, default=16)
    parser.add_argument("--jobs", type=int, default=0,
                        help="server worker threads (0 = ramp default)")
    parser.add_argument("--trace-len", type=int, default=3000,
                        help="per-key trace length; small keeps warm-up "
                             "fast and puts the load on the serving stack, "
                             "not the physics")
    parser.add_argument("--smoke", action="store_true",
                        help="short CI pass: 1s points, no bisection "
                             "refine (knee granularity is a factor of 2)")
    args = parser.parse_args()

    duration = 1.0 if args.smoke else args.duration
    refine_steps = 0 if args.smoke else 2
    max_doublings = 14

    tmp = tempfile.mkdtemp(prefix="bench_serve.")
    port_file = os.path.join(tmp, "port")
    server_cmd = [args.ramp, "serve", "--listen", "127.0.0.1:0",
                  "--port-file", port_file, "--no-persist",
                  "--trace-len", str(args.trace_len),
                  "--out-dir", tmp]
    if args.jobs > 0:
        server_cmd += ["--jobs", str(args.jobs)]
    log(f"starting server: {' '.join(server_cmd)}")
    server = subprocess.Popen(server_cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    try:
        port = read_port(port_file)
        if port is None:
            log("FAIL: server never published a port")
            return 1
        # Warm every key in the pool so the sweep measures the serving
        # stack on cache hits, not first-touch physics.
        if not warm_up(args.loadgen, port, os.path.join(tmp, "warm"),
                       args.trace_len):
            log("FAIL: warm-up pass failed")
            return 1

        # Warm closed-loop RTT at single occupancy: the floor latency a
        # client sees when the server is idle.
        rtt = run_loadgen(args.loadgen, port,
                          build_schedule(RTT_REQUESTS, 1.0, 1, HOT_FRAC,
                                         args.trace_len),
                          os.path.join(tmp, "rtt"), 120.0, closed=True)
        if rtt is None or rtt["ok"] != rtt["sent"]:
            log(f"FAIL: closed-loop RTT pass failed: {rtt}")
            return 1
        log(f"closed-loop RTT: p50 {rtt['p50_ms']:.3f} ms "
            f"({rtt['achieved_rps']:.0f} rps at 1 in flight)")

        def sweep_point(rate: float) -> dict | None:
            s = open_pass(args, port, os.path.join(tmp, f"point_{rate:.0f}"),
                          rate, duration)
            if s is None:
                return None
            verdict = "ok" if point_is_good(s) else "saturated"
            log(f"  offered {rate:>10.0f} rps -> achieved "
                f"{s['achieved_rps']:>10.0f} rps, p50 {s['p50_ms']:.3f} ms, "
                f"p99 {s['p99_ms']:.3f} ms, overloaded {s['overloaded']}, "
                f"errors {s['errors']} [{verdict}]")
            return s

        log(f"open-loop sweep: {duration:.0f}s points, "
            f"{args.connections} connections")
        knee: dict | None = None
        first_bad: float | None = None
        rate = args.start_rate
        for _ in range(max_doublings):
            point = sweep_point(rate)
            if point is None:
                log("FAIL: sweep point did not complete")
                return 1
            if point_is_good(point):
                knee = point
                rate *= 2.0
                if rate > args.max_rate:
                    break
            else:
                first_bad = rate
                break
        if knee is None:
            log(f"FAIL: server cannot sustain even "
                f"{args.start_rate:.0f} rps")
            return 1

        # Bisect between the last good and first bad rate to tighten the
        # knee estimate beyond factor-of-two.
        if first_bad is not None:
            lo, hi = knee["offered_rps"], first_bad
            for _ in range(refine_steps):
                mid = (lo + hi) / 2.0
                point = sweep_point(mid)
                if point is None:
                    break
                if point_is_good(point):
                    knee, lo = point, mid
                else:
                    hi = mid

        knee_rps = knee["achieved_rps"]
        log(f"knee: {knee_rps:.0f} rps "
            f"(p50 {knee['p50_ms']:.3f} ms, p99 {knee['p99_ms']:.3f} ms)")

        # Latency figures come from a point at HALF the knee rate: stable
        # 50% utilization, where percentiles reproduce run to run.
        log("latency point at half the knee rate:")
        half = sweep_point(knee_rps / 2.0)
        if half is None or not point_is_good(half):
            log("FAIL: half-knee latency point did not hold "
                "(knee estimate unstable)")
            return 1

        # Attribute the knee: same offered rate, tracing on, the server's
        # own phase counters. Runs on a second server so the gated numbers
        # above always come from a tracing-off configuration.
        attribution = attribution_pass(args, tmp, knee_rps, duration)
        if attribution is None:
            log("FAIL: knee attribution pass failed")
            return 1

        doc = {
            "schema": SCHEMA,
            "commit": git_commit(),
            "attribution": attribution,
            "benchmarks": [
                {"op": op, "ns_per_iter": ns, "iterations": int(n),
                 "items_per_second": 1e9 / ns}
                for op, ns, n in (
                    ("serve_knee_request", 1e9 / knee_rps, knee["completed"]),
                    ("serve_half_knee_p50_latency", half["p50_ms"] * 1e6,
                     half["completed"]),
                    ("serve_half_knee_p99_latency", half["p99_ms"] * 1e6,
                     half["completed"]),
                    ("serve_closed_loop_rtt", rtt["p50_ms"] * 1e6,
                     rtt["completed"]))
            ],
        }
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        log(f"wrote {args.out}")
    finally:
        # SIGTERM must drain gracefully: finish in-flight work, flush,
        # exit 0. An unclean exit fails the bench.
        rc = drain_server(server, "server")
        stderr_tail = (server.stderr.read() or "").strip()
        shutil.rmtree(tmp, ignore_errors=True)
    if rc != 0:
        log(f"FAIL: server exited {rc} after SIGTERM (wanted a clean "
            f"drain): {stderr_tail}")
        return 1
    log("server drained cleanly on SIGTERM (exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
