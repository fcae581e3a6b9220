"""serve_mixed: `ramp serve --listen` over NDJSON/TCP, driven open-loop by
one generator process on a seeded schedule over 4 connections.

The mix, at RATE requests/s:
  hit    result-cache hits on a 32-key hot set warmed during set-up;
  reuse  a new explicit sink_k on a warm (app, node): the stage store
         answers sim and power, so only thermal and fit are computed;
  miss   a fresh trace seed with pin_sink false: one new sim, no 180 nm
         base run.
Every answer is checked against a committed per-key digest."""

import json
import os
import random
import socket
import time

import common
import probe

TRACE_LEN = 50_000
RATE = 400.0          # offered requests/s
CONNECTIONS = 4
BLOCK = 50            # requests per block of the class mix
MISS_FRAC = 0.02      # p99 of 8000 requests falls mid-way through the misses
REUSE_FRAC = 0.04
LIMIT_MS = 1000.0     # goodput latency limit
SETUPS = 3
MAX_SECONDS = 60      # the reuse and miss universes cover 60 s of schedule
HOT_NODES = ("65-1.0", "90")
# A miss is one new sim: a fresh trace seed with pin_sink false, so no
# 180 nm base run joins it and every miss costs the same kind of work.
MISS_NODES = ("180", "130", "90", "65-0.9", "65-1.0")
MISS_SEEDS = tuple(range(1001, 1009))
SINKS_K = tuple(325.0 + j for j in range(32))
REF_PATH = os.path.join(common.BENCH_DIR, "refs", "serve_mixed.json")


def key_of(app, node, seed=None, sink=None):
    return f"{app}|{node}|{'' if seed is None else seed}|{'' if sink is None else sink}"


def line_of(app, node, seed=None, sink=None):
    req = {"op": "eval", "app": app, "node": node}
    if seed is not None:
        req["seed"] = seed
        req["pin_sink"] = False
    if sink is not None:
        req["sink_k"] = sink
    return json.dumps(req, separators=(",", ":"))


def universes(app_names):
    hot = [(a, n, None, None) for a in app_names for n in HOT_NODES]
    reuse = [(a, n, None, s) for a, n, _, _ in hot for s in SINKS_K]
    miss = [(a, n, s, None) for a in app_names for n in MISS_NODES for s in MISS_SEEDS]
    return hot, reuse, miss


def schedule(seed, seconds, app_names):
    """[(due_us, connection, class, key tuple)] for `seconds` of requests
    due at a fixed RATE. Each block of BLOCK requests holds exactly
    BLOCK * MISS_FRAC misses and BLOCK * REUSE_FRAC reuses at seeded
    positions, so misses never bunch into bursts whose queueing would swing
    the tail from run to run. Reuse and miss keys are drawn without
    replacement, so each is new to the server; what is left over feeds the
    idle probes."""
    rng = random.Random(seed)
    hot, reuse, miss = universes(app_names)
    rng.shuffle(reuse)
    rng.shuffle(miss)
    n_miss = round(BLOCK * MISS_FRAC)
    n_reuse = round(BLOCK * REUSE_FRAC)
    out = []
    for i in range(int(seconds * RATE)):
        if i % BLOCK == 0:
            slots = rng.sample(range(BLOCK), n_miss + n_reuse)
            classes = dict.fromkeys(slots[:n_miss], "miss")
            classes.update(dict.fromkeys(slots[n_miss:], "reuse"))
        cls = classes.get(i % BLOCK, "hit")
        key = {"miss": miss.pop, "reuse": reuse.pop}.get(cls, lambda: rng.choice(hot))()
        out.append((int((i + 0.5) * 1e6 / RATE), rng.randrange(CONNECTIONS), cls, key))
    return out, reuse, miss


class Client:
    """Blocking NDJSON client for set-up and control requests."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.file = self.sock.makefile("rb")

    def ask(self, lines):
        self.sock.sendall("".join(l + "\n" for l in lines).encode())
        return [json.loads(self.file.readline()) for _ in lines]

    def close(self):
        self.file.close()
        self.sock.close()


def boot(ramp, out_dir):
    """Starts a server; returns (child, port, seconds to the port file)."""
    port_file = os.path.join(out_dir, "port")
    child = common.Child([ramp, "serve", "--listen", "127.0.0.1:0",
                          "--port-file", port_file, "--jobs", str(common.JOBS),
                          "--trace-len", str(TRACE_LEN), "--out-dir", out_dir,
                          "--stage-cache"])
    deadline = time.monotonic() + 60
    while not os.path.exists(port_file):
        if child.proc.poll() is not None or time.monotonic() > deadline:
            child.kill()
            raise common.BenchError("server did not start: " + child.stderr_text())
        time.sleep(0.0005)
    with open(port_file) as f:
        port = int(f.read())
    return child, port, (common.now_ns() - child.spawn_ns) / 1e9


def shutdown(child, port):
    try:
        c = Client(port)
        c.ask(['{"op":"shutdown"}'])
        c.close()
    except OSError:
        pass
    if child.wait(60) != 0:
        raise common.BenchError("server exited with an error: " + child.stderr_text()[-2000:])


def setup(ramp, runs_dir, k, hot):
    """Boot plus warming the hot set; returns (child, port, seconds)."""
    out_dir = common.fresh_dir(os.path.join(runs_dir, f"server{k}"))
    child, port, boot_s = boot(ramp, out_dir)
    t = common.now_ns()
    c = Client(port)
    replies = c.ask([line_of(*key) for key in hot])
    c.close()
    if not all(r.get("ok") for r in replies):
        child.kill()
        raise common.BenchError("warming the hot set failed")
    return child, port, boot_s + (common.now_ns() - t) / 1e9


def loadgen(native, port, rows, path, closed=False):
    """Runs the generator on [(due_us, conn, line)]; returns per request
    (due_ns, sent_ns, recv_ns, reply) with times from the schedule start."""
    sched = path + ".sched"
    with open(sched, "w") as f:
        for due, conn, line in rows:
            f.write(f"{due}\t{conn}\t{line}\n")
    cmd = [native, "loadgen", "--port", str(port), "--schedule", sched,
           "--out", path + ".out"]
    if closed:
        cmd.append("--closed")
    common.run_json(cmd, timeout_s=170)
    out = []
    with open(path + ".out") as f:
        for raw in f:
            idx, due, sent, recv, reply = raw.rstrip("\n").split("\t", 4)
            out.append((int(due), int(sent), int(recv), reply))
    return out


def result_body(reply):
    """The wire `result` object: the last member of an eval reply."""
    i = reply.rfind('"result":')
    return reply[i + len('"result":'):-1] if i >= 0 and reply.endswith("}") else None


def judge(sched, replies, answers):
    """Per-request outcome: latency_ms (None when failed), class, flags."""
    rows = []
    for (due_us, conn, cls, key), (due, sent, recv, reply) in zip(sched, replies):
        row = {"cls": cls, "conn": conn, "due": due, "sent": sent, "recv": recv,
               "ok": False, "refused": False, "wrong": False, "cached": None}
        if recv >= 0 and reply:
            r = json.loads(reply)
            row["refused"] = bool(r.get("overloaded"))
            if r.get("ok"):
                body = result_body(reply)
                row["wrong"] = body is None or common.sha(body) != answers.get(key_of(*key))
                row["ok"] = not row["wrong"]
                row["cached"] = bool(r.get("cached"))
        row["lat_ms"] = (recv - due) / 1e6 if row["ok"] else None
        rows.append(row)
    return rows


def hol_fraction(rows):
    """Share of hits whose reply waited behind an earlier, slower reply on
    the same connection (the request was sent while a reuse or miss ahead
    of it was still unanswered)."""
    blocked = hits = 0
    for conn in range(CONNECTIONS):
        slow_until = -1
        for r in sorted((r for r in rows if r["conn"] == conn), key=lambda r: r["sent"]):
            if r["cls"] == "hit":
                hits += 1
                blocked += r["sent"] < slow_until
            elif r["recv"] >= 0:
                slow_until = max(slow_until, r["recv"])
    return blocked / hits if hits else 0.0


def summarize(rows):
    lat = [r["lat_ms"] if r["ok"] else float("inf") for r in rows]
    tail_p, tail_v, n = common.tail(lat)
    windows = {}
    for r in rows:
        w = r["due"] // 1_000_000_000
        end = r["recv"] if r["recv"] >= 0 else r["due"]
        windows[w] = max(windows.get(w, 0), end - w * 1_000_000_000)
    good = sum(1 for r in rows if r["ok"] and r["lat_ms"] <= LIMIT_MS)
    # The timed phase runs from the first due time to the last reply.
    phase_ns = max(r["recv"] for r in rows) - min(r["due"] for r in rows)
    by_class = {}
    for cls in ("hit", "reuse", "miss"):
        rs = [r for r in rows if r["cls"] == cls]
        by_class[cls] = {
            "sent": len(rs), "ok": sum(r["ok"] for r in rs),
            "refused": sum(r["refused"] for r in rs),
            "failed": sum(not r["ok"] for r in rs),
            "wrong": sum(r["wrong"] for r in rs),
            "class_mismatch": sum(1 for r in rs if r["ok"] and r["cached"] != (cls == "hit")),
            "p50_ms": common.median([r["lat_ms"] for r in rs if r["ok"]]) if any(r["ok"] for r in rs) else 0.0,
        }
    lag = [(r["sent"] - r["due"]) / 1e6 for r in rows]
    return {
        "p50_ms": common.median(lat), "tail_ms": tail_v, "tail_percentile": tail_p,
        "samples": n, "wall_s": common.median(list(windows.values())) / 1e9,
        "throughput": good / (phase_ns / 1e9), "by_class": by_class,
        "gen_lag_p99_ms": common.percentile(lag, 99.0),
        "hol_frac": hol_fraction(rows),
    }


def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def measure(ramp, native, root, seed, seconds, setups, idle_probes):
    """Set-ups, then the timed open-loop phase; with `idle_probes`, the
    closed-loop probes run on the same server afterwards."""
    if seconds > MAX_SECONDS:
        raise common.BenchError(f"serve_mixed runs at most {MAX_SECONDS} s")
    with open(REF_PATH) as f:
        ref = json.load(f)
    answers = ref["answers"]
    hot, _, _ = universes(ref["apps"])
    sched, reuse_left, miss_left = schedule(seed, seconds, ref["apps"])
    runs_dir = common.work_dir(root, "runs", "serve_mixed")

    setup_s = []
    child = port = None
    idle = None
    try:
        for k in range(setups):
            if child is not None:
                shutdown(child, port)
            child, port, s = setup(ramp, runs_dir, k, hot)
            setup_s.append(s)
        cpu0 = cpu_seconds(child.pid)
        replies = loadgen(native, port, [(d, c, line_of(*key)) for d, c, _, key in sched],
                          os.path.join(runs_dir, "timed"))
        cpu1 = cpu_seconds(child.pid)
        c = Client(port)
        stats = c.ask(['{"op":"stats"}'])[0]["stats"]
        c.close()
        if idle_probes:
            idle = idle_probe(native, port, runs_dir, hot, reuse_left, miss_left, answers)
        shutdown(child, port)
    finally:
        if child is not None:
            child.kill()

    rows = judge(sched, replies, answers)
    s = summarize(rows)
    wrong = sum(r["wrong"] for r in rows)
    failed = sum(not r["ok"] for r in rows)
    e2e = {"setup_s": common.median(setup_s), "wall_s": s["wall_s"],
           "throughput": s["throughput"], "p50_ms": s["p50_ms"],
           "tail_ms": s["tail_ms"], "peak_rss_mb": child.peak_rss_mb}
    detail = {"workload": "serve_mixed", "seed": seed, "requests": len(rows),
              "tail_percentile": s["tail_percentile"], "tail_samples": s["samples"],
              "setups": len(setup_s), "by_class": s["by_class"],
              "gen_lag_p99_ms": s["gen_lag_p99_ms"], "hol_frac": s["hol_frac"],
              "stats": stats}
    result = {"correct": wrong == 0, "attempted": len(rows), "failed": failed,
              "end_to_end": e2e, "detail": detail}
    return result, rows, s, stats, idle, cpu1 - cpu0


def run(ramp, native, root, seed, seconds):
    return measure(ramp, native, root, seed, seconds, SETUPS, False)[0]


def idle_probe(native, port, runs_dir, hot, reuse_left, miss_left, answers):
    """Idle, closed-loop probes on the same server after the timed phase:
    the transport round trip (health), and one request of each class with
    nothing else in flight."""
    def closed(rows, name):
        return loadgen(native, port, rows, os.path.join(runs_dir, name), closed=True)

    health = closed([(0, 0, '{"op":"health"}')] * 300, "rtt")
    idle_hit = closed([(0, 0, line_of(*hot[i % len(hot)])) for i in range(300)], "idle_hit")
    idle_reuse = closed([(0, 0, line_of(*k)) for k in reuse_left[:8]], "idle_reuse")
    idle_miss = closed([(0, 0, line_of(*k)) for k in miss_left[:8]], "idle_miss")
    for rows, keys in ((idle_reuse, reuse_left[:8]), (idle_miss, miss_left[:8])):
        for (_, _, _, reply), key in zip(rows, keys):
            body = result_body(reply)
            if body is None or common.sha(body) != answers.get(key_of(*key)):
                raise common.BenchError("idle probe answer disagrees with the reference")
    c = Client(port)
    prom = c.ask(['{"op":"metrics","format":"prometheus"}'])[0].get("prometheus", "")
    c.close()

    def ms(rows):
        return common.median([(recv - sent) / 1e6 for _, sent, recv, _ in rows])
    return {"rtt_ms": ms(health), "idle_hit_ms": ms(idle_hit),
            "idle_reuse_ms": ms(idle_reuse), "idle_miss_ms": ms(idle_miss),
            "store": probe.store_counts(prom)}


def traced(ramp, native, root, seed, seconds, base):
    """After an untraced run (`base`): the same schedule again on one
    freshly set-up server, with a span per request, then the idle probes
    and a layer probe on serve cells."""
    result, rows, s, stats, extra, server_cpu_s = measure(
        ramp, native, root, seed, seconds, 1, True)
    spans = common.Spans()
    idle = {"hit": extra["idle_hit_ms"], "reuse": extra["idle_reuse_ms"],
            "miss": extra["idle_miss_ms"]}
    total = unattributed = 0.0
    prev_recv = {}
    for r in sorted(rows, key=lambda r: r["sent"]):
        if not r["ok"]:
            continue
        lane = 1 + r["conn"]
        lag = r["sent"] - r["due"]
        hol = max(0, prev_recv.get(r["conn"], 0) - r["sent"])
        hol = min(hol, r["recv"] - r["sent"])
        prev_recv[r["conn"]] = r["recv"]
        lat = r["recv"] - r["due"]
        rest = lat - lag - hol - idle[r["cls"]] * 1e6
        total += lat
        unattributed += max(0.0, rest)
        spans.add(r["cls"], "serve", r["due"], r["recv"], lane=lane,
                  gen_lag_ns=lag, hol_ns=hol)
    layer = probe.run(native, root, TRACE_LEN, 42, spans)
    out = probe.defaults()
    out.update(layer)
    out.update(extra["store"])
    bc = s["by_class"]
    out.update({
        "sim.instructions": out.get("pipeline.store.sim.misses", 0.0) * TRACE_LEN,
        "pipeline.sweep.cell_p50_ms": layer["cell_ms"],
        "pipeline.sweep.parallel_eff": server_cpu_s / (common.JOBS * seconds),
        "serve.hit_p50_ms": bc["hit"]["p50_ms"],
        "serve.reuse_p50_ms": bc["reuse"]["p50_ms"],
        "serve.miss_p50_ms": bc["miss"]["p50_ms"],
        "serve.service.queue_wait_ms": max(0.0, bc["miss"]["p50_ms"] - extra["idle_miss_ms"]),
        "serve.service.hits": stats["hits"],
        "serve.service.misses": stats["misses"],
        "serve.service.coalesced": stats["coalesced"],
        "serve.service.overloaded": sum(c["refused"] for c in bc.values()),
        "serve.service.evictions": stats["evictions"],
        "net.rtt_us": extra["rtt_ms"] * 1e3,
        "net.hol_frac": s["hol_frac"],
        "net.gen_lag_ms": s["gen_lag_p99_ms"],
        "bench.unattributed_frac": unattributed / total if total else 0.0,
        "bench.trace_overhead_frac": probe.overhead(
            result["end_to_end"]["p50_ms"], base["end_to_end"]["p50_ms"]),
    })
    for cls in ("hit", "reuse", "miss"):
        for k in ("sent", "ok", "failed", "refused"):
            out[f"serve.{cls}.{k}"] = bc[cls][k]
    probe.write_trace(spans, root, "serve_mixed")
    return probe.merge(base, out, result["attempted"], result["failed"])
