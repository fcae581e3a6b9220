"""sweep_cold: the paper's 16 x 5 qualified sweep, run cold through the CLI
as users run it (`ramp sweep --jobs 2 --trace-len 200000` into a fresh
--out-dir), back to back for the run's seconds."""

import json
import os
import re

import common
import probe

TRACE_LEN = 200_000
CELLS = 80
INPUT_SETS = 8  # trace seeds with committed references: 42 .. 49
NODES = ("180nm", "130nm", "90nm", "65nm (0.9V)", "65nm (1.0V)")
PROGRESS = re.compile(r"\[sweep\]\s+(\d+)/(\d+)\s+(\S+)\s+(.+?)\s+ipc=.*"
                      r"\(worker (\d+), ([0-9.]+)s\)")
REF_PATH = os.path.join(common.BENCH_DIR, "refs", "sweep_cold.json")


def trace_seed(seed):
    return 42 + seed % INPUT_SETS


def parse_table(stdout_lines):
    """{app|node: printed qualified FIT} from the sweep's stdout table."""
    cells = {}
    for line in stdout_lines:
        parts = [p.strip() for p in line.strip().strip("|").split("|")]
        if len(parts) != 1 + len(NODES) or parts[0] in ("app", ""):
            continue
        for node, value in zip(NODES, parts[1:]):
            cells[f"{parts[0]}|{node}"] = value
    return cells


def csv_rows(path):
    """{app|tech index: row digest} of the sweep CSV's data rows, or None
    when the CLI wrote no CSV."""
    if not os.path.exists(path):
        return None
    rows = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split(",")
            rows[f"{fields[0]}|{fields[1]}"] = common.sha(line.rstrip("\n"))
    return rows


def one_sweep(ramp, out_dir, ramp_seed, metrics_file=None):
    env = common.clean_env()
    env["RAMP_SEED"] = str(ramp_seed)
    cmd = [ramp, "sweep", "--jobs", str(common.JOBS), "--trace-len",
           str(TRACE_LEN), "--out-dir", out_dir]
    if metrics_file:
        cmd.append(f"--metrics={metrics_file}")
    child = common.Child(cmd, env=env)
    rc = child.wait(170)
    cells = []
    for arrival, line in child.err_lines:
        m = PROGRESS.search(line)
        if m:
            cells.append({"app": m.group(3), "node": m.group(4).strip(),
                          "worker": int(m.group(5)),
                          "reported_s": float(m.group(6)), "arrival": arrival})
    return child, rc, cells


def cell_latencies_ms(child, cells):
    """Per-cell latency from the progress stream: the time between a
    worker's consecutive completions, or from process start for a worker's
    first cell."""
    last = {}
    out = []
    for c in sorted(cells, key=lambda c: c["arrival"]):
        out.append((c["arrival"] - last.get(c["worker"], child.spawn_ns)) / 1e6)
        last[c["worker"]] = c["arrival"]
    return out


def check(child, rc, cells, out_dir, ref):
    """Number of cells that failed or disagree with the reference."""
    if rc != 0 or len(cells) != CELLS:
        return CELLS
    table = parse_table(child.out_lines)
    bad = {k for k, v in ref["table"].items() if table.get(k) != v}
    bad |= set(table) - set(ref["table"])
    rows = csv_rows(os.path.join(out_dir, "ramp_sweep_cache.csv"))
    if rows is not None:
        bad |= {k for k, v in ref["csv_rows"].items() if rows.get(k) != v}
    return min(CELLS, len(bad))


def run(ramp, native, root, seed, seconds):
    with open(REF_PATH) as f:
        ref = json.load(f)["sets"][str(seed % INPUT_SETS)]
    ramp_seed = trace_seed(seed)
    runs_dir = common.work_dir(root, "runs", "sweep_cold")
    sweeps = []
    failed = 0
    phase = common.now_ns()
    while not sweeps or (common.now_ns() - phase) / 1e9 < seconds:
        out_dir = common.fresh_dir(os.path.join(runs_dir, f"out{len(sweeps)}"))
        child, rc, cells = one_sweep(ramp, out_dir, ramp_seed)
        bad = check(child, rc, cells, out_dir, ref)
        failed += bad
        if cells:
            first = min(c["arrival"] for c in cells)
            sweeps.append({"wall_s": (child.exit_ns - child.spawn_ns) / 1e9,
                           "setup_s": (first - child.spawn_ns) / 1e9,
                           "rss": child.peak_rss_mb,
                           "lat_ms": cell_latencies_ms(child, cells),
                           "bad": bad})
        else:
            sweeps.append({"bad": bad})
    good = [s for s in sweeps if "wall_s" in s]
    if not good:
        raise common.BenchError("no sweep completed")
    lat = [x for s in good for x in s["lat_ms"]]
    tail_p, tail_v, n = common.tail(lat)
    wall = common.median([s["wall_s"] for s in good])
    e2e = {
        "setup_s": common.median([s["setup_s"] for s in good]),
        "wall_s": wall,
        "throughput": CELLS / wall,
        "p50_ms": common.median(lat),
        "tail_ms": tail_v,
        "peak_rss_mb": common.median([s["rss"] for s in good]),
    }
    attempted = CELLS * len(sweeps)
    detail = {"workload": "sweep_cold", "seed": seed, "ramp_seed": ramp_seed,
              "sweeps": len(sweeps), "cells": len(lat),
              "tail_percentile": tail_p, "tail_samples": n,
              "bad_cells": [s["bad"] for s in sweeps]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "detail": detail}


def traced(ramp, native, root, seed, seconds, base):
    """After an untraced run (`base`): one sweep with a span on every cell
    and the store counters from the CLI's metrics dump, then a layer probe
    on sweep cells."""
    with open(REF_PATH) as f:
        ref = json.load(f)["sets"][str(seed % INPUT_SETS)]
    ramp_seed = trace_seed(seed)
    runs_dir = common.work_dir(root, "runs", "sweep_cold")
    spans = common.Spans()
    out_dir = common.fresh_dir(os.path.join(runs_dir, "traced"))
    metrics_file = os.path.join(out_dir, "metrics.prom")
    child, rc, cells = one_sweep(ramp, out_dir, ramp_seed, metrics_file)
    bad = check(child, rc, cells, out_dir, ref)
    wall_ns = child.exit_ns - child.spawn_ns
    spans.add("ramp sweep", "bench", child.spawn_ns, child.exit_ns, lane=0)
    busy_ns = 0
    for c in cells:
        dur = int(c["reported_s"] * 1e9)
        busy_ns += dur
        spans.add(f"{c['app']}@{c['node']}", "pipeline", c["arrival"] - dur,
                  c["arrival"], lane=1 + c["worker"])
    layer = probe.run(native, root, TRACE_LEN, ramp_seed, spans)
    counts = probe.store_counts_from_prometheus(metrics_file)
    per_layer = probe.defaults()
    per_layer.update(layer)
    per_layer.update(counts)
    wall_s = wall_ns / 1e9
    per_layer.update({
        "sim.instructions": CELLS * TRACE_LEN,
        "pipeline.sweep.cell_p50_ms": common.median(
            [c["reported_s"] * 1e3 for c in cells]),
        "pipeline.sweep.parallel_eff": busy_ns / (common.JOBS * wall_ns),
        "bench.unattributed_frac": 1.0 - busy_ns / (common.JOBS * wall_ns),
        "bench.trace_overhead_frac": probe.overhead(wall_s, base["end_to_end"]["wall_s"]),
    })
    probe.write_trace(spans, root, "sweep_cold")
    return probe.merge(base, per_layer, CELLS, bad)
