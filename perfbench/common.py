"""Shared pieces of the benchmark: building the program, child processes,
statistics, spans and the result line.

Everything the benchmark writes goes under `.bench_build/` in the checkout
it runs from.
"""

import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
JOBS = 2  # compute workers per run: the program plus one generator fit in 4 cores
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ---- paths and build --------------------------------------------------------


def repo_root():
    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"no {need} in {root}: run from the repository root")
    return root


def work_dir(root, *parts):
    path = os.path.join(root, ".bench_build", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _run_logged(cmd, log):
    log.write(("$ " + " ".join(cmd) + "\n").encode())
    log.flush()
    rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError(f"build step failed ({rc}): {' '.join(cmd)}; see {log.name}")


def build(root):
    """Builds the `ramp` CLI and its libraries from source, then the
    benchmark's own C++ helper against them. Incremental after the first run.
    Returns (ramp binary, helper binary)."""
    base = work_dir(root)
    ramp_build = os.path.join(base, "ramp")
    native_build = os.path.join(base, "native")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(base, "build.lock"), "w") as lock, \
            open(os.path.join(base, "build.log"), "ab") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(ramp_build, "CMakeCache.txt")):
            _run_logged(["cmake", "-S", root, "-B", ramp_build,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log)
        _run_logged(["cmake", "--build", ramp_build, "--target", "ramp",
                     "-j", jobs], log)
        if not os.path.exists(os.path.join(native_build, "CMakeCache.txt")):
            _run_logged(["cmake", "-S", os.path.join(BENCH_DIR, "native"),
                         "-B", native_build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         f"-DRAMP_SOURCE_DIR={root}",
                         f"-DRAMP_BUILD_DIR={ramp_build}"], log)
        _run_logged(["cmake", "--build", native_build, "-j", jobs], log)
    ramp = os.path.join(ramp_build, "tools", "ramp")
    native = os.path.join(native_build, "perfbench_native")
    for binary in (ramp, native):
        if not os.access(binary, os.X_OK):
            raise BenchError(f"build produced no {binary}")
    return ramp, native


def clean_env():
    """The environment without RAMP_* overrides, so a caller's settings
    cannot change what the workloads run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RAMP_")}


# ---- child processes --------------------------------------------------------


def now_ns():
    return time.monotonic_ns()


class Child:
    """A child process whose output lines are timestamped as they arrive and
    whose resource usage is collected when it is reaped."""

    def __init__(self, cmd, env=None, stdin=subprocess.DEVNULL):
        self.spawn_ns = now_ns()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, stdin=stdin,
                                     env=env if env is not None else clean_env())
        self.out_lines = []
        self.err_lines = []  # (arrival ns, text)
        self.exit_ns = None
        self.rusage = None
        self._readers = [
            threading.Thread(target=self._read, args=(self.proc.stdout, False)),
            threading.Thread(target=self._read, args=(self.proc.stderr, True)),
        ]
        for t in self._readers:
            t.daemon = True
            t.start()

    def _read(self, stream, timestamped):
        for raw in iter(stream.readline, b""):
            line = raw.decode(errors="replace").rstrip("\n")
            if timestamped:
                self.err_lines.append((now_ns(), line))
            else:
                self.out_lines.append(line)
        stream.close()

    @property
    def pid(self):
        return self.proc.pid

    def wait(self, timeout_s):
        """Reaps the child (killing it after `timeout_s`); returns its exit
        code. Peak RSS comes from the kernel's accounting at reap time. The
        wait blocks in the kernel, so this process takes no CPU from the
        child or its load generator meanwhile."""
        timer = threading.Timer(timeout_s, self.proc.kill)
        timer.start()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.exit_ns = now_ns()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for t in self._readers:
            t.join()
        return self.proc.returncode

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.wait(10)

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def stderr_text(self):
        return "\n".join(line for _, line in self.err_lines)


def run_json(cmd, timeout_s, env=None):
    """Runs a helper subcommand and returns the JSON object it prints."""
    child = Child(cmd, env=env)
    rc = child.wait(timeout_s)
    if rc != 0 or not child.out_lines:
        raise BenchError(f"{' '.join(cmd[:2])} failed ({rc}): "
                         f"{child.stderr_text()[-2000:]}")
    return json.loads(child.out_lines[-1])


# ---- statistics -------------------------------------------------------------


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        raise BenchError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(xs, p):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[_rank(p, len(xs)) - 1]


def tail(xs):
    """The highest ladder percentile with at least ten samples beyond it:
    returns (percentile, value, samples)."""
    n = len(xs)
    best = None
    for p in LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    if best is None:
        raise BenchError(f"{n} samples: too few for any percentile with ten beyond")
    return best, percentile(xs, best), n


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---- spans ------------------------------------------------------------------


class Spans:
    """Spans kept in memory during a traced run and written once, at the
    end, as Perfetto (Chrome trace event) JSON."""

    def __init__(self):
        self.events = []

    def add(self, name, layer, start_ns, end_ns, lane=0, **args):
        self.events.append({"name": name, "layer": layer, "start_ns": start_ns,
                            "end_ns": end_ns, "lane": lane, "args": args})

    def extend(self, spans, lane_offset=0):
        for s in spans:
            self.add(s["name"], s["layer"], int(s["start_ns"]), int(s["end_ns"]),
                     int(s.get("lane", 0)) + lane_offset)

    def write(self, path):
        origin = min((e["start_ns"] for e in self.events), default=0)
        trace = [{"name": e["name"], "cat": e["layer"], "ph": "X", "pid": 1,
                  "tid": e["lane"], "ts": (e["start_ns"] - origin) / 1e3,
                  "dur": max(0, e["end_ns"] - e["start_ns"]) / 1e3,
                  "args": e["args"]} for e in self.events]
        with open(path, "w") as f:
            json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, f)


# ---- output -----------------------------------------------------------------


def load_benchmark_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def emit(result, trace):
    """Prints the detail line, then the result line the contract reads:
    exactly the end-to-end metrics (untraced) or the per-layer metrics
    (traced), each with its unit."""
    spec = load_benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
