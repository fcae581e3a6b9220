"""Self-test of the benchmark. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The first run builds the program into .bench_build/ (a few minutes); the
end-to-end cases then take about two minutes."""

import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import fleet  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return common.load_benchmark_spec()


def run_bench(workload, trace, seconds=1, seed=0):
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = [w["name"] for w in s["workloads"]] + \
            [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))

    def test_workloads_match_run_py(self):
        import run
        self.assertEqual(sorted(run.WORKLOADS), sorted(w["name"] for w in spec()["workloads"]))

    def test_emit_prints_exactly_the_spec_names_and_units(self):
        s = spec()
        for trace, key, wanted in ((False, "end_to_end", s["end_to_end"]),
                                   (True, "per_layer", s["per_layer"])):
            result = {"correct": True, "attempted": 3, "failed": 0, "detail": {},
                      key: {m["name"]: 1.5 for m in wanted}}
            buf = io.StringIO()
            with redirect_stdout(buf):
                common.emit(result, trace)
            last = json.loads(buf.getvalue().strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()},
                             {m["name"]: m["unit"] for m in wanted})

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(common.tail(list(range(20)))[0], 50.0)
        self.assertEqual(common.tail(list(range(100)))[0], 90.0)
        self.assertEqual(common.tail(list(range(8000)))[0], 99.0)
        with self.assertRaises(common.BenchError):
            common.tail(list(range(19)))


class AlteredOutputTest(unittest.TestCase):
    """A copy of a real output, altered, must count as failed; the program
    is left alone."""

    @classmethod
    def setUpClass(cls):
        cls.ramp, cls.native = common.build(ROOT)

    def test_altered_sweep_output_fails_its_cells(self):
        with open(sweep.REF_PATH) as f:
            ref = json.load(f)["sets"]["0"]
        out_dir = common.fresh_dir(os.path.join(common.work_dir(ROOT, "selftest"), "sweep"))
        child, rc, cells = sweep.one_sweep(self.ramp, out_dir, sweep.trace_seed(0))
        self.assertEqual(sweep.check(child, rc, cells, out_dir, ref), 0)

        altered = copy.copy(child)
        altered.out_lines = [re.sub(r"^\| gcc( +)\| (\d)", lambda m: f"| gcc{m.group(1)}| {(int(m.group(2)) + 1) % 10}", l)
                             for l in child.out_lines]
        self.assertNotEqual(altered.out_lines, child.out_lines)
        self.assertEqual(sweep.check(altered, rc, cells, out_dir, ref), 1)

        csv = os.path.join(out_dir, "ramp_sweep_cache.csv")
        if os.path.exists(csv):
            copy_dir = common.fresh_dir(out_dir + "-altered")
            with open(csv) as f:
                lines = f.readlines()
            row = next(i for i, l in enumerate(lines) if l.startswith("mgrid,"))
            fields = lines[row].split(",")
            fields[2] += "1"  # one more digit on the IPC
            lines[row] = ",".join(fields)
            with open(os.path.join(copy_dir, "ramp_sweep_cache.csv"), "w") as f:
                f.writelines(lines)
            self.assertEqual(sweep.check(child, rc, cells, copy_dir, ref), 1)
            shutil.rmtree(copy_dir)

    def test_altered_serve_reply_is_wrong(self):
        with open(serve.REF_PATH) as f:
            ref = json.load(f)
        hot, _, _ = serve.universes(ref["apps"])
        runs_dir = common.work_dir(ROOT, "selftest", "serve")
        child, port, _ = serve.setup(self.ramp, runs_dir, 0, hot[:2])
        try:
            replies = serve.loadgen(self.native, port,
                                    [(0, 0, serve.line_of(*k)) for k in hot[:2]],
                                    os.path.join(runs_dir, "q"), closed=True)
            serve.shutdown(child, port)
        finally:
            child.kill()
        sched = [(0, 0, "hit", k) for k in hot[:2]]
        rows = serve.judge(sched, replies, ref["answers"])
        self.assertEqual([r["ok"] for r in rows], [True, True])

        due, sent, recv, reply = replies[1]
        altered = replies[:1] + [(due, sent, recv, reply.replace('"ipc":', '"ipc":1', 1))]
        rows = serve.judge(sched, altered, ref["answers"])
        self.assertEqual([r["wrong"] for r in rows], [False, True])
        self.assertEqual(sum(not r["ok"] for r in rows), 1)

    def test_fleet_cell_outside_contract_is_counted(self):
        with open(fleet.REF_PATH) as f:
            ref = json.load(f)
        cells = copy.deepcopy(ref["cells"])
        self.assertEqual(fleet.judge_cells(cells, ref)[0], 0)
        cells[0]["ipc_node"] *= 1.05
        outside, ipc_err, _ = fleet.judge_cells(cells, ref)
        self.assertEqual(outside, 1)
        self.assertAlmostEqual(ipc_err, 5.0, places=6)


class EndToEndTest(unittest.TestCase):
    """Short real runs: every workload prints exactly the metrics of
    BENCHMARK.json, with their units, and checks its outputs."""

    def check(self, result, metrics):
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in metrics})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_workload_untraced(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                result = run_bench(w["name"], trace=0)
                self.check(result, spec()["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_fleet(self):
        self.check(run_bench("fleet_dvfs", trace=1), spec()["per_layer"])
        self.assertTrue(os.path.exists(os.path.join(ROOT, ".bench_build", "traces",
                                                    "fleet_dvfs.json")))


if __name__ == "__main__":
    unittest.main()
