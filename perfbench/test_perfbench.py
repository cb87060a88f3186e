"""Self-tests of the benchmark, at tiny sizes.  Standard library only:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def tiny(name: str):
    if name == "chain":
        return wl.ProgramWorkload(name, wl.ChainProgram(2, 5), 20, 5)
    if name == "corpus":
        return wl.CorpusWorkload(name, 3)
    kind = name.split(".", 1)[1]
    return wl.ProgramWorkload(name, wl.RebindProgram(kind, 4, 2), 20, 5)


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


class WorkloadTests(unittest.TestCase):
    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], wl.NAMES)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in wl.NAMES:
            with self.subTest(workload=name):
                res = tiny(name).measure(seed=3, seconds=0.2)
                metrics = run.end_to_end(res)
                self.assertEqual(units(metrics), spec)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))
                self.assertGreater(res.attempted, 0)
                self.assertEqual(res.failed, 0)

    def test_traced_run_emits_every_per_layer_metric(self):
        spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in wl.NAMES:
            with self.subTest(workload=name):
                tracer = spans.Tracer()
                plain, res, sizes = tiny(name).traced(5, tracer)
                self.assertEqual(units(run.per_layer(tracer, plain, res, sizes)),
                                 spec)
                self.assertEqual(plain.failed + res.failed, 0)

    def test_counts_repeat_for_one_seed(self):
        def counts(name):
            tracer = spans.Tracer()
            metrics = run.per_layer(tracer, *tiny(name).traced(7, tracer))
            return {k: v for k, (v, unit) in metrics.items() if unit == "count"}
        for name in wl.NAMES:
            with self.subTest(workload=name):
                self.assertEqual(counts(name), counts(name))

    def test_wrappers_are_removed_after_a_traced_run(self):
        before = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
        tiny("chain").traced(1, spans.Tracer())
        after = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
        self.assertEqual(before, after)


class GateTests(unittest.TestCase):
    def failed(self, program) -> int:
        with redirect_stderr(io.StringIO()):
            return wl.ProgramWorkload("chain", program, 20, 5).measure(1, 0.2).failed

    def test_chain_gate_rejects_a_wrong_tail(self):
        class OffByOne(wl.ChainProgram):
            def expect(self, mem, driver, v):
                super().expect(mem, driver, v)
                g = int(driver[3:])
                mem[f"c{g}_{self.links}"] = str(v + self.links + 1)
        self.assertEqual(self.failed(wl.ChainProgram(2, 5)), 0)
        self.assertGreater(self.failed(OffByOne(2, 5)), 0)

    def test_rebind_gate_rejects_a_fan_reapplied_on_retarget(self):
        class Reapplies(wl.RebindProgram):
            def expect(self, mem, driver, v):
                super().expect(mem, driver, v)
                base = int(mem[mem["p"][1:]]) + int(mem[f"arr[{mem['i']}]"])
                for k in range(self.fan):
                    mem[f"f{k}"] = str(base + k)
        self.assertEqual(self.failed(wl.RebindProgram("retarget", 4, 2)), 0)
        self.assertGreater(self.failed(Reapplies("retarget", 4, 2)), 0)


class CommandTests(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "chain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
