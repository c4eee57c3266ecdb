"""Self-tests for the benchmark itself, at small sizes (about half a minute).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

from golden import Expectation
from tracer import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / "tests" / "data"
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_MAX = 5000
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(prefix: list[str], argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *prefix, *argv], env=ENV, cwd=ROOT, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return proc.stdout


def event_lines(text: str) -> list[int]:
    return [i for i, line in enumerate(text.splitlines(True))
            if line.startswith("D_K=") or line.count(",") == 7]


def change_digit(line: str, from_end: int) -> str:
    """Bump the digit `from_end` characters before the end of the line."""
    i = len(line.rstrip("\n")) - from_end
    return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1 :]


class CheckerTest(unittest.TestCase):
    def test_rejects_changed_digit_and_dropped_row(self):
        for w in WORKLOADS.values():
            with self.subTest(workload=w.name):
                exp = Expectation.build(w, SMALL_MAX, DATA, None)
                text = run_cli(["-m", "classmax.cli"], w.argv(SMALL_MAX))
                self.assertEqual(exp.check(text.encode()), [])
                lines = text.splitlines(True)
                i = event_lines(text)[3]
                for from_end in (1, 8):  # last digit of C, and one in the middle
                    bad = lines[:i] + [change_digit(lines[i], from_end)] + lines[i + 1 :]
                    self.assertNotEqual(exp.check("".join(bad).encode()), [])
                dropped = lines[:i] + lines[i + 1 + w.counters :]
                self.assertNotEqual(exp.check("".join(dropped).encode()), [])

    def test_digest_mismatch_fails(self):
        w = WORKLOADS["real-narrow"]
        text = run_cli(["-m", "classmax.cli"], w.argv(SMALL_MAX))
        exp = Expectation.build(w, SMALL_MAX, DATA, "0" * 64)
        self.assertEqual(exp.check(text.encode()), [
            "stdout differs from the stored default-seed digest"
        ])


class MetricNameTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(pattern.fullmatch(name), name)
        self.assertEqual({m["name"] for m in SPEC["workloads"]}, set(WORKLOADS))


class TracedRunTest(unittest.TestCase):
    def test_traced_and_untraced_stdout_identical(self):
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        tracer = str(BENCH / "tracer.py")
        OUT.mkdir(exist_ok=True)
        for w in WORKLOADS.values():
            with self.subTest(workload=w.name):
                argv = w.argv(SMALL_MAX)
                plain = run_cli(["-m", "classmax.cli"], argv)
                traces = {}
                for label, flags in (("untraced", ["--no-spans"]), ("traced", [])):
                    out = str(OUT / f"selftest-{w.name}-{label}.json")
                    self.assertEqual(run_cli([tracer, *flags, "--out", out, "--"], argv), plain)
                    with open(out) as fh:
                        traces[label] = json.load(fh)
                metrics = layer_metrics(traces["traced"], traces["untraced"]["main_s"])
                self.assertEqual(set(metrics), per_layer)
                self.assertTrue(all(s["run"] == traces["traced"]["run_id"]
                                    for s in traces["traced"]["spans"]))


if __name__ == "__main__":
    unittest.main()
