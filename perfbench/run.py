"""classmax benchmark: run one workload end to end, or traced layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is taken from `src/` next to this
directory, never from an installed package.  Each CLI call is a fresh
`python3 -m classmax.cli scan ...` child process, one at a time, and its
stdout is checked (see golden.py).

--trace 0 first times SETUP_RUNS fresh interpreters that import classmax.cli
and build its parser (setup_s, median), then repeats the workload's command
until the next call would end after S seconds, and reports medians of its
wall time, discriminants per second, process-tree CPU and peak RSS.
--trace 1 runs the command once in-process without spans and once with
spans (tracer.py), checks both outputs and that they are identical, and
reports the per-layer metrics.

The last stdout line is the result object; metric names and units come from
BENCHMARK.json.  The full result, with the environment block, and the span
file are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy

from golden import Expectation
from tracer import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 7
CALL_TIMEOUT_S = 150


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    problems: list[str]


def invoke(cmd: list[str], env: dict, stem: str) -> Call:
    """Run cmd to completion with stdout/stderr in OUT/stem.*; rusage covers
    the child and every descendant it waited for."""
    out_path, err_path = OUT / f"{stem}.out", OUT / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
        )
        timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    problems = []
    if rc != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {rc}: {' | '.join(tail)}")
    return Call(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, out_path.read_bytes(), problems)


def measure_setup(env: dict) -> float:
    cmd = [sys.executable, "-c", "import classmax.cli as c; c.build_parser()"]
    walls = []
    for _ in range(SETUP_RUNS + 1):
        call = invoke(cmd, env, "setup")
        if call.problems:
            raise RuntimeError(f"set-up failed: {call.problems[0]}")
        walls.append(call.wall_s)
    return statistics.median(walls[1:])  # the first call also writes bytecode


def end_to_end(exp: Expectation, argv: list[str], seconds: int, env: dict, stem: str):
    setup_s = measure_setup(env)
    cmd = [sys.executable, "-m", "classmax.cli", *argv]
    calls = []
    start = time.perf_counter()
    while True:
        call = invoke(cmd, env, f"{stem}-{len(calls)}")
        if not call.problems:
            call.problems = exp.check(call.stdout)
        calls.append(call)
        if time.perf_counter() - start + call.wall_s > seconds:
            break
    timed = [c for c in calls if not c.problems] or calls
    metrics = {
        "wall_s": statistics.median(c.wall_s for c in timed),
        "disc_per_s": statistics.median(exp.n_fund / c.wall_s for c in timed),
        "cpu_s": statistics.median(c.cpu_s for c in timed),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in timed),
        "setup_s": setup_s,
    }
    return calls, metrics


def traced(exp: Expectation, argv: list[str], env: dict, stem: str):
    runs = {}
    calls = []
    for label, flags in (("untraced", ["--no-spans"]), ("traced", [])):
        trace_path = OUT / f"{stem}-{label}.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), *flags, "--out", str(trace_path),
               "--", *argv]
        call = invoke(cmd, env, f"{stem}-{label}")
        if not call.problems:
            call.problems = exp.check(call.stdout)
            runs[label] = json.loads(trace_path.read_text())
        calls.append(call)
    if calls[0].stdout != calls[1].stdout:
        calls[1].problems.append("traced stdout differs from untraced stdout")
    if len(runs) < 2:
        return calls, None
    return calls, layer_metrics(runs["traced"], runs["untraced"]["main_s"])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    mem_mb = None
    try:
        with open("/proc/meminfo") as fh:
            mem_mb = int(fh.readline().split()[1]) // 1024
    except (OSError, IndexError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "git_commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="classmax benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    data_dir = ROOT / "tests" / "data"
    for need in (ROOT / "src" / "classmax" / "cli.py", data_dir, ROOT / "BENCHMARK.json"):
        if not need.exists():
            print(f"error: {need} not found; run from a classmax checkout", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    hi = w.max_for(args.seed)
    argv = w.argv(hi)
    digests = json.loads((BENCH / "digests.json").read_text())
    exp = Expectation.build(
        w, hi, data_dir, digests[w.name] if args.seed == DEFAULT_SEED else None
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            calls, metrics = traced(exp, argv, env, stem)
        else:
            calls, metrics = end_to_end(exp, argv, args.seconds, env, stem)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(1 for c in calls if c.problems)
    for i, c in enumerate(calls):
        for problem in c.problems[:5]:
            print(f"call {i}: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no trace to report", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        raise AssertionError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    result = {
        "workload": w.name,
        "seed": args.seed,
        "max": hi,
        "argv": argv,
        "trace": args.trace,
        "env": environment(),
        "calls": [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.peak_rss_mb,
                   "stdout_sha256": hashlib.sha256(c.stdout).hexdigest(),
                   "problems": c.problems} for c in calls],
        "fail_frac": failed / len(calls),
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))
    print(f"workload {w.name} seed {args.seed} max {hi}: classmax {' '.join(argv)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {result['fail_frac']:>16.6g} ({failed}/{len(calls)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
