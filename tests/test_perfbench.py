"""The benchmark's ties to the program: perfbench/tracer.py wraps module
attributes of classmax by name, so a rename under src/ would break it without
this check, and the stored seed-0 digests pin each workload's stdout."""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = {"sweep.table", "sweep.records", "maxima.scan", "maxima.merge", "cli.render"}


def _run(args: list[str], text: bool = True) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=text, timeout=120
    )


def _perfbench_files() -> set[pathlib.Path]:
    return set((ROOT / "perfbench").rglob("*"))


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--family", "quad-imaginary", "--max", "5000", "--eps", "1/20", "--counters"],
        ["scan", "--family", "quad-real", "--min", "2", "--max", "5000", "--eps", "0",
         "--metric", "raw-H", "--shards", "2"],
    ],
    ids=["imaginary", "real-raw-sharded"],
)
def test_tracer_spans_every_layer(tmp_path, argv):
    before = _perfbench_files()
    out = tmp_path / "t.json"
    traced = _run(["perfbench/tracer.py", "--out", str(out), "--", *argv])
    plain = _run(["-m", "classmax.cli", *argv])
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout and plain.stdout
    names = {span["name"] for span in json.loads(out.read_text())["spans"]}
    assert SPANS <= names, SPANS - names
    assert _perfbench_files() == before


DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_stdout_matches_digest(monkeypatch, name):
    """Each workload's seed-0 command, run through the CLI, prints exactly
    the bytes whose sha256 perfbench/digests.json stores."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # nothing under perfbench/
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    w = workloads.WORKLOADS[name]
    run = _run(["-m", "classmax.cli", *w.argv(w.max_for(workloads.DEFAULT_SEED))], text=False)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
