"""The benchmark's workloads: one `classmax scan` command each, sized by a seed.

The seed only moves `--max` by up to MAX_SHIFT either way, so that no change
can special-case an exact size; seed 0 runs the documented sizes, and only
its stdout digests are stored.  Each golden names a file under `tests/data/`
and the eps block of the output it pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_SHIFT = 0.02
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Golden:
    eps: str  # the eps as the CLI prints it, e.g. "1/50"
    file: str
    # True: the events up to --max are exactly the golden rows, in order.
    # False: every golden row up to --max is one of the events.
    complete: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    signature: str  # "imaginary" or "real"
    lo: int
    base_max: int
    args: tuple[str, ...]  # the scan arguments other than --min/--max
    fmt: str  # "text" or "csv", as set in args
    counters: bool  # --counters is in args
    mode: str  # "maxima" or "minima", as set in args
    small_h: bool  # C is built from h (nongenus); False: from H (raw-H)
    goldens: tuple[Golden, ...]

    def max_for(self, seed: int) -> int:
        if seed == DEFAULT_SEED:
            return self.base_max
        shift = random.Random(seed).uniform(-MAX_SHIFT, MAX_SHIFT)
        return round(self.base_max * (1 + shift))

    def argv(self, hi: int) -> list[str]:
        return ["scan", *self.args, "--min", str(self.lo), "--max", str(hi)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="imag-rescan",
            why="three eps rescans of one (D,N,H) list: record materialization "
            "and the record scan dominate, the real sweep is bypassed",
            signature="imaginary",
            lo=1,
            base_max=300_000,
            args=("--family", "quad-imaginary", "--eps", "1/20", "--eps", "1/50",
                  "--eps", "5/4", "--counters"),
            fmt="text",
            counters=True,
            mode="maxima",
            small_h=True,
            goldens=(
                Golden("1/20", "imag_eps_1_20_nongenus_listed.csv", complete=False),
                Golden("1/50", "imag_eps_1_50_nongenus_table.csv", complete=True),
                Golden("5/4", "imag_eps_5_4_nongenus_listed.csv", complete=False),
            ),
        ),
        Workload(
            name="real-narrow",
            why="rho-cycle table on 2 fork workers is most of the time; eps 0 "
            "ties take the exact comparator route; --shards drives merge_shards",
            signature="real",
            lo=2,
            base_max=150_000,
            args=("--family", "quad-real", "--eps", "0", "--metric", "raw-H",
                  "--shards", "2"),
            fmt="text",
            counters=False,
            mode="maxima",
            small_h=False,
            # Acceptance criterion 8 pins this file as the complete event list.
            goldens=(Golden("0/1", "real_raw_H_listed.csv", complete=True),),
        ),
        Workload(
            name="imag-minima-large",
            why="largest working set (about 300k records): memory per "
            "discriminant, sieves and the form-count table, minima mode",
            signature="imaginary",
            lo=1,
            base_max=1_000_000,
            args=("--family", "quad-imaginary", "--eps", "1", "--mode", "minima",
                  "--compat-minima-init-one", "--format", "csv"),
            fmt="csv",
            counters=False,
            mode="minima",
            small_h=True,
            goldens=(Golden("1/1", "imag_eps_1_minima_listed.csv", complete=False),),
        ),
    )
}
