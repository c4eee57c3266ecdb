"""Golden tables end to end, each through the CLI to its last listed D.

Tier-1 checks these goldens only to 10^6; these runs take minutes each, so
the default run deselects them (the `golden_full` marker).  Run them with

    python -m pytest -m golden_full tests/test_goldens_full.py

A mismatch is a finding about classmax or about the golden, not a reason to
edit the golden.
"""

import decimal
import os
import subprocess
import sys

import pytest

from classmax import cli

pytestmark = pytest.mark.golden_full

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def scan_rows(argv) -> list[dict]:
    """The event lines of a text-format scan, run in a child process, as
    dicts with D (as |D_K|), H, h, N and C."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "classmax.cli", "scan", *argv],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    rows = []
    for line in run.stdout.splitlines():
        if line.startswith("D_K="):
            row = dict(field.split("=", 1) for field in line.split())
            row["D"] = str(abs(int(row.pop("D_K"))))
            rows.append(row)
    return rows


def key(row: dict) -> tuple[int, int, int, int]:
    return int(row["D"]), int(row["H"]), int(row["h"]), int(row["N"])


@pytest.mark.parametrize(
    "metric, name, last_d",
    [("raw-H", "real_raw_H_listed.csv", 7_064_521), ("raw-h", "real_raw_h_listed.csv", 7_290_001)],
    ids=["raw_H", "raw_h"],
)
def test_real_raw_maxima_to_the_last_row(data_rows, metric, name, last_d):
    """Every event of the raw scan to the golden's last D, and no other, in
    order, on D, H, h and N."""
    gold = data_rows(name)
    assert int(gold[-1]["D"]) == last_d
    got = scan_rows(
        ["--family", "quad-real", "--min", "2", "--max", str(last_d), "--eps", "0",
         "--metric", metric, "--shards", "2"]
    )
    assert [key(r) for r in got] == [key(r) for r in gold]


def nineteen_digits(x: decimal.Decimal) -> decimal.Decimal:
    """x rounded half-even to 19 significant digits."""
    unit = decimal.Decimal(1).scaleb(x.adjusted() - 18)
    return x.quantize(unit, rounding=decimal.ROUND_HALF_EVEN)


def correctly_rounded(h: int, d: int) -> decimal.Decimal:
    """h / sqrt(d) to 19 significant digits, from an 80-digit quotient that
    is checked to lie clear of a rounding boundary."""
    ctx = decimal.Context(prec=80)
    exact = ctx.divide(decimal.Decimal(h), ctx.sqrt(decimal.Decimal(d)))
    rounded = nineteen_digits(exact)
    unit = decimal.Decimal(1).scaleb(rounded.adjusted() - 18)
    assert abs(abs(exact - rounded) - unit / 2) > unit.scaleb(-50), (h, d)
    return rounded


def test_imaginary_eps_one_minima_readme_example(data_rows):
    """The README's --max 50000000 minima example, which starts from C = 1.
    Every golden row is among its events, on D, H, h and N.  Its C equals
    the golden's C rounded to 19 significant digits (26 golden rows carry
    20), or differs from it by one in the last digit where classmax's
    digits are the correctly rounded ones."""
    gold = data_rows("imag_eps_1_minima_listed.csv")
    got = {
        int(r["D"]): r
        for r in scan_rows(
            ["--family", "quad-imaginary", "--max", "50000000", "--eps", "1", "--mode",
             "minima", "--compat-minima-init-one"]
        )
    }
    for row in gold:
        ours = got.get(int(row["D"]))
        assert ours is not None and key(ours) == key(row), row
        c_ours, c_gold = decimal.Decimal(ours["C"]), nineteen_digits(decimal.Decimal(row["C"]))
        if c_ours != c_gold:
            unit = decimal.Decimal(1).scaleb(c_ours.adjusted() - 18)
            want = correctly_rounded(int(row["h"]), int(row["D"]))
            assert abs(c_ours - c_gold) == unit and c_ours == want, (row, ours["C"])
