"""Golden tables end to end, each through the CLI to its last listed D.

Tier-1 checks these goldens only to 10^6; these runs take minutes each, so
the default run deselects them (the `golden_full` marker).  Run them with

    python -m pytest -m golden_full tests/test_goldens_full.py

Each test also recomputes every event's H with the per-discriminant
reference of `classnum`, which the sweeps must match bit for bit.  A
mismatch is a finding about classmax or about the golden, not a reason to
edit the golden.
"""

import decimal
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from classmax import classnum, cli

pytestmark = pytest.mark.golden_full

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def scan_rows(argv) -> list[dict]:
    """The event lines of a text-format scan, run in a child process, as
    dicts with D (as |D_K|), H, h, N, C and the eps of their block; with
    --counters, also the ND, N1, N2, ... of the counter line after each."""
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run(
        [sys.executable, "-m", "classmax.cli", "scan", *argv],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    rows = []
    lines = iter(run.stdout.splitlines())
    for line in lines:
        if line.startswith("eps="):
            eps = line.removeprefix("eps=")
        elif line.startswith("D_K="):
            row = dict(field.split("=", 1) for field in line.split())
            row["D"] = str(abs(int(row.pop("D_K"))))
            if "--counters" in argv:
                row.update(field.split("=", 1) for field in next(lines).split())
            rows.append({**row, "eps": eps})
    return rows


def key(row: dict) -> tuple[int, int, int, int]:
    return int(row["D"]), int(row["H"]), int(row["h"]), int(row["N"])


def assert_reference_h(rows: list[dict], real: bool) -> None:
    """Every event's H equals classnum's narrow_class_number_real(D) (real)
    or class_number_imaginary(-D), each distinct D computed once."""
    h_of = {int(r["D"]): int(r["H"]) for r in rows}
    for d, big_h in h_of.items():
        want = classnum.narrow_class_number_real(d) if real else classnum.class_number_imaginary(-d)
        assert big_h == want, (d, big_h, want)


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
    assert_reference_h(got, real=True)


def last_unit(x: decimal.Decimal, digits: int = 19) -> decimal.Decimal:
    """One unit in the last of x's first `digits` significant digits."""
    return decimal.Decimal(1).scaleb(x.adjusted() - digits + 1)


def round_digits(x: decimal.Decimal, digits: int = 19) -> decimal.Decimal:
    """x rounded half-even to 19 (or `digits`) significant digits."""
    return x.quantize(last_unit(x, digits), rounding=decimal.ROUND_HALF_EVEN)


def exact_c(h: int, d: int, eps: Fraction = Fraction(1)) -> decimal.Decimal:
    """h / d^(eps/2) to 80 digits."""
    ctx = decimal.Context(prec=80)
    half = ctx.divide(decimal.Decimal(eps.numerator), decimal.Decimal(2 * eps.denominator))
    return ctx.divide(decimal.Decimal(h), ctx.exp(ctx.multiply(half, ctx.ln(decimal.Decimal(d)))))


def correctly_rounded(h: int, d: int, eps: Fraction = Fraction(1)) -> decimal.Decimal:
    """h / d^(eps/2) to 19 significant digits, from an 80-digit value that
    is checked to lie clear of a rounding boundary."""
    exact = exact_c(h, d, eps)
    rounded = round_digits(exact)
    unit = last_unit(rounded)
    assert abs(abs(exact - rounded) - unit / 2) > unit.scaleb(-50), (h, d, eps)
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
    assert_reference_h(list(got.values()), real=False)
    for row in gold:
        ours = got.get(int(row["D"]))
        assert ours is not None and key(ours) == key(row), row
        c_ours, c_gold = decimal.Decimal(ours["C"]), round_digits(decimal.Decimal(row["C"]))
        if c_ours != c_gold:
            unit = decimal.Decimal(1).scaleb(c_ours.adjusted() - 18)
            want = correctly_rounded(int(row["h"]), int(row["D"]))
            assert abs(c_ours - c_gold) == unit and c_ours == want, (row, ours["C"])


def test_imaginary_nongenus_to_the_last_row(data_rows):
    """One scan to 106105271, the last D of the eps = 1 table, at eps = 1/20
    and eps = 1.  At eps = 1 the events are the table's 56 rows, in order,
    on D, H, h and N; at eps = 1/20 each of the table's 30 rows is among the
    313 events.  Every C that classmax prints is h / D^(eps/2) correctly
    rounded to 19 significant digits.  The tables' C carry 18 or 19 digits
    and lie within one unit in their last digit of that value; 30 of the 86
    rows are not its correctly rounded digits."""
    got = scan_rows(
        ["--family", "quad-imaginary", "--max", "106105271", "--eps", "1/20", "--eps", "1",
         "--shards", "2"]
    )
    assert_reference_h(got, real=False)
    for row in got:
        want = correctly_rounded(int(row["h"]), int(row["D"]), Fraction(row["eps"]))
        assert decimal.Decimal(row["C"]) == want, row
    ones = [r for r in got if r["eps"] == "1/1"]
    twentieths = {key(r) for r in got if r["eps"] == "1/20"}
    gold_ones = data_rows("imag_eps_1_nongenus_listed.csv")
    gold_twentieths = data_rows("imag_eps_1_20_nongenus_listed.csv")
    assert [key(r) for r in ones] == [key(r) for r in gold_ones]
    assert all(key(r) in twentieths for r in gold_twentieths)
    for eps, gold in ((Fraction(1), gold_ones), (Fraction(1, 20), gold_twentieths)):
        for row in gold:
            c_gold = decimal.Decimal(row["C"])
            exact = exact_c(int(row["h"]), int(row["D"]), eps)
            assert abs(c_gold - exact) < last_unit(c_gold, len(c_gold.as_tuple().digits)), row


def test_real_eps_1_50_nongenus_to_the_last_row(data_rows):
    """The real eps = 1/50 table to its last D, 34574401, with counters.
    The events are the table's 25 rows, in order, on D, H, h and N, and each
    event's counter line is the row's ND, N1, N2 and N3.  Every C that
    classmax prints is h / D^(1/100) correctly rounded to 19 significant
    digits.  The table's C carry 19 or 20 digits (9 rows carry 20), and 5
    of its 19-digit strings are not the correctly rounded digits; all but
    one lie within one unit in their last digit of the exact value: D =
    90001 is listed as 77.62056135842406069 and the value is
    77.6205613584240606799576..., 1.004 units below."""
    eps = Fraction(1, 50)
    gold = data_rows("real_eps_1_50_nongenus_table.csv")
    assert int(gold[-1]["D"]) == 34_574_401
    got = scan_rows(
        ["--family", "quad-real", "--min", "2", "--max", "34574401", "--eps", "1/50",
         "--counters", "--shards", "2"]
    )
    assert [key(r) for r in got] == [key(r) for r in gold]
    counters = ("ND", "N1", "N2", "N3")
    assert [[r[c] for c in counters] for r in got] == [[r[c] for c in counters] for r in gold]
    assert [got[-1][c] for c in counters] == ["10509357", "24", "1", "0"]
    assert_reference_h(got, real=True)
    for row in got:
        want = correctly_rounded(int(row["h"]), int(row["D"]), eps)
        assert decimal.Decimal(row["C"]) == want, row
    beyond_a_unit = []
    for row in gold:
        c_gold = decimal.Decimal(row["C"])
        exact = exact_c(int(row["h"]), int(row["D"]), eps)
        if not abs(c_gold - exact) < last_unit(c_gold, len(c_gold.as_tuple().digits)):
            beyond_a_unit.append(row["D"])
    assert beyond_a_unit == ["90001"]
