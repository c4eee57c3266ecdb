"""Output checker for the benchmark's CLI runs.

`check` parses one run's stdout and returns a list of problems; an empty list
means the run is correct.  Besides the goldens in `tests/data/`, it checks
every printed event on its own: ascending D, N = omega(|D|), h = H / 2^(N-1),
strictly monotone record values, counter snapshots, the final ND total
against an independent count of fundamental discriminants, and C as the
correctly rounded 19-digit value of h / |D|^(eps/2), which catches a change
to any single digit.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from workloads import Golden, Workload

GOLDEN_REL_TOL = 1e-12
C_DIGITS = 19
# A printed C may sit this many units in its last place from the true value:
# half a unit for the rounding, plus slack for mpmath's decimal double rounding.
C_ULP_TOL = Decimal("0.51")

_REF = mpmath.mp.clone()
_REF.dps = 50


class BadOutput(ValueError):
    pass


@dataclass
class Event:
    d: int  # |D|
    H: int
    h: int
    n: int
    c: str
    nd: int | None = None
    buckets: tuple[int, ...] | None = None


@dataclass
class Scan:
    events: list[Event] = field(default_factory=list)
    total: int | None = None
    final_buckets: tuple[int, ...] | None = None


def _fields(line: str) -> dict[str, str]:
    try:
        return dict(part.split("=", 1) for part in line.split())
    except ValueError:
        raise BadOutput(f"malformed line {line!r}") from None


def _number(text: str) -> str:
    try:
        Decimal(text)
    except ArithmeticError:
        raise BadOutput(f"C={text!r} is not a number") from None
    return text


def parse_text(text: str, counters: bool) -> dict[str, Scan]:
    scans: dict[str, Scan] = {}
    scan = None
    pending_counter = False
    for line in text.splitlines():
        if line.startswith("eps="):
            scan = scans.setdefault(line[4:], Scan())
            pending_counter = False
            continue
        if scan is None:
            raise BadOutput(f"line before the first eps block: {line!r}")
        f = _fields(line)
        if "D_K" in f:
            if pending_counter:
                raise BadOutput(f"event without its counter line before {line!r}")
            scan.events.append(
                Event(abs(int(f["D_K"])), int(f["H"]), int(f["h"]), int(f["N"]), _number(f["C"]))
            )
            pending_counter = counters
        elif "ND" in f:
            nd = int(f.pop("ND"))
            buckets = tuple(int(v) for v in f.values())
            if pending_counter:
                scan.events[-1].nd, scan.events[-1].buckets = nd, buckets
                pending_counter = False
            elif scan.total is not None:
                raise BadOutput(f"second total line {line!r}")
            else:
                scan.total, scan.final_buckets = nd, buckets
        else:
            raise BadOutput(f"unexpected line {line!r}")
    return scans


def parse_csv(text: str) -> dict[str, Scan]:
    scans: dict[str, Scan] = {}
    for row in csv.reader(text.splitlines()):
        if len(row) != 8:
            raise BadOutput(f"csv row with {len(row)} fields: {row!r}")
        eps, d_signed, f, big_h, small_h, n, n_fields, c = row
        d = abs(int(d_signed))
        if int(f) != d or n_fields != "1":
            raise BadOutput(f"csv row {row!r}: f must be |D_K| and nK 1")
        scans.setdefault(eps, Scan()).events.append(
            Event(d, int(big_h), int(small_h), int(n), _number(c))
        )
    return scans


def omega(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def count_fundamental(signature: str, lo: int, hi: int) -> int:
    """Number of fundamental discriminants D with lo <= |D| <= hi."""
    sq = np.ones(hi + 1, dtype=bool)
    for k in range(2, int(hi**0.5) + 1):
        sq[k * k :: k * k] = False
    n = np.arange(hi + 1)
    m = n // 4
    if signature == "imaginary":
        odd, even = n % 4 == 3, np.isin(m % 4, (1, 2))
    else:
        odd, even = n % 4 == 1, np.isin(m % 4, (2, 3))
    mask = (odd & sq) | ((n % 4 == 0) & even & sq[m])
    mask[:3] = False
    return int(mask[lo:].sum())


def reference_value(num: int, d: int, eps: str):
    e = Fraction(eps)
    return _REF.mpf(num) / _REF.power(d, _REF.mpf(e.numerator) / (2 * e.denominator))


def _c_error(printed: str, ref) -> str | None:
    value = Decimal(printed)
    sign, digits, exponent = value.as_tuple()
    if sign or len(digits) != C_DIGITS:
        return f"C={printed} is not a positive {C_DIGITS}-digit value"
    ulps = abs(value - Decimal(_REF.nstr(ref, 40))) / Decimal(1).scaleb(exponent)
    if ulps > C_ULP_TOL:
        return f"C={printed} is {ulps:.3g} units in the last place from {_REF.nstr(ref, 25)}"
    return None


def check_events(w: Workload, eps: str, scan: Scan, hi: int) -> list[str]:
    problems = []
    prev = None
    counts = [0, 0, 0]
    for ev in scan.events:
        where = f"eps={eps} D={ev.d}"
        if not w.lo <= ev.d <= hi or (prev is not None and ev.d <= prev[0]):
            problems.append(f"{where}: out of range or order")
        if ev.n != omega(ev.d) or ev.H != ev.h << (ev.n - 1):
            problems.append(f"{where}: N={ev.n} H={ev.H} h={ev.h} inconsistent")
        ref = reference_value(ev.h if w.small_h else ev.H, ev.d, eps)
        err = _c_error(ev.c, ref)
        if err:
            problems.append(f"{where}: {err}")
        if prev is not None and (ref <= prev[1] if w.mode == "maxima" else ref >= prev[1]):
            problems.append(f"{where}: value does not beat the previous record")
        # Minima workloads start from --compat-minima-init-one.
        if w.mode == "minima" and prev is None and ref >= 1:
            problems.append(f"{where}: first minimum does not beat the initial 1")
        if w.counters:
            counts[min(ev.n, 3) - 1] += 1
            if ev.nd is None or ev.buckets != tuple(counts):
                problems.append(f"{where}: counters {ev.nd} {ev.buckets}, buckets want {counts}")
            elif prev is not None and prev[2] is not None and ev.nd <= prev[2]:
                problems.append(f"{where}: ND not increasing")
        prev = (ev.d, ref, ev.nd)
    return problems


def check_total(scan: Scan, eps: str, n_fund: int) -> list[str]:
    counts = [0, 0, 0]
    for ev in scan.events:
        counts[min(ev.n, 3) - 1] += 1
    if scan.total != n_fund or scan.final_buckets != tuple(counts):
        return [f"eps={eps}: total ND={scan.total} {scan.final_buckets}, "
                f"want ND={n_fund} {tuple(counts)}"]
    return []


def check_golden(g: Golden, rows: list[dict], scan: Scan, lo: int, hi: int) -> list[str]:
    rows = [r for r in rows if lo <= int(r["D"]) <= hi]
    problems = []
    if g.complete and [e.d for e in scan.events] != [int(r["D"]) for r in rows]:
        problems.append(f"eps={g.eps}: event list differs from complete golden {g.file}")
    by_d = {e.d: e for e in scan.events}
    for r in rows:
        d = int(r["D"])
        ev = by_d.get(d)
        where = f"eps={g.eps} D={d} ({g.file})"
        if ev is None:
            problems.append(f"{where}: golden row missing from the output")
            continue
        if (ev.H, ev.h, ev.n) != (int(r["H"]), int(r["h"]), int(r["N"])):
            problems.append(f"{where}: H,h,N = {ev.H},{ev.h},{ev.n}")
        if "C" in r and abs(float(ev.c) / float(r["C"]) - 1) > GOLDEN_REL_TOL:
            problems.append(f"{where}: C={ev.c}, golden {r['C']}")
        if "ND" in r:
            want = (int(r["ND"]), tuple(int(r[f"N{i}"]) for i in (1, 2, 3)))
            if (ev.nd, ev.buckets) != want:
                problems.append(f"{where}: counters {ev.nd} {ev.buckets}, golden {want}")
    return problems


@dataclass
class Expectation:
    """Everything a run of one workload at one size is checked against."""

    workload: Workload
    hi: int
    n_fund: int
    golden_rows: dict[str, list[dict]]
    digest: str | None  # sha256 of stdout, stored for the default seed only

    @classmethod
    def build(cls, w: Workload, hi: int, data_dir: Path, digest: str | None):
        rows = {}
        for g in w.goldens:
            with open(data_dir / g.file, newline="") as fh:
                rows[g.file] = list(csv.DictReader(fh))
        return cls(w, hi, count_fundamental(w.signature, w.lo, hi), rows, digest)

    def check(self, stdout: bytes) -> list[str]:
        w = self.workload
        try:
            text = stdout.decode()
            scans = parse_text(text, w.counters) if w.fmt == "text" else parse_csv(text)
        except (ValueError, KeyError) as exc:
            return [f"unparsable output: {exc}"]
        want_eps = [g.eps for g in w.goldens]
        if list(scans) != want_eps:
            return [f"eps blocks {list(scans)}, want {want_eps}"]
        problems = []
        for g in w.goldens:
            scan = scans[g.eps]
            problems += check_events(w, g.eps, scan, self.hi)
            problems += check_golden(g, self.golden_rows[g.file], scan, w.lo, self.hi)
            if w.fmt == "text":
                problems += check_total(scan, g.eps, self.n_fund)
        if self.digest is not None and hashlib.sha256(stdout).hexdigest() != self.digest:
            problems.append("stdout differs from the stored default-seed digest")
        return problems
