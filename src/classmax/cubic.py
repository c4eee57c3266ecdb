"""Cyclic cubic fields: defining polynomials from 4f = a^2 + 27 b^2,
conductor families, and family scan records built on pluggable class numbers.

Class numbers of cubic fields are never computed natively: they come from a
fixture table (offline) or from the external backend bridge.  Family metrics
are multiplicative means, so only products of member class numbers enter the
record values; per-member values are still exposed individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Protocol

from . import arith
from .discriminants import is_cyclic_conductor
from .genus import genus_number_cyclic, nongenus_part
from .maxima import FieldRecord, ScanRecord
from .metric import Epsilon, MetricValue, c_eps, compare, geometric_mean

EXACT_CONDUCTOR = "exact_conductor"
DIVISORS = "divisors"

NONGENUS = "nongenus"
FULL = "full"
PER_FIELD_MAX = "per_field_max"

CUBIC_SIGNATURE = "cubic"


class ClassNumberUnavailable(Exception):
    """No fixture and no backend could supply H for a field."""

    def __init__(self, field: "CubicField"):
        self.field = field
        super().__init__(f"no class number available for f={field.f}, P={field}")


@dataclass(frozen=True)
class CubicField:
    """One cyclic cubic field of conductor f, from the representation
    4f = a^2 + 27 b^2 with the sign of a normalized."""

    f: int
    a: int
    b: int
    coeffs: tuple[int, int, int]  # monic x^3 + c2 x^2 + c1 x + c0
    e3: int

    def __str__(self) -> str:
        c2, c1, c0 = self.coeffs
        parts = ["x^3"]
        if c2 == 1:
            parts.append("+x^2")
        elif c2 == -1:
            parts.append("-x^2")
        elif c2:
            parts.append(f"{c2:+d}*x^2")
        if c1 == 1:
            parts.append("+x")
        elif c1 == -1:
            parts.append("-x")
        elif c1:
            parts.append(f"{c1:+d}*x")
        if c0:
            parts.append(f"{c0:+d}")
        return "".join(parts)


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what}: {num} not divisible by {den}")
    return q


def enumerate_cubic_fields(f: int) -> list[CubicField]:
    """All cyclic cubic fields of conductor exactly f, in ascending-b order.

    Sweeps b with 27 b^2 <= 4f, keeps 4f - 27 b^2 = a^2, and normalizes a:
    for 3 not dividing f, a = -a when a = 1 mod 3; for 9 | f, a = -a when
    a = 3 mod 9, and b divisible by 3 is skipped.
    """
    if not is_cyclic_conductor(3, f):
        raise ValueError(f"{f} is not a cyclic cubic conductor")
    e3 = 2 if f % 9 == 0 else 0
    fields: list[CubicField] = []
    b = 1
    while 27 * b * b <= 4 * f:
        if not (e3 == 2 and b % 3 == 0):
            a2 = 4 * f - 27 * b * b
            a, exact = arith.isqrt_exact(a2)
            if exact and a > 0:
                if e3 == 0:
                    if a % 3 == 1:
                        a = -a
                    c1 = _exact_div(1 - f, 3, "linear coefficient")
                    c0 = _exact_div(f * (a - 3) + 1, 27, "constant coefficient")
                    coeffs = (1, c1, c0)
                else:
                    if a % 9 == 3:
                        a = -a
                    c1 = _exact_div(-f, 3, "linear coefficient")
                    c0 = _exact_div(-f * a, 27, "constant coefficient")
                    coeffs = (0, c1, c0)
                fields.append(CubicField(f=f, a=a, b=b, coeffs=coeffs, e3=e3))
        b += 1
    return fields


def conductor_divisors(f: int) -> list[int]:
    """Valid cyclic cubic conductors dividing f, ascending."""
    return [
        d
        for d in arith.factorize(f).divisors()
        if d > 1 and is_cyclic_conductor(3, d)
    ]


def family_members(f: int, scope: str) -> list[CubicField]:
    """Fields of conductor exactly f, or of every conductor dividing f."""
    if scope == EXACT_CONDUCTOR:
        members = enumerate_cubic_fields(f)
        expected = 1 << (arith.omega(f) - 1)
    elif scope == DIVISORS:
        members = [
            field for fp in conductor_divisors(f) for field in enumerate_cubic_fields(fp)
        ]
        expected = (3 ** arith.omega(f) - 1) // 2
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if len(members) != expected:
        raise ArithmeticError(
            f"conductor {f}: found {len(members)} fields, expected {expected}"
        )
    return members


# ---------------------------------------------------------------------------
# class number sources
# ---------------------------------------------------------------------------


class ClassNumberSource(Protocol):
    def get(self, field: CubicField) -> int | None: ...


class FixtureStore:
    """Class numbers keyed by defining polynomial, from CUBIC,<f>,<c2>,<c1>,<c0>,<H>
    text lines ('#' starts a comment)."""

    def __init__(self) -> None:
        self._by_coeffs: dict[tuple[int, int, int], int] = {}

    @classmethod
    def bundled(cls) -> "FixtureStore":
        store = cls()
        text = (
            resources.files("classmax.fixtures").joinpath("cubic_h.txt").read_text()
        )
        store.load_text(text)
        return store

    @classmethod
    def from_path(cls, path: str) -> "FixtureStore":
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            store.load_text(fh.read())
        return store

    def load_text(self, text: str) -> None:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6 or parts[0] != "CUBIC":
                raise ValueError(f"bad fixture line {lineno}: {raw!r}")
            f, c2, c1, c0, big_h = (int(x) for x in parts[1:])
            if big_h < 1:
                raise ValueError(f"bad class number on fixture line {lineno}")
            if not is_cyclic_conductor(3, f):
                raise ValueError(f"fixture line {lineno}: {f} is not a conductor")
            self._by_coeffs[(c2, c1, c0)] = big_h

    def merge(self, other: "FixtureStore") -> None:
        self._by_coeffs.update(other._by_coeffs)

    def __len__(self) -> int:
        return len(self._by_coeffs)

    def get(self, field: CubicField) -> int | None:
        return self._by_coeffs.get(field.coeffs)


class BackendClassNumbers:
    """Adapter querying the external bridge for CLASSNO_CUBIC."""

    def __init__(self, backend) -> None:
        self._backend = backend

    def get(self, field: CubicField) -> int | None:
        return self._backend.classno_cubic(field.coeffs)


class ChainSource:
    """Try sources in order; first answer wins."""

    def __init__(self, *sources: ClassNumberSource) -> None:
        self._sources = [s for s in sources if s is not None]

    def get(self, field: CubicField) -> int | None:
        for source in self._sources:
            value = source.get(field)
            if value is not None:
                return value
        return None


def class_number_cubic(field: CubicField, source: ClassNumberSource) -> int:
    """Ordinary class number of the field, from fixtures or the backend."""
    value = source.get(field)
    if value is None:
        raise ClassNumberUnavailable(field)
    return value


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------


def _member_data(
    f: int, scope: str, eps: Epsilon, source: ClassNumberSource
) -> list[tuple[CubicField, int, int, MetricValue, MetricValue]]:
    """(field, H, h, C_nongenus, C_full) per member."""
    rows = []
    for member in family_members(f, scope):
        big_h = class_number_cubic(member, source)
        n_mem = arith.omega(member.f)
        small_h = nongenus_part(big_h, genus_number_cyclic(3, n_mem))
        disc = member.f * member.f
        rows.append(
            (
                member,
                big_h,
                small_h,
                c_eps(small_h, disc, eps),
                c_eps(big_h, disc, eps),
            )
        )
    return rows


def family_scan_record(
    f: int,
    scope: str,
    eps: Epsilon | str | int,
    metric_kind: str,
    source: ClassNumberSource,
) -> ScanRecord:
    """One conductor's entry for the maxima engine.

    nongenus / full take the geometric mean of h / sqrt(D)^eps resp.
    H / sqrt(D)^eps over the members; per_field_max takes the largest member
    value of the nongenus metric (the uncorrected per-field record scan).
    """
    eps = Epsilon.of(eps)
    data = _member_data(f, scope, eps, source)
    n_k = len(data)
    n_f = arith.omega(f)
    prod_big = math.prod(r[1] for r in data)
    prod_small = math.prod(r[2] for r in data)
    if metric_kind == NONGENUS:
        value = geometric_mean([r[3] for r in data])
    elif metric_kind == FULL:
        value = geometric_mean([r[4] for r in data])
    elif metric_kind == PER_FIELD_MAX:
        best = data[0]
        for row in data[1:]:
            if compare(row[3], best[3]) > 0:
                best = row
        value = best[3]
    else:
        raise ValueError(f"unknown cubic metric {metric_kind!r}")
    if metric_kind == PER_FIELD_MAX:
        field, big_h, small_h, _, _ = best
        payload = FieldRecord(
            f=f,
            d_signed=None,
            signature=CUBIC_SIGNATURE,
            n_ramified=n_f,
            n_fields=n_k,
            H=big_h,
            h=small_h,
            poly=str(field) if n_k == 1 else None,
        )
    else:
        payload = FieldRecord(
            f=f,
            d_signed=None,
            signature=CUBIC_SIGNATURE,
            n_ramified=n_f,
            n_fields=n_k,
            H=data[0][1] if n_k == 1 else None,
            h=data[0][2] if n_k == 1 else None,
            H_prod=prod_big,
            h_prod_num=prod_small,
            h_prod_den=1,
            poly=str(data[0][0]) if n_k == 1 else None,
        )
    return ScanRecord(key=f, payload=payload, value=value)


def iter_conductors(lo: int, hi: int) -> Iterator[int]:
    """Valid cyclic cubic conductors in [lo, hi], ascending."""
    for f in range(max(lo, 7), hi + 1):
        if f % 9 in (3, 6) or f % 27 == 0:
            continue
        if is_cyclic_conductor(3, f):
            yield f


def iter_family_records(
    lo: int,
    hi: int,
    scope: str,
    eps: Epsilon | str | int,
    metric_kind: str,
    source: ClassNumberSource,
    skip_uncovered: bool = False,
) -> Iterator[ScanRecord]:
    """Family records over ascending conductors.

    With skip_uncovered, conductors whose family is not fully covered by the
    source are left out of the stream (for offline runs against the bundled
    fixtures); otherwise a missing class number raises.
    """
    eps = Epsilon.of(eps)
    for f in iter_conductors(lo, hi):
        if skip_uncovered:
            members = family_members(f, scope)
            if any(source.get(m) is None for m in members):
                continue
        yield family_scan_record(f, scope, eps, metric_kind, source)
