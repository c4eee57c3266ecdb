"""Cyclic cubic fields: defining polynomials from 4f = a^2 + 27 b^2,
conductor families, and family scan records.

Class numbers of cubic fields are never computed natively: a family reads
them through a lookup, a callable from a field to its H or None, such as
FixtureStore.get or that chained with the external backend bridge.  Family
metrics are multiplicative means, so only products of member class numbers
enter the record values; per-member values are still exposed individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key
from importlib import resources
from itertools import combinations
from typing import Callable, Iterator

from . import arith
from .discriminants import conductor_parts
from .genus import genus_number_cyclic, nongenus_part
from .maxima import FieldRecord
from .metric import FULL, NONGENUS, PER_FIELD_MAX, Epsilon, c_eps, compare

# Family scopes, spelt as on the command line.
EXACT_CONDUCTOR = "exact"
DIVISORS = "divisors"


class ClassNumberUnavailable(Exception):
    """No fixture and no backend could supply H for a field."""

    def __init__(self, field: "CubicField"):
        self.field = field
        super().__init__(f"no class number available for f={field.f}, P={field}")


@dataclass(frozen=True)
class CubicField:
    """One cyclic cubic field of conductor f, in which N = n_ramified primes
    ramify, from 4f = a^2 + 27 b^2 with the sign of a normalized."""

    f: int
    a: int
    b: int
    coeffs: tuple[int, int, int]  # monic x^3 + c2 x^2 + c1 x + c0
    n_ramified: int

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
    """All cyclic cubic fields of conductor exactly f, in ascending-b order."""
    return _fields(f, len(_parts(f)))


def _parts(f: int) -> tuple[int, ...]:
    parts = conductor_parts(3, f)
    if not parts:
        raise ValueError(f"{f} is not a cyclic cubic conductor")
    return parts


def _fields(f: int, n_ramified: int) -> list[CubicField]:
    """enumerate_cubic_fields for a conductor f of n_ramified parts.

    Sweeps b with 27 b^2 <= 4f, keeps 4f - 27 b^2 = a^2, and normalizes a:
    for 3 not dividing f, a = -a when a = 1 mod 3; for 9 | f, a = -a when
    a = 3 mod 9, and b divisible by 3 is skipped.  There must be 2^(N-1)
    fields.
    """
    wild = f % 9 == 0
    fields: list[CubicField] = []
    b = 1
    while 27 * b * b <= 4 * f:
        if not (wild and b % 3 == 0):
            a2 = 4 * f - 27 * b * b
            a, exact = arith.isqrt_exact(a2)
            if exact and a > 0:
                if not wild:
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
                fields.append(CubicField(f=f, a=a, b=b, coeffs=coeffs, n_ramified=n_ramified))
        b += 1
    expected = 1 << (n_ramified - 1)
    if len(fields) != expected:
        raise ArithmeticError(f"conductor {f}: found {len(fields)} fields, expected {expected}")
    return fields


def family_members(f: int, scope: str) -> list[CubicField]:
    """Fields of conductor exactly f, or of every conductor dividing f."""
    return _members(_parts(f), scope)


def _members(parts: tuple[int, ...], scope: str) -> list[CubicField]:
    """family_members for the conductor of these parts, with no factorization:
    the conductors dividing it are the products of the nonempty sets of its
    parts, ascending, and N of each is the size of its set."""
    n = len(parts)
    if scope == EXACT_CONDUCTOR:
        conductors = [(math.prod(parts), n)]
    elif scope == DIVISORS:
        conductors = sorted(
            (math.prod(subset), k) for k in range(1, n + 1) for subset in combinations(parts, k)
        )
    else:
        raise ValueError(f"unknown scope {scope!r}")
    return [field for d, k in conductors for field in _fields(d, k)]


# ---------------------------------------------------------------------------
# class numbers
# ---------------------------------------------------------------------------


class FixtureStore:
    """Class numbers keyed by defining polynomial, from CUBIC,<f>,<c2>,<c1>,<c0>,<H>
    text lines ('#' starts a comment), plus the set of conductors f the lines
    name.  Every line's polynomial must define a field of its conductor f, and
    hold one H that the field's genus number divides, so a family of f can be
    covered only if f is in `conductors`.  `get` is a class-number lookup."""

    def __init__(self) -> None:
        self._by_coeffs: dict[tuple[int, int, int], int] = {}
        self.conductors: set[int] = set()

    @classmethod
    def bundled(cls) -> "FixtureStore":
        store = cls()
        text = (
            resources.files("classmax.fixtures").joinpath("cubic_h.txt").read_text()
        )
        store.load_text(text)
        return store

    def load_text(self, text: str) -> None:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tag, *numbers = line.split(",")
            try:
                if tag != "CUBIC":
                    raise ValueError
                f, c2, c1, c0, big_h = (int(x) for x in numbers)
            except ValueError:
                raise ValueError(f"bad fixture line {lineno}: {raw!r}") from None
            if big_h < 1:
                raise ValueError(f"bad class number on fixture line {lineno}")
            at = f"fixture line {lineno}: "
            try:
                fields = enumerate_cubic_fields(f)
            except ValueError:
                raise ValueError(f"{at}{f} is not a conductor") from None
            coeffs = (c2, c1, c0)
            if coeffs not in [field.coeffs for field in fields]:
                raise ValueError(f"{at}{coeffs} does not define a field of conductor {f}")
            genus = genus_number_cyclic(3, fields[0].n_ramified)
            if big_h % genus:
                raise ValueError(f"{at}genus number {genus} does not divide class number {big_h}")
            held = self._by_coeffs.setdefault(coeffs, big_h)
            if held != big_h:
                raise ValueError(f"{at}conflicting class numbers {held} and {big_h} for {coeffs}")
            self.conductors.add(f)

    def __len__(self) -> int:
        return len(self._by_coeffs)

    def get(self, field: CubicField) -> int | None:
        return self._by_coeffs.get(field.coeffs)


# ---------------------------------------------------------------------------
# family records
# ---------------------------------------------------------------------------


def family_class_numbers(
    members: list[CubicField], lookup: Callable[[CubicField], int | None]
) -> list[tuple[CubicField, int, int]]:
    """(field, H, h) per member of a family, H from the class-number lookup
    and h = H / 3^(N-1) for the member's N; the part of a family record that
    does not depend on eps."""
    rows = []
    for member in members:
        big_h = lookup(member)
        if big_h is None:
            raise ClassNumberUnavailable(member)
        genus = genus_number_cyclic(3, member.n_ramified)
        rows.append((member, big_h, nongenus_part(big_h, genus)))
    return rows


def family_scan_record(
    f: int, members: list[tuple[CubicField, int, int]], eps: Epsilon, metric_kind: str
) -> FieldRecord:
    """One conductor's entry for the maxima engine; N is its last member's (f's).

    nongenus / full take the geometric mean of h / sqrt(D)^eps resp.
    H / sqrt(D)^eps over the members, one c_eps of their products;
    per-field-max takes the largest member value of the nongenus metric
    (the uncorrected per-field record scan).
    """
    if metric_kind not in (NONGENUS, FULL, PER_FIELD_MAX):
        raise ValueError(f"unknown cubic metric {metric_kind!r}")
    n_k = len(members)
    if metric_kind == PER_FIELD_MAX:
        data = [(*m, c_eps(m[2], m[0].f * m[0].f, eps)) for m in members]
        *single, value = max(data, key=cmp_to_key(lambda a, b: compare(a[3], b[3])))
        big_prod = small_prod = None
    else:
        single = members[0] if n_k == 1 else (None, None, None)
        big_prod = math.prod(m[1] for m in members)
        small_prod = math.prod(m[2] for m in members)
        disc = math.prod(m[0].f * m[0].f for m in members)
        value = c_eps(small_prod if metric_kind == NONGENUS else big_prod, disc, eps, root=n_k)
    field, big_h, small_h = single
    return FieldRecord(
        f=f,
        d_signed=None,
        n_ramified=members[-1][0].n_ramified,
        value=value,
        n_fields=n_k,
        H=big_h,
        h=small_h,
        H_prod=big_prod,
        h_prod=small_prod,
        poly=str(field) if n_k == 1 else None,
    )


def iter_conductors(lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(f, parts) per valid cyclic cubic conductor f in [lo, hi], ascending,
    with f's parts from conductor_parts.  Only f = 1 (mod 3) or 9 (mod 27),
    the residues of such products, are factorized."""
    for f in range(max(lo, 7), hi + 1):
        if f % 3 == 1 or f % 27 == 9:
            parts = conductor_parts(3, f)
            if parts:
                yield f, parts


class FamilyStream:
    """The cyclic cubic families of conductors in [lo, hi] under one scope
    and metric, each kept as (f, members), its members' class numbers read
    once from the lookup; records(eps) builds every family's record at eps,
    so a scan reads the lookup once whatever the number of eps.

    With conductors None, every conductor is walked and a class number the
    lookup lacks raises.  Otherwise only the given conductors (a fixture
    store's) are walked, and families the lookup does not fully cover are
    left out (for offline runs against the fixtures): every family has a
    member of its own conductor f, and every fixture line is filed under its
    field's conductor, so no other f can be covered.
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        scope: str,
        metric_kind: str,
        lookup: Callable[[CubicField], int | None],
        conductors: set[int] | None,
    ) -> None:
        self.metric_kind = metric_kind
        if conductors is None:
            walk = iter_conductors(lo, hi)
        else:
            walk = ((f, _parts(f)) for f in sorted(conductors) if lo <= f <= hi)
        self.families = []
        for f, parts in walk:
            try:
                self.families.append((f, family_class_numbers(_members(parts, scope), lookup)))
            except ClassNumberUnavailable:
                if conductors is None:
                    raise

    def __len__(self) -> int:
        return len(self.families)

    def records(self, eps: Epsilon) -> tuple[range, list[FieldRecord]]:
        """(keep, records): every position, and each family's record at eps."""
        records = [family_scan_record(*family, eps, self.metric_kind) for family in self.families]
        return range(len(records)), records
