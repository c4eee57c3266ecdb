"""Exact rational exponents, the normalized class-number metric, and its
record-safe comparison.

A metric value is h / (sqrt(D))^eps, possibly with an nK-th root on top when
it is a multiplicative mean over nK fields.  Values carry a 120-bit float
approximation for fast comparisons; whenever two values are too close for the
floats to decide, an exact integer cross-power comparison settles it, so a
record decision is never wrong.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath

# Private real context: 120-bit mantissa, never mutated after import.
_CTX = mpmath.mp.clone()
_CTX.prec = 120

# Floats decide a comparison only when the relative gap exceeds 2^-80; the
# 120-bit approximations are good to 2^-90 relative, so this is safe.
_FLOAT_GAP_BITS = 80

Ordering = int  # -1, 0, 1

# Metric kinds, spelt as on the command line.  nongenus and full rank
# h / sqrt(D)^eps with h = H / (genus number) resp. H; raw-H and raw-h rank
# H resp. h alone (quadratic fields); per-field-max ranks a cubic family by
# its largest member value of the nongenus metric.
NONGENUS = "nongenus"
FULL = "full"
RAW_H = "raw-H"
RAW_SMALL_H = "raw-h"
PER_FIELD_MAX = "per-field-max"


@dataclass(frozen=True)
class Epsilon:
    """Exact rational exponent, 0 <= num/den < 2, reduced."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1 or self.num < 0:
            raise ValueError("epsilon must be >= 0 with positive denominator")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError("epsilon must be in lowest terms")
        if self.num >= 2 * self.den:
            raise ValueError("epsilon must be < 2")

    @classmethod
    def of(cls, value: "Epsilon | Fraction | int | str") -> "Epsilon":
        """Exact conversion; decimal strings parse without float round-trip."""
        if isinstance(value, Epsilon):
            return value
        frac = Fraction(value)
        return cls(frac.numerator, frac.denominator)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


EPS_ZERO = Epsilon(0, 1)


@dataclass(frozen=True)
class MetricValue:
    """(h / disc^(eps/2))^(1/root), with a certified approximation.

    For a single field, root == 1, h is the (non-)genus part and disc = |D|.
    For a family mean, h and disc are products over the members and root is
    the member count.
    """

    h: int
    disc: int
    root: int
    eps: Epsilon
    approx: object  # 120-bit mpf


def _approx(h: int, disc: int, root: int, eps: Epsilon):
    val = _CTX.mpf(h)
    if eps.num:
        expo = _CTX.mpf(-eps.num) / (2 * eps.den)
        val = val * _CTX.power(disc, expo)
    if root != 1:
        val = _CTX.root(val, root)
    return val


def c_eps(h: int, disc_abs: int, eps: Epsilon | Fraction | int | str, root: int = 1) -> MetricValue:
    """(h / disc^(eps/2))^(1/root): one field's value, or with root = n the
    mean of n fields' values, from the products of their h and disc."""
    eps = Epsilon.of(eps)
    h = operator.index(h)
    if h <= 0 or disc_abs < 1 or root < 1:
        raise ValueError("need root >= 1" if root < 1 else "need h > 0 and disc >= 1")
    return MetricValue(h, disc_abs, root, eps, _approx(h, disc_abs, root, eps))


def compare(a: MetricValue, b: MetricValue) -> Ordering:
    """Sign of a - b: floats when the gap is clear, exact integers otherwise."""
    if a.eps != b.eps:
        raise ValueError(f"comparing metric values with eps {a.eps} and {b.eps}")
    fa, fb = a.approx, b.approx
    diff = fa - fb
    scale = max(abs(fa), abs(fb))
    if abs(diff) > _CTX.ldexp(scale, -_FLOAT_GAP_BITS):
        return 1 if diff > 0 else -1
    # Exact route, with eps = p/q.  Raising both sides to the power
    # 2q * a.root * b.root keeps the order, so a > b iff
    #     ha^(2q) * db^p > hb^(2q) * da^p,
    # where ha = a.h^b.root, hb = b.h^a.root, da = a.disc^b.root and
    # db = b.disc^a.root.  If ha == hb, the h factors cancel and the sign is
    # that of db^p - da^p: of db - da, or 0 when p == 0.  If da == db or
    # p == 0, the disc factors cancel and the sign is that of ha - hb.  Only
    # otherwise are the powers taken, so equal h at a tiny eps costs nothing.
    p, q = a.eps.num, a.eps.den
    ha, hb = a.h**b.root, b.h**a.root
    da, db = a.disc**b.root, b.disc**a.root
    if ha == hb:
        lhs, rhs = (db, da) if p else (0, 0)
    elif p == 0 or da == db:
        lhs, rhs = ha, hb
    else:
        lhs, rhs = ha ** (2 * q) * db**p, hb ** (2 * q) * da**p
    return (lhs > rhs) - (lhs < rhs)


def format_value(x) -> str:
    """19 significant digits of an mpf, the rendering used by all text output."""
    return mpmath.nstr(x, 19, strip_zeros=False)


def rel_err(computed, reference) -> float:
    """|computed - reference| / |reference| as a float."""
    computed = _CTX.mpf(computed)
    reference = _CTX.mpf(reference)
    if reference == 0:
        return float(abs(computed))
    return float(abs(computed - reference) / abs(reference))
