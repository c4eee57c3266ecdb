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
    """(h_num/h_den / disc^(eps/2))^(1/root), with a certified approximation.

    For a single field, root == 1, h is the (non-)genus part and disc = |D|.
    For a family mean, h and disc are products over the members and root is
    the member count.
    """

    h_num: int
    h_den: int
    disc: int
    root: int
    eps: Epsilon
    approx: object  # 120-bit mpf


def _approx(h_num: int, h_den: int, disc: int, root: int, eps: Epsilon):
    val = _CTX.mpf(h_num)
    if h_den != 1:
        val = val / h_den
    if eps.num:
        expo = _CTX.mpf(-eps.num) / (2 * eps.den)
        val = val * _CTX.power(disc, expo)
    if root != 1:
        val = _CTX.root(val, root)
    return val


def c_eps(
    h: int | Fraction, disc_abs: int, eps: Epsilon | Fraction | int | str, root: int = 1
) -> MetricValue:
    """(h / disc^(eps/2))^(1/root): one field's value, or with root = n the
    mean of n fields' values, from the products of their h and disc."""
    eps = Epsilon.of(eps)
    h = Fraction(h)
    if h <= 0 or disc_abs < 1 or root < 1:
        raise ValueError("need root >= 1" if root < 1 else "need h > 0 and disc >= 1")
    return MetricValue(
        h_num=h.numerator,
        h_den=h.denominator,
        disc=disc_abs,
        root=root,
        eps=eps,
        approx=_approx(h.numerator, h.denominator, disc_abs, root, eps),
    )


def root_mean(h_prod: int, root: int) -> object:
    """120-bit value of h_prod^(1/root), for display of family means."""
    return _CTX.exp(_CTX.log(_CTX.mpf(h_prod)) / root)


def compare(a: MetricValue, b: MetricValue) -> Ordering:
    """Sign of a - b: floats when the gap is clear, exact integers otherwise."""
    if a.eps != b.eps:
        raise ValueError(f"comparing metric values with eps {a.eps} and {b.eps}")
    fa, fb = a.approx, b.approx
    diff = fa - fb
    scale = max(abs(fa), abs(fb))
    if abs(diff) > _CTX.ldexp(scale, -_FLOAT_GAP_BITS):
        return 1 if diff > 0 else -1
    # Exact route: a >= b  iff  a^(2q*ra*rb) >= b^(2q*ra*rb) with eps = p/q.
    p, q = a.eps.num, a.eps.den
    lhs = a.h_num ** (2 * q * b.root) * b.h_den ** (2 * q * a.root) * b.disc ** (p * a.root)
    rhs = b.h_num ** (2 * q * a.root) * a.h_den ** (2 * q * b.root) * a.disc ** (p * b.root)
    if lhs == rhs:
        return 0
    return 1 if lhs > rhs else -1


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
