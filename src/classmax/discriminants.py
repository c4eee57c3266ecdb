"""Fundamental discriminants of quadratic fields and conductors of cyclic fields."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import arith

IMAGINARY = "imaginary"
REAL = "real"


@dataclass(frozen=True)
class QuadDiscriminant:
    """A fundamental quadratic discriminant with its ramification count."""

    value: int
    abs: int
    signature: str
    n_ramified: int

    @classmethod
    def from_value(cls, value: int) -> "QuadDiscriminant":
        if not is_fundamental(value):
            raise ValueError(f"{value} is not a fundamental discriminant")
        return cls(
            value=value,
            abs=abs(value),
            signature=IMAGINARY if value < 0 else REAL,
            n_ramified=arith.omega(abs(value)),
        )


def is_fundamental(value: int) -> bool:
    """True iff value is the discriminant of a quadratic field.

    Either value = 1 mod 4 and squarefree, or value = 4m with m = 2, 3 mod 4
    and m squarefree.  Both signs supported; 0 and 1 are rejected.
    """
    if value in (0, 1):
        return False
    if value % 4 == 1:
        return arith.is_squarefree(abs(value))
    if value % 4 == 0:
        m = value // 4
        return m % 4 in (2, 3) and arith.is_squarefree(abs(m))
    return False


def iter_fundamental(signature: str, lo: int, hi: int) -> Iterator[QuadDiscriminant]:
    """Fundamental discriminants of one signature with lo <= |D| <= hi, ascending.

    Candidates are filtered one by one, mirroring how the scans walk D.
    """
    if signature not in (IMAGINARY, REAL):
        raise ValueError(f"unknown signature {signature!r}")
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    sign = -1 if signature == IMAGINARY else 1
    for d in range(lo, hi + 1):
        value = sign * d
        if value == 1:
            continue
        if is_fundamental(value):
            yield QuadDiscriminant(
                value=value,
                abs=d,
                signature=signature,
                n_ramified=arith.omega(d),
            )


def conductor_parts(p: int, f: int) -> tuple[int, ...]:
    """f's parts as the conductor of a degree-p cyclic field (p odd prime), from
    one factorization: p^2 when p | f, then each prime q = 1 mod p dividing f,
    ascending.  () unless f = p^(2*delta) * q_1...q_n with delta in {0, 1},
    the q_i distinct primes = 1 mod p, and at least one ramified prime."""
    if p < 3 or not arith.is_prime(p):
        raise ValueError("p must be an odd prime")
    if f < 1:
        raise ValueError("f must be >= 1")
    parts = []
    for q, e in arith.factorize(f).factors:
        if (q, e) == (p, 2):
            parts.append(p * p)
        elif q % p == 1 and e == 1:
            parts.append(q)
        else:
            return ()
    return tuple(parts)


def is_cyclic_conductor(p: int, f: int) -> bool:
    """True iff f is the conductor of some degree-p cyclic field (p odd prime)."""
    return bool(conductor_parts(p, f))
