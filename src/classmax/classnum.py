"""Class numbers of quadratic fields, computed from reduced binary forms.

Imaginary fields use the classical count of reduced positive-definite forms
(-a < b <= a <= c, b >= 0 when a = c or b = a), cross-checkable against a
Dirichlet character-sum oracle and an O(|D|) nested-loop reference.  Real
fields use the restricted (narrow) class number, counted as cycles of reduced
indefinite forms under the rho reduction step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith
from .discriminants import is_fundamental

@dataclass(frozen=True)
class QuadraticForm:
    """Primitive integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return math.gcd(math.gcd(self.a, self.b), self.c) == 1


# ---------------------------------------------------------------------------
# imaginary quadratic fields
# ---------------------------------------------------------------------------


def class_number_imaginary(d: int) -> int:
    """H(d) for a fundamental discriminant d < 0, by reduced-form counting.

    Iterates b over the parity class of d up to sqrt(|d|/3) and, for each b,
    the divisors a of (b^2 - d)/4 with b <= a <= sqrt((b^2-d)/4); the pair
    (a, c = m/a) contributes two forms for 0 < b < a < c and one on the
    boundary cases b = 0, b = a, a = c.
    """
    if d >= 0:
        raise ValueError("imaginary class number needs d < 0")
    if not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    n = -d
    count = 0
    for b in range(n & 1, math.isqrt(n // 3) + 1, 2):
        m = (b * b + n) >> 2
        for a in arith.factorize(m).divisors():
            if a * a > m:
                break
            if a < max(b, 1):
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1 if (b == 0 or b == a or a == c) else 2
    return count


def class_number_imaginary_bruteforce(d: int) -> int:
    """O(|d|) nested-loop reference count, for |d| small; a second oracle."""
    if d >= 0 or not is_fundamental(d):
        raise ValueError("need a fundamental discriminant d < 0")
    n = -d
    count = 0
    for a in range(1, math.isqrt(n // 3) + 1):
        for b in range(-a + 1, a + 1):
            t = b * b + n
            if t % (4 * a):
                continue
            c = t // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1
    return count


def kronecker_table(d: int) -> np.ndarray:
    """int64 array chi with chi[a] = kronecker(d, a) for 0 <= a < |d|, d != 0.

    a -> kronecker(d, a) is completely multiplicative on a > 0, so the table
    needs only its values at primes: kronecker(d, 2) directly, and Euler's
    criterion d^((p-1)/2) mod p at odd primes p, vectorized over the primes
    (exact in int64 while p^2 < 2^63).  A smallest-prime-factor sieve then
    fills chi[a] = chi[spf(a)] * chi[a // spf(a)] one binary range
    [2^k, 2^(k+1)) at a time: both factors are primes or lie below 2^k.
    """
    n = abs(d)
    a = np.arange(n, dtype=np.int64)
    spf = a.copy()
    for p in reversed(arith.primes_upto(math.isqrt(max(n - 1, 0)))):
        spf[p * p :: p] = p
    chi = np.zeros(n, dtype=np.int64)
    chi[:3] = [arith.kronecker(d, k) for k in range(min(n, 3))]
    odd = np.flatnonzero(spf == a)[3:]  # odd primes below n (after 0, 1, 2)
    base = d % odd
    power = np.ones_like(odd)
    e = (odd - 1) >> 1
    while e.any():
        power = np.where(e & 1, power * base % odd, power)
        base = base * base % odd
        e >>= 1
    chi[odd] = np.where(power == odd - 1, -1, power)  # power is 0, 1 or p - 1
    lo = 2
    while lo < n:
        hi = min(2 * lo, n)
        s = spf[lo:hi]
        chi[lo:hi] = chi[s] * chi[a[lo:hi] // s]
        lo = hi
    return chi


def class_number_imaginary_oracle(d: int, bound: int = 10**6) -> int:
    """Dirichlet class number formula as an independent oracle.

    H = (w / (2|d|)) * |sum_{a=1}^{|d|-1} kronecker(d, a) * a|, with w = 6 for
    d = -3, w = 4 for d = -4, and w = 2 otherwise.

    The character values come from `kronecker_table` (values at primes plus a
    smallest-prime-factor sieve), never from reduced forms, so the oracle
    shares nothing with `class_number_imaginary`.  The sum is taken in int64
    and is exact: |sum a*chi(a)| <= |d|^2 / 2 <= bound^2 / 2 < 2^63 for the
    default bound = 10**6.  Each int64 array of the table costs about 8*|d|
    bytes.
    """
    if d >= 0 or not is_fundamental(d):
        raise ValueError("need a fundamental discriminant d < 0")
    n = -d
    if n > bound:
        raise ValueError(f"|d| = {n} exceeds the oracle bound {bound}")
    w = 6 if n == 3 else 4 if n == 4 else 2
    chi = kronecker_table(d)
    s = int(np.dot(np.arange(n, dtype=np.int64), chi))
    num = w * abs(s)
    den = 2 * n
    if num % den:
        raise ArithmeticError(f"oracle normalization broke at d = {d}")
    return num // den


# ---------------------------------------------------------------------------
# real quadratic fields (restricted sense)
# ---------------------------------------------------------------------------


def reduced_indefinite_forms(d: int) -> frozenset[QuadraticForm]:
    """All primitive reduced indefinite forms of fundamental discriminant d > 0.

    Reduction condition: |sqrt(d) - 2|a|| < b < sqrt(d), checked with exact
    integer inequalities.
    """
    if d <= 0:
        raise ValueError("indefinite forms need d > 0")
    if not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    forms: set[QuadraticForm] = set()
    for b in range(2 - (d & 1), math.isqrt(d) + 1, 2):
        m = (d - b * b) >> 2
        if m <= 0:
            continue
        for g in arith.factorize(m).divisors():
            # window (sqrt(d)-b)/2 < g < (sqrt(d)+b)/2, exactly
            t1 = 2 * g + b
            if t1 * t1 <= d:
                continue
            t2 = 2 * g - b
            if t2 >= 0 and t2 * t2 >= d:
                continue
            c = m // g
            if math.gcd(math.gcd(g, b), c) != 1:
                continue
            forms.add(QuadraticForm(g, b, -c))
            forms.add(QuadraticForm(-g, b, c))
    return frozenset(forms)


def rho_step(form: QuadraticForm, d: int) -> QuadraticForm:
    """The reduction neighbor (c, b', c') with b' = -b mod 2c, b' in the window.

    Deterministic; input must be a reduced indefinite form of discriminant d.
    """
    if form.disc != d:
        raise ValueError("form discriminant mismatch")
    s = math.isqrt(d)
    a, b, c = form.a, form.b, form.c
    ac = abs(c)
    lo = s - 2 * ac + 1  # window (sqrt(d) - 2|c|, sqrt(d))
    bp = lo + (-b - lo) % (2 * ac)
    cp = (bp * bp - d) // (4 * c)
    nxt = QuadraticForm(c, bp, cp)
    if nxt.disc != d:
        raise ArithmeticError("rho step left the discriminant class")
    return nxt


def form_cycles(d: int) -> list[tuple[QuadraticForm, ...]]:
    """Partition of the reduced indefinite forms into rho-cycles, each of
    even length."""
    forms = reduced_indefinite_forms(d)
    seen: set[QuadraticForm] = set()
    cycles: list[tuple[QuadraticForm, ...]] = []
    for start in sorted(forms, key=lambda f: (f.a, f.b, f.c)):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        current = rho_step(start, d)
        while current != start:
            if current not in forms:
                raise ArithmeticError(f"rho escaped the reduced set at d = {d}")
            cycle.append(current)
            seen.add(current)
            current = rho_step(current, d)
        cycles.append(tuple(cycle))
    return cycles


def narrow_class_number_real(d: int) -> int:
    """H+ for fundamental d > 0: the number of rho-cycles of reduced forms."""
    return len(form_cycles(d))
