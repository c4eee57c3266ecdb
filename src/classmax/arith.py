"""Integer utilities: factorization, multiplicative functions, quadratic symbols.

Everything here is exact and deterministic.  Inputs are expected to stay
within the signed 64-bit range.  Every factor the factorizer reports is
proved prime, either by trial division (a cofactor m with no prime factor
up to sqrt(m)) or by the deterministic Miller-Rabin test, so a wrong
answer is never returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SIEVE_LIMIT = 1 << 16
_small_primes: list[int] = []


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return [i for i, v in enumerate(sieve) if v]


def _get_small_primes() -> list[int]:
    global _small_primes
    if not _small_primes:
        _small_primes = primes_upto(_SIEVE_LIMIT)
    return _small_primes


# Deterministic Miller-Rabin witness set, sufficient for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit (and somewhat beyond) inputs."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent-cycle rho; returns a nontrivial factor of composite odd n.

    The polynomial constant walks a fixed schedule, so runs are reproducible.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        q = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            count += 1
            if count % 64 == 0:
                d = math.gcd(q, n)
                if d == n:
                    break
        if d == 1:
            d = math.gcd(abs(x - y) or q, n)
        if 1 < d < n:
            return d
        # retry with a backtracking single-step walk before bumping c
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if 1 < d < n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError(f"bad factor list for {self.n}: {self.factors}")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factor list does not reconstruct {self.n}")

    def divisors(self) -> list[int]:
        """All positive divisors, ascending."""
        divs = [1]
        for p, e in self.factors:
            pk = 1
            block = list(divs)
            for _ in range(e):
                pk *= p
                divs.extend(d * pk for d in block)
        divs.sort()
        return divs


def factorize(n: int) -> Factorization:
    """Prime factorization of n >= 1: trial division by the primes below
    2^16, then Miller-Rabin and rho on a cofactor that it left unproved."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n == 1:
        return Factorization(1, ())
    facs: dict[int, int] = {}
    m = n
    for p in _get_small_primes():
        if p * p > m:
            if m > 1:  # no prime up to sqrt(m) divides m, so it is prime
                facs[m] = 1
            return Factorization(n, tuple(sorted(facs.items())))
        while m % p == 0:
            facs[p] = facs.get(p, 0) + 1
            m //= p
    # every prime factor of m exceeds 2^16, and m may still be composite
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            facs[m] = facs.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(facs.items())))


def omega(n: int) -> int:
    """Number of distinct prime divisors of n >= 1."""
    return len(factorize(n).factors)


def valuation(n: int, p: int) -> int:
    """Largest k with p**k | n, for n >= 1."""
    if n < 1:
        raise ValueError("valuation requires n >= 1")
    if p < 2:
        raise ValueError("valuation requires p >= 2")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n >= 1."""
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    return all(e == 1 for _, e in factorize(n).factors)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), fully defined for all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def isqrt_exact(n: int) -> tuple[int, bool]:
    """(floor(sqrt(n)), whether n is a perfect square)."""
    if n < 0:
        raise ValueError("isqrt_exact requires n >= 0")
    r = math.isqrt(n)
    return r, r * r == n
