import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmax import arith


def brute_distinct_primes(n: int) -> int:
    count = 0
    p = 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (1 if n > 1 else 0)


def brute_kronecker(a: int, n: int) -> int:
    """Definition-level Kronecker symbol: multiplicative over factors of n."""

    def legendre(a: int, p: int) -> int:
        a %= p
        if a == 0:
            return 0
        r = pow(a, (p - 1) // 2, p)
        return 1 if r == 1 else -1

    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        result *= 1 if a % 8 in (1, 7) else -1
    p = 3
    while p * p <= n:
        while n % p == 0:
            n //= p
            result *= legendre(a, p)
        p += 2
    if n > 1:
        result *= legendre(a, n)
    return result


class TestFactorize:
    def test_one_is_empty(self):
        assert arith.factorize(1).factors == ()

    def test_known_4199(self):
        assert arith.factorize(4199).factors == ((13, 1), (17, 1), (19, 1))

    def test_known_892371480(self):
        assert arith.factorize(892371480).factors == (
            (2, 3), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            arith.factorize(0)

    def test_large_semiprime(self):
        n = 1000003 * 1000033
        assert arith.factorize(n).factors == ((1000003, 1), (1000033, 1))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300)
    def test_reconstruction_and_omega(self, n):
        fac = arith.factorize(n)
        assert math.prod(p**e for p, e in fac.factors) == n
        assert all(arith.is_prime(p) for p, _ in fac.factors)
        assert arith.omega(n) == brute_distinct_primes(n)

    def test_every_n_to_1e5(self):
        """Against a smallest-prime-factor sieve."""
        limit = 10**5
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for k in range(p * p, limit + 1, p):
                    spf[k] = min(spf[k], p)
        for n in range(1, limit + 1):
            want: dict[int, int] = {}
            m = n
            while m > 1:
                want[spf[m]] = want.get(spf[m], 0) + 1
                m //= spf[m]
            assert arith.factorize(n).factors == tuple(sorted(want.items())), n

    def test_seeded_63_bit(self):
        """Products of one or two seeded primes below 2^32 and up to two of
        2, 3, 65521 and 65537 (the last small prime and the first above it),
        then random 63-bit n, whose factors multiply back to n and are prime."""
        rng = random.Random(63)
        primes = [p for p in (rng.randrange(2, 2**32) for _ in range(4000)) if arith.is_prime(p)]
        for _ in range(300):
            picked = sorted(rng.sample(primes, rng.randrange(1, 3)))
            small = [rng.choice((2, 3, 65521, 65537)) for _ in range(rng.randrange(3))]
            n = math.prod(picked + small)
            if n >= 2**63:
                continue
            want = sorted({p: (picked + small).count(p) for p in picked + small}.items())
            assert arith.factorize(n).factors == tuple(want), n
        for n in (rng.randrange(2**62, 2**63) for _ in range(100)):
            fac = arith.factorize(n)
            assert math.prod(p**e for p, e in fac.factors) == n
            assert all(arith.is_prime(p) for p, _ in fac.factors), n

    def test_trial_division_proves_its_cofactor_prime(self, monkeypatch):
        """A cofactor with no prime up to its square root is prime without a
        Miller-Rabin test; one above the last small prime squared still goes
        through rho and the test."""
        calls = {"is_prime": 0, "rho": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(arith, "is_prime", counting("is_prime", arith.is_prime))
        monkeypatch.setattr(arith, "_pollard_rho", counting("rho", arith._pollard_rho))
        assert arith.factorize(2 * 65537).factors == ((2, 1), (65537, 1))
        assert arith.factorize(65521**2).factors == ((65521, 2),)
        assert calls == {"is_prime": 0, "rho": 0}
        assert arith.factorize(65537 * 65539).factors == ((65537, 1), (65539, 1))
        assert calls["rho"] >= 1 and calls["is_prime"] >= 2

    def test_divisors(self):
        assert arith.factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
        assert arith.factorize(1).divisors() == [1]


class TestOmegaValuation:
    def test_omega_examples(self):
        assert arith.omega(1) == 0
        assert arith.omega(4199) == 3
        assert arith.omega(9240) == 5

    def test_valuation_examples(self):
        assert arith.valuation(8, 2) == 3
        assert arith.valuation(136, 2) == 3
        assert arith.valuation(63, 3) == 2
        assert arith.valuation(7, 5) == 0

    def test_squarefree_examples(self):
        assert arith.is_squarefree(1)
        assert arith.is_squarefree(15)
        assert not arith.is_squarefree(18)


NONZERO_BOTTOM = st.integers(-60, -1) | st.integers(1, 60)


class TestKronecker:
    def test_examples(self):
        assert arith.kronecker(1, 7) == 1
        assert arith.kronecker(-3, 2) == -1
        assert arith.kronecker(-4, 3) == -1

    @given(st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=400)
    def test_matches_definition(self, a, n):
        assert arith.kronecker(a, n) == brute_kronecker(a, n)

    # Multiplicativity in the top argument fails only at n = -1 with a zero
    # factor: (0/-1) = 1 (as for n = 1), but (0/-1) * (-1/-1) = -1.  There
    # the product is 0 and the value is (0/-1) = 1.
    @given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-60, 60))
    @settings(max_examples=300)
    def test_multiplicative_in_top(self, a, b, n):
        want = 1 if n == -1 and a * b == 0 else arith.kronecker(a, n) * arith.kronecker(b, n)
        assert arith.kronecker(a * b, n) == want

    # Multiplicativity in the bottom argument holds only for nonzero m, n:
    # (-1/0) = 1 but (-1/0) * (-1/-1) = -1.  The zero case is pinned below.
    @given(st.integers(-200, 200), NONZERO_BOTTOM, NONZERO_BOTTOM)
    @settings(max_examples=300)
    def test_multiplicative_in_bottom(self, a, m, n):
        assert arith.kronecker(a, m * n) == arith.kronecker(a, m) * arith.kronecker(a, n)

    def test_zero_bottom(self):
        for a in range(-200, 201):
            assert arith.kronecker(a, 0) == (1 if a in (1, -1) else 0)
            for n in range(-60, 61):
                assert arith.kronecker(a, 0 * n) == arith.kronecker(a, 0)

    @given(st.integers(-500, 500), st.integers(1, 500))
    @settings(max_examples=300)
    def test_zero_iff_common_factor(self, a, n):
        assert (arith.kronecker(a, n) == 0) == (math.gcd(a, n) > 1)

    def test_matches_gmpy2(self):
        gmpy2 = pytest.importorskip("gmpy2")
        for a in range(-80, 81):
            for n in range(-80, 81):
                assert arith.kronecker(a, n) == gmpy2.kronecker(a, n)


class TestIsqrtExact:
    def test_examples(self):
        assert arith.isqrt_exact(0) == (0, True)
        assert arith.isqrt_exact(625) == (25, True)
        assert arith.isqrt_exact(626) == (25, False)

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=300)
    def test_bounds(self, n):
        root, exact = arith.isqrt_exact(n)
        assert root * root <= n < (root + 1) * (root + 1)
        assert exact == (root * root == n)


class TestIsPrime:
    def test_small(self):
        primes = set(arith.primes_upto(1000))
        for n in range(1001):
            assert arith.is_prime(n) == (n in primes)

    def test_64bit_boundary_cases(self):
        assert arith.is_prime(2**61 - 1)
        assert not arith.is_prime(2**62 - 1)
        assert arith.is_prime(9223372036854775783)  # largest prime < 2^63
