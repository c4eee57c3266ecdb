import math

import pytest

from classmax import arith, discriminants
from classmax.discriminants import (
    QuadDiscriminant,
    IMAGINARY,
    REAL,
    conductor_parts,
    is_cyclic_conductor,
    is_fundamental,
    iter_fundamental,
)


def textbook_fundamental(value: int) -> bool:
    if value in (0, 1):
        return False
    if value % 4 == 1:
        return arith.is_squarefree(abs(value))
    if value % 4 == 0:
        m = value // 4
        return m % 4 in (2, 3) and arith.is_squarefree(abs(m))
    return False


def pari_chain_accepts(d_abs: int, sign: int) -> bool:
    """The published filter program's rejection chain, re-implemented verbatim.

    sign = -1 filters |D| for imaginary fields, sign = +1 for real fields.
    """
    e2 = 0
    d = d_abs
    while d % 2 == 0:
        d //= 2
        e2 += 1
    if e2 == 1 or e2 > 3:
        return False
    if not arith.is_squarefree(d):
        return False
    if sign < 0:
        if e2 == 0 and (-d) % 4 != 1:
            return False
        if e2 == 2 and (-d) % 4 != 3:
            return False
    else:
        if e2 == 0 and d % 4 != 1:
            return False
        if e2 == 2 and d % 4 != 3:
            return False
    return True


def cubic_chain_accepts(f: int) -> bool:
    """The published cubic conductor filter, re-implemented verbatim."""
    phi = 1
    for p, e in arith.factorize(f).factors:
        phi *= (p - 1) * p ** (e - 1)
    if phi % 3 != 0:
        return False
    e3 = arith.valuation(f, 3)
    ff = f // 3**e3
    if e3 == 1 or e3 > 2 or not arith.is_squarefree(ff):
        return False
    return all(q % 3 == 1 for q, _ in arith.factorize(ff).factors)


class TestIsFundamental:
    def test_examples(self):
        assert is_fundamental(-3)
        assert not is_fundamental(-12)
        assert is_fundamental(136)

    def test_rejects_degenerate(self):
        assert not is_fundamental(0)
        assert not is_fundamental(1)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_matches_textbook_and_filter_chain(self, sign):
        # e2 == 1 or e2 > 3 never passes textbook; spot the full equivalence
        for d_abs in range(2, 100_000 + 1):
            got = is_fundamental(sign * d_abs)
            assert got == textbook_fundamental(sign * d_abs), (sign, d_abs)
            assert got == pari_chain_accepts(d_abs, sign), (sign, d_abs)


class TestIterFundamental:
    def test_imaginary_listing_prefix(self):
        got = [q.abs for q in iter_fundamental(IMAGINARY, 1, 20)]
        assert got == [3, 4, 7, 8, 11, 15, 19, 20]

    def test_real_prefix(self):
        got = [q.value for q in iter_fundamental(REAL, 1, 15)]
        assert got == [5, 8, 12, 13]

    def test_empty_window(self):
        assert list(iter_fundamental(IMAGINARY, 21, 22)) == []

    def test_ascending_complete_and_annotated(self):
        stream = list(iter_fundamental(IMAGINARY, 1, 5000))
        values = [q.abs for q in stream]
        assert values == sorted(values)
        assert len(set(values)) == len(values)
        expected = {d for d in range(1, 5001) if is_fundamental(-d)}
        assert set(values) == expected
        for q in stream[:200]:
            assert q.value == -q.abs
            assert q.signature == IMAGINARY
            assert q.n_ramified == arith.omega(q.abs)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(iter_fundamental(IMAGINARY, 5, 4))

    @pytest.mark.parametrize("signature", [IMAGINARY, REAL])
    def test_stream_bit_identical_to_sieve_100k(self, signature):
        """The per-value filtered stream and the sieved mask must agree exactly."""
        import numpy as np

        from classmax import sweep

        mask = sweep.fundamental_mask(100_000, signature)
        stream = [q.abs for q in iter_fundamental(signature, 1, 100_000)]
        assert stream == [int(d) for d in np.nonzero(mask)[0]]

    def test_from_value(self):
        q = QuadDiscriminant.from_value(-20)
        assert (q.abs, q.signature, q.n_ramified) == (20, IMAGINARY, 2)
        with pytest.raises(ValueError):
            QuadDiscriminant.from_value(-12)


class TestCyclicConductor:
    def test_examples(self):
        assert is_cyclic_conductor(3, 7)
        assert not is_cyclic_conductor(3, 21)
        assert is_cyclic_conductor(3, 9)
        assert conductor_parts(3, 63) == (9, 7)
        assert conductor_parts(3, 819) == (9, 7, 13)
        assert conductor_parts(3, 21) == ()

    def test_rejects_trivial_and_wild(self):
        assert not is_cyclic_conductor(3, 1)
        assert not is_cyclic_conductor(3, 3)
        assert not is_cyclic_conductor(3, 27)
        assert not is_cyclic_conductor(3, 49)  # 7^2 not squarefree tame part

    def test_matches_filter_chain(self):
        for f in range(1, 100_000 + 1):
            assert is_cyclic_conductor(3, f) == cubic_chain_accepts(f), f
            parts = conductor_parts(3, f)
            if parts:
                assert math.prod(parts) == f and len(parts) == arith.omega(f), f

    def test_requires_odd_prime(self):
        with pytest.raises(ValueError):
            is_cyclic_conductor(2, 5)
        with pytest.raises(ValueError):
            is_cyclic_conductor(9, 5)

