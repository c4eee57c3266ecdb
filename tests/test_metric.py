import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmax.metric import (
    EPS_ZERO,
    Epsilon,
    c_eps,
    compare,
    format_value,
    rel_err,
)

HI = mpmath.mp.clone()
HI.prec = 260


def independent_value(mv) -> object:
    """256-bit reference evaluation, structurally unlike the production path."""
    ln = HI.log(HI.mpf(mv.h))
    ln -= HI.mpf(mv.eps.num) / (2 * mv.eps.den) * HI.log(HI.mpf(mv.disc))
    return HI.exp(ln / mv.root)


class TestEpsilon:
    def test_decimal_parse_is_exact(self):
        assert Epsilon.of("0.05") == Epsilon(1, 20)
        assert Epsilon.of("0.0005") == Epsilon(1, 2000)
        assert Epsilon.of("1.25") == Epsilon(5, 4)

    def test_fraction_parse(self):
        assert Epsilon.of("5/4") == Epsilon(5, 4)
        assert Epsilon.of(Fraction(2, 100)) == Epsilon(1, 50)
        assert Epsilon.of(0) == EPS_ZERO

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            Epsilon.of(2)
        with pytest.raises(ValueError):
            Epsilon.of("2.0001")
        with pytest.raises(ValueError):
            Epsilon.of("-1/20")

    def test_reduced_enforced(self):
        with pytest.raises(ValueError):
            Epsilon(2, 40)


class TestCEps:
    def test_reference_digits_eps_1_20(self):
        v = c_eps(1, 3, Epsilon(1, 20))
        assert rel_err(v.approx, "0.972908434869468710") < 1e-12

    def test_reference_digits_eps_1(self):
        v = c_eps(1, 3, Epsilon(1, 1))
        assert rel_err(v.approx, "0.5773502691896257646") < 1e-15

    def test_eps_zero_identity(self):
        v = c_eps(7, 123456, EPS_ZERO)
        assert v.approx == 7

    def test_monotone_in_disc(self):
        eps = Epsilon(1, 20)
        assert compare(c_eps(5, 100, eps), c_eps(5, 101, eps)) > 0

    def test_monotone_in_h(self):
        eps = Epsilon(1, 20)
        assert compare(c_eps(6, 100, eps), c_eps(5, 100, eps)) > 0

    @given(
        st.integers(1, 10**6),
        st.integers(1, 10**9),
        st.integers(1, 10**9),
    )
    @settings(max_examples=200)
    def test_monotonicity_property(self, h, d1, d2):
        eps = Epsilon(1, 50)
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        assert compare(c_eps(h, lo, eps), c_eps(h, hi, eps)) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            c_eps(0, 5, EPS_ZERO)

    @pytest.mark.parametrize("h", [Fraction(1, 3), 2.5])
    def test_h_must_be_an_integer(self, h):
        with pytest.raises(TypeError):
            c_eps(h, 5, Epsilon(1, 20))


class TestCompare:
    def test_equal_values(self):
        a = c_eps(3, 23, Epsilon(1, 20))
        assert compare(a, a) == 0

    def test_reference_record_step(self):
        eps = Epsilon(1, 20)
        assert compare(c_eps(3, 23, eps), c_eps(1, 3, eps)) > 0

    def test_exact_integer_route(self):
        # 2/16^(1/2) = 0.5 < 1 = 1/1^(1/2); cross powers 2^2*1 < 1^2*16
        eps = Epsilon(1, 1)
        assert compare(c_eps(2, 16, eps), c_eps(1, 1, eps)) < 0

    def test_exact_tie_detected(self):
        # 2 / 4^(1/2) == 1 / 1^(1/2): float gap is zero, exact route says equal
        eps = Epsilon(1, 1)
        assert compare(c_eps(2, 4, eps), c_eps(1, 1, eps)) == 0

    def test_indistinguishable_by_floats(self):
        # relative gaps ~1e-31 sit far below the 2^-80 float threshold, so
        # only the integer route can decide these.
        eps = Epsilon(1, 1)
        a = c_eps(1, 10**30, eps)
        b = c_eps(1, 10**30 + 1, eps)
        assert compare(a, b) > 0
        assert compare(b, a) < 0
        big = 10**30
        assert compare(c_eps(big, big, EPS_ZERO), c_eps(big + 1, big + 1, EPS_ZERO)) < 0

    def test_mismatched_eps_rejected(self):
        with pytest.raises(ValueError):
            compare(c_eps(1, 3, Epsilon(1, 20)), c_eps(1, 3, Epsilon(1, 50)))

    def test_total_order_vs_256bit(self):
        rng = random.Random(2024)
        eps = Epsilon(1, 50)
        for _ in range(2000):
            h1, h2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
            d1, d2 = rng.randint(1, 10**12), rng.randint(1, 10**12)
            a, b = c_eps(h1, d1, eps), c_eps(h2, d2, eps)
            want = independent_value(a) - independent_value(b)
            want_sign = 0 if abs(want) < HI.mpf(2) ** -200 else (1 if want > 0 else -1)
            if want_sign == 0:
                # too close for the reference: use exact rationals
                lhs = Fraction(h1) ** 100 * d2
                rhs = Fraction(h2) ** 100 * d1
                want_sign = (lhs > rhs) - (lhs < rhs)
            assert compare(a, b) == want_sign, (h1, d1, h2, d2)


def cross_power_sign(a, b) -> int:
    """Sign of a - b by the cross powers a^(2q ra rb) against b^(2q ra rb),
    eps = p/q, taken in full."""
    p, q = a.eps.num, a.eps.den
    lhs = a.h ** (2 * q * b.root) * b.disc ** (p * a.root)
    rhs = b.h ** (2 * q * a.root) * a.disc ** (p * b.root)
    return (lhs > rhs) - (lhs < rhs)


class TestExactRoute:
    """Values closer than the float gap: compare cancels an equal h or an
    equal disc before it takes the cross powers."""

    def test_equal_h_at_tiny_eps_is_decided_by_disc(self):
        # the relative gap is about 5e-42; the full cross powers would raise
        # h to the power 2 * 10^24
        eps = Epsilon(1, 10**24)
        a, b = c_eps(5, 10**17, eps), c_eps(5, 10**17 + 1, eps)
        assert abs(a.approx - b.approx) < mpmath.ldexp(a.approx, -80)
        assert (compare(a, b), compare(b, a), compare(a, a)) == (1, -1, 0)

    def test_equal_disc_at_tiny_eps_is_decided_by_h(self):
        eps = Epsilon(1, 10**24)
        big = 10**30
        assert compare(c_eps(big, 7, eps), c_eps(big + 1, 7, eps)) == -1

    def test_equal_means_under_unequal_roots(self):
        # h = 3 at root 1 against h = 9 at root 2: 3^2 == 9, so disc decides
        eps = Epsilon(1, 1000)
        d = 10**15
        one, two = c_eps(3, d, eps), c_eps(9, d * d, eps, root=2)
        assert compare(one, two) == compare(two, one) == 0
        wider = c_eps(9, d * d + 1, eps, root=2)
        assert abs(one.approx - wider.approx) < mpmath.ldexp(one.approx, -80)
        assert (compare(one, wider), compare(wider, one)) == (1, -1)

    def test_ties_at_eps_zero(self):
        assert compare(c_eps(7, 5, EPS_ZERO), c_eps(7, 10**17, EPS_ZERO)) == 0
        assert compare(c_eps(3, 5, EPS_ZERO), c_eps(9, 10**17, EPS_ZERO, root=2)) == 0
        assert compare(c_eps(3, 5, EPS_ZERO), c_eps(10, 5, EPS_ZERO, root=2)) == -1

    def test_agrees_with_cross_powers(self):
        """Seeded cases: small powers of 2 and 3, of which many tie, and
        near ties, where a k-th root mean of h^k over d^k + delta meets the
        single value h over d, or h and h + 1 meet at eps = 0."""
        rng = random.Random(25)
        eps_list = [EPS_ZERO, Epsilon(1, 3), Epsilon(1, 2), Epsilon(1, 1), Epsilon(3, 2)]
        small = [1, 2, 3, 4, 8, 9, 16, 27]
        pairs = []
        for _ in range(3000):
            eps = rng.choice(eps_list)
            a = c_eps(rng.choice(small), rng.choice(small), eps, root=rng.randint(1, 3))
            b = c_eps(rng.choice(small), rng.choice(small), eps, root=rng.randint(1, 3))
            pairs.append((a, b))
        for _ in range(300):
            eps = rng.choice([EPS_ZERO, Epsilon(1, 1000), Epsilon(1, 999)])
            h, d, k = rng.randint(1, 50), rng.randint(10**11, 10**12), rng.randint(2, 3)
            a = c_eps(h, d, eps)
            pairs.append((a, c_eps(h**k, d**k + rng.randint(-1, 1), eps, root=k)))
            big = 10**30 + rng.randint(0, 1)
            pairs.append((c_eps(big, d, EPS_ZERO), c_eps(10**30, 7, EPS_ZERO)))
        signs = []
        for a, b in pairs:
            want = cross_power_sign(a, b)
            assert compare(a, b) == want, (a, b)
            if abs(a.approx - b.approx) <= mpmath.ldexp(max(a.approx, b.approx), -80):
                signs.append(want)  # decided by the exact route
        assert signs.count(0) > 100 and signs.count(1) > 100 and signs.count(-1) > 50


class TestGeometricMean:
    """A family mean is one c_eps of the products of its members' h and
    disc, with root = the member count."""

    def test_single_value_identity(self):
        v = c_eps(3, 163, Epsilon(1, 100))
        m = c_eps(3, 163, Epsilon(1, 100), root=1)
        assert compare(m, v) == 0

    def test_sqrt3_display(self):
        m = c_eps(3 * 1, 63**2 * 63**2, EPS_ZERO, root=2)
        assert rel_err(m.approx, "1.7320508075688772936") < 1e-12

    def test_mean_h_84(self):
        # class numbers {3, 2352} at one conductor: mean H = sqrt(7056) = 84
        assert rel_err(c_eps(3 * 2352, 1, EPS_ZERO, root=2).approx, 84) < 1e-25

    def test_n_copies(self):
        v = c_eps(5, 1000, Epsilon(1, 20))
        m = c_eps(5**4, 1000**4, Epsilon(1, 20), root=4)
        assert rel_err(m.approx, v.approx) < 2.0**-90
        assert compare(m, v) == 0

    def test_mismatched_eps(self):
        with pytest.raises(ValueError):
            compare(c_eps(1, 9, Epsilon(1, 20), root=2), c_eps(1, 3, Epsilon(1, 50)))

    def test_empty(self):
        for root in (0, -1):
            with pytest.raises(ValueError, match="root >= 1"):
                c_eps(1, 1, Epsilon(1, 20), root=root)


class TestFormat:
    def test_nineteen_digits(self):
        v = c_eps(1, 3, Epsilon(1, 20))
        assert format_value(v.approx) == "0.9729084348694687107"

    def test_stable(self):
        v = c_eps(13, 191, Epsilon(1, 20))
        assert format_value(v.approx) == format_value(c_eps(13, 191, Epsilon(1, 20)).approx)
