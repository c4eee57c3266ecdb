import math
import random

import pytest

from classmax import arith, classnum
from classmax.classnum import (
    QuadraticForm,
    class_number_imaginary,
    class_number_imaginary_bruteforce,
    class_number_imaginary_oracle,
    form_cycles,
    narrow_class_number_real,
    reduced_indefinite_forms,
    rho_step,
)
from classmax.discriminants import IMAGINARY, REAL, iter_fundamental


def brute_reduced_indefinite(d: int) -> set[tuple[int, int, int]]:
    """Exhaustive (a, b, c) enumeration straight from the reduction inequality."""
    out = set()
    s = math.isqrt(d)
    for b in range(1, s + 1):
        if (d - b * b) % 4:
            continue
        m = (d - b * b) // 4
        if m <= 0:
            continue
        for a in range(1, m + 1):
            if m % a:
                continue
            # |sqrt(d) - 2a| < b  <=>  (2a - b)^2 < d < (2a + b)^2
            if (2 * a + b) ** 2 <= d:
                continue
            if 2 * a - b >= 0 and (2 * a - b) ** 2 >= d:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.add((a, b, -c))
            out.add((-a, b, c))
    return out


class TestImaginary:
    def test_reference_values(self):
        assert class_number_imaginary(-3) == 1
        assert class_number_imaginary(-23) == 3
        assert class_number_imaginary(-9240) == 32

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            class_number_imaginary(5)
        with pytest.raises(ValueError):
            class_number_imaginary(-12)

    def test_oracle_examples(self):
        assert class_number_imaginary_oracle(-3) == 1
        assert class_number_imaginary_oracle(-4) == 1
        assert class_number_imaginary_oracle(-47) == 5

    def test_oracle_bound(self):
        with pytest.raises(ValueError):
            class_number_imaginary_oracle(-10**7 - 39)

    def test_three_routes_agree_small(self):
        for q in iter_fundamental(IMAGINARY, 1, 3000):
            d = q.value
            h = class_number_imaginary(d)
            assert h == class_number_imaginary_bruteforce(d), d
            assert h == class_number_imaginary_oracle(d), d

    def test_three_routes_agree_sampled(self):
        rng = random.Random(7)
        discs = [q.value for q in iter_fundamental(IMAGINARY, 3000, 10_000)]
        for d in rng.sample(discs, 60):
            h = class_number_imaginary(d)
            assert h == class_number_imaginary_bruteforce(d), d
            assert h == class_number_imaginary_oracle(d), d

    def test_kronecker_table_matches_reference(self):
        rng = random.Random(11)
        discs = [q.value for q in iter_fundamental(IMAGINARY, 41, 20_000)]
        sample = rng.sample(discs, 20) + rng.sample([d for d in discs if d % 8 == 0], 5)
        for d in [-3, -4, -7, -8, -24, -40] + sample:
            expected = [arith.kronecker(d, a) for a in range(-d)]
            assert classnum.kronecker_table(d).tolist() == expected, d


class TestIndefiniteForms:
    def test_d5_exact_set(self):
        got = {(f.a, f.b, f.c) for f in reduced_indefinite_forms(5)}
        assert got == {(1, 1, -1), (-1, 1, 1)}

    def test_counts(self):
        assert len(reduced_indefinite_forms(8)) == 2
        assert len(reduced_indefinite_forms(12)) == 4

    def test_matches_bruteforce(self):
        for q in iter_fundamental(REAL, 2, 500):
            got = {(f.a, f.b, f.c) for f in reduced_indefinite_forms(q.value)}
            assert got == brute_reduced_indefinite(q.value), q.value

    def test_all_forms_have_discriminant(self):
        for f in reduced_indefinite_forms(316):
            assert f.disc == 316
            assert f.is_primitive


class TestRhoStep:
    def test_two_cycle(self):
        f1 = QuadraticForm(1, 1, -1)
        f2 = rho_step(f1, 5)
        assert (f2.a, f2.b, f2.c) == (-1, 1, 1)
        f3 = rho_step(f2, 5)
        assert f3 == f1

    def test_cycle_closure(self):
        for d in (8, 12, 136, 316):
            for cycle in form_cycles(d):
                current = cycle[0]
                for _ in range(len(cycle)):
                    current = rho_step(current, d)
                assert current == cycle[0]

    def test_cycle_type_is_rho_closed(self):
        cycle = form_cycles(5)[0]
        assert len(cycle) == 2
        for i, form in enumerate(cycle):
            assert rho_step(form, 5) == cycle[(i + 1) % len(cycle)]

    def test_disc_mismatch_raises(self):
        with pytest.raises(ValueError):
            rho_step(QuadraticForm(1, 1, -1), 8)


class TestNarrow:
    def test_reference_values(self):
        assert narrow_class_number_real(5) == 1
        assert narrow_class_number_real(136) == 4
        assert narrow_class_number_real(3755521) == 752

    def test_cycles_partition_and_even(self):
        for q in iter_fundamental(REAL, 2, 2000):
            cycles = form_cycles(q.value)
            forms = reduced_indefinite_forms(q.value)
            seen = [f for cycle in cycles for f in cycle]
            assert len(seen) == len(set(seen)) == len(forms)
            assert set(seen) == set(forms)
            for cycle in cycles:
                assert len(cycle) % 2 == 0

    def test_genus_divisibility(self):
        for q in iter_fundamental(REAL, 2, 2000):
            h_plus = narrow_class_number_real(q.value)
            assert h_plus % (1 << (q.n_ramified - 1)) == 0, q.value
