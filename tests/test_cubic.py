import pytest

from classmax import arith
from classmax.cubic import (
    ClassNumberUnavailable,
    DIVISORS,
    EXACT_CONDUCTOR,
    FixtureStore,
    class_number_cubic,
    conductor_divisors,
    enumerate_cubic_fields,
    family_members,
    family_scan_record,
    iter_conductors,
    iter_family_records,
)
from classmax.maxima import BucketSpec, scan_collect
from classmax.metric import Epsilon, rel_err, root_mean


def poly_disc(c2: int, c1: int, c0: int) -> int:
    """Discriminant of the monic cubic x^3 + c2 x^2 + c1 x + c0."""
    return (
        18 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c1**3
        - 27 * c0**2
    )


def extra_store(bundled: FixtureStore) -> FixtureStore:
    """Bundled fixtures plus the two conductors whose member class numbers are
    pinned only as a set ({63, 9} resp. {228, 3}); the scanned metrics are
    insensitive to which member carries which value."""
    store = FixtureStore()
    store.merge(bundled)
    rows = [
        f"CUBIC,{f},{fld.coeffs[0]},{fld.coeffs[1]},{fld.coeffs[2]},{h}"
        for f, hs in ((2763, (63, 9)), (4867, (228, 3)))
        for fld, h in zip(enumerate_cubic_fields(f), hs)
    ]
    store.load_text("\n".join(rows))
    return store


class TestEnumeration:
    @pytest.mark.parametrize(
        "f,coeffs",
        [
            (7, (1, -2, -1)),
            (163, (1, -54, -169)),
            (313, (1, -104, 371)),
            (1063, (1, -354, 2441)),
            (1489, (1, -496, 4081)),
            (9, (0, -3, 1)),
        ],
    )
    def test_published_polynomials(self, f, coeffs):
        fields = enumerate_cubic_fields(f)
        assert len(fields) == 1
        assert fields[0].coeffs == coeffs

    def test_poly_strings(self):
        assert str(enumerate_cubic_fields(7)[0]) == "x^3+x^2-2*x-1"
        assert str(enumerate_cubic_fields(9)[0]) == "x^3-3*x+1"
        assert str(enumerate_cubic_fields(163)[0]) == "x^3+x^2-54*x-169"

    def test_165889_pair(self):
        fields = enumerate_cubic_fields(165889)
        assert [f.coeffs for f in fields] == [
            (1, -55296, 3809303),
            (1, -55296, -1996812),
        ]
        assert [f.b for f in fields] == [101, 144]

    def test_representation_invariants(self):
        for f in list(iter_conductors(7, 4000)):
            for field in enumerate_cubic_fields(f):
                assert field.a * field.a + 27 * field.b * field.b == 4 * f
                if field.e3 == 0:
                    assert field.a % 3 == 2
                else:
                    assert field.a % 9 != 3
                    assert field.b % 3 != 0

    def test_member_counts(self):
        for f in iter_conductors(7, 20000):
            members = family_members(f, EXACT_CONDUCTOR)
            assert len(members) == 1 << (arith.omega(f) - 1), f

    def test_polynomial_discriminants(self):
        for f in list(iter_conductors(7, 3000)) + [165889]:
            for field in enumerate_cubic_fields(f):
                disc = poly_disc(*field.coeffs)
                quo, rem = divmod(disc, f * f)
                assert rem == 0, (f, field.coeffs)
                root, exact = arith.isqrt_exact(quo)
                assert exact, (f, field.coeffs)

    def test_invalid_conductor_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cubic_fields(21)


class TestFamilies:
    def test_divisor_conductors(self):
        assert conductor_divisors(63) == [7, 9, 63]
        assert conductor_divisors(91) == [7, 13, 91]
        assert conductor_divisors(7) == [7]

    def test_family_sizes(self):
        assert len(family_members(165889, EXACT_CONDUCTOR)) == 2
        assert len(family_members(7, DIVISORS)) == 1
        assert len(family_members(91, DIVISORS)) == 4
        assert len(family_members(819, DIVISORS)) == 13  # (3^3 - 1) / 2

    def test_bad_scope(self):
        with pytest.raises(ValueError):
            family_members(7, "everything")


class TestFixtureStore:
    def test_bundled_loads(self, bundled_fixtures):
        assert len(bundled_fixtures) == 31

    def test_lookups(self, bundled_fixtures):
        assert class_number_cubic(enumerate_cubic_fields(7)[0], bundled_fixtures) == 1
        assert class_number_cubic(enumerate_cubic_fields(163)[0], bundled_fixtures) == 4
        f1, f2 = enumerate_cubic_fields(165889)
        assert class_number_cubic(f1, bundled_fixtures) == 3
        assert class_number_cubic(f2, bundled_fixtures) == 2352

    def test_missing_raises_with_polynomial(self, bundled_fixtures):
        field = enumerate_cubic_fields(331)[0]
        with pytest.raises(ClassNumberUnavailable) as err:
            class_number_cubic(field, bundled_fixtures)
        assert "331" in str(err.value)

    def test_rejects_malformed_lines(self):
        store = FixtureStore()
        with pytest.raises(ValueError):
            store.load_text("CUBIC,7,1,-2\n")
        with pytest.raises(ValueError):
            store.load_text("QUARTIC,7,1,-2,-1,1\n")
        with pytest.raises(ValueError):
            store.load_text("CUBIC,21,1,-2,-1,1\n")  # invalid conductor

    def test_comments_and_blanks_ok(self):
        store = FixtureStore()
        store.load_text("# nothing\n\nCUBIC,7,1,-2,-1,1  # trailing\n")
        assert store.get(enumerate_cubic_fields(7)[0]) == 1


class TestFamilyRecords:
    def test_f7_nongenus_mean(self, bundled_fixtures):
        rec = family_scan_record(7, EXACT_CONDUCTOR, Epsilon(1, 100), "nongenus", bundled_fixtures)
        assert rel_err(rec.value.approx, "0.9807290047229") < 1e-10

    def test_f63_divisors_mean_h(self, bundled_fixtures):
        rec = family_scan_record(63, DIVISORS, Epsilon(1, 50), "full", bundled_fixtures)
        p = rec.payload
        assert p.n_fields == 4
        assert p.H_prod == 9
        assert rel_err(root_mean(p.H_prod, 1, p.n_fields), "1.7320508075688772936") < 1e-12
        assert rel_err(rec.value.approx, "1.627685591700590660") < 1e-12

    def test_single_member_family_is_own_value(self, bundled_fixtures):
        rec = family_scan_record(163, EXACT_CONDUCTOR, Epsilon(1, 100), "nongenus", bundled_fixtures)
        assert rec.payload.h == 4
        assert rec.payload.poly == "x^3+x^2-54*x-169"

    def test_per_field_max_picks_max(self, bundled_fixtures):
        rec = family_scan_record(165889, EXACT_CONDUCTOR, Epsilon(1, 10), "per_field_max", bundled_fixtures)
        assert rec.payload.H == 2352
        assert rec.payload.h == 784
        assert rel_err(rec.value.approx, "235.6862811297153681") < 1e-12

    def test_genus_divisibility_enforced(self):
        # N = 2 forces 3 | H; a fabricated H = 4 must be rejected loudly
        store = FixtureStore()
        fields = enumerate_cubic_fields(91)
        rows = [
            f"CUBIC,91,{f.coeffs[0]},{f.coeffs[1]},{f.coeffs[2]},{h}"
            for f, h in zip(fields, (3, 4))
        ]
        store.load_text("\n".join(rows))
        with pytest.raises(ArithmeticError):
            family_scan_record(91, EXACT_CONDUCTOR, Epsilon(1, 100), "nongenus", store)


class TestFixtureStreams:
    def test_exact_stream_covered_conductors(self, bundled_fixtures):
        recs = list(
            iter_family_records(
                1, 1500, EXACT_CONDUCTOR, Epsilon(1, 100), "nongenus",
                bundled_fixtures, skip_uncovered=True,
            )
        )
        assert [r.key for r in recs] == [7, 9, 63, 163, 313, 1063, 1489]

    def test_uncovered_conductor_raises_without_skip(self, bundled_fixtures):
        with pytest.raises(ClassNumberUnavailable):
            list(
                iter_family_records(
                    1, 400, EXACT_CONDUCTOR, Epsilon(1, 100), "nongenus",
                    bundled_fixtures, skip_uncovered=False,
                )
            )

    def test_max_field_scan_reproduces_listing(self, bundled_fixtures, data_rows):
        """With the two set-pinned families added, the per-field-max scan at
        eps = 1/10 over covered conductors reproduces the published rows."""
        store = extra_store(bundled_fixtures)
        recs = list(
            iter_family_records(
                1, 200_000, EXACT_CONDUCTOR, Epsilon(1, 10), "per_field_max",
                store, skip_uncovered=True,
            )
        )
        events, _ = scan_collect(iter(recs), "maxima", BucketSpec(3))
        gold = [r for r in data_rows("cubic_eps_1_10_maxfield_listed.csv") if int(r["f"]) <= 200_000]
        got = [(e.record.payload.f, e.record.payload.H, e.record.payload.h) for e in events]
        want = [(int(r["f"]), int(r["H"]), int(r["h"])) for r in gold]
        assert got == want
        for ev, r in zip(events, gold):
            assert rel_err(ev.record.value.approx, r["C"]) < 1e-12

    def test_mean_scan_drops_all_composite_records(self, bundled_fixtures):
        """Replacing per-field max by the family mean removes the composite
        conductors from the record list (the corrected program's behavior)."""
        store = extra_store(bundled_fixtures)
        recs = list(
            iter_family_records(
                1, 200_000, EXACT_CONDUCTOR, Epsilon(1, 10), "nongenus",
                store, skip_uncovered=True,
            )
        )
        events, _ = scan_collect(iter(recs), "maxima", BucketSpec(3))
        assert all(e.record.payload.n_ramified == 1 for e in events)
