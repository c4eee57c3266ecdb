import pytest

from classmax import arith, cubic
from classmax.cubic import (
    ClassNumberUnavailable,
    DIVISORS,
    EXACT_CONDUCTOR,
    FamilyStream,
    FixtureStore,
    enumerate_cubic_fields,
    family_members,
    family_scan_record,
    iter_conductors,
)
from classmax.discriminants import is_cyclic_conductor
from classmax.maxima import scan_collect
from classmax.metric import EPS_ZERO, Epsilon, c_eps, rel_err


def poly_disc(c2: int, c1: int, c0: int) -> int:
    """Discriminant of the monic cubic x^3 + c2 x^2 + c1 x + c0."""
    return (
        18 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2**2 * c1**2
        - 4 * c1**3
        - 27 * c0**2
    )


def family(f: int, scope: str, lookup) -> list:
    """Conductor f's members, each (field, H, h), as a FamilyStream over f
    alone reads them."""
    ((_, members),) = FamilyStream(f, f, scope, "nongenus", lookup, None).families
    return members


def reference_divisor_conductors(f: int) -> list[int]:
    """The cyclic cubic conductors d > 1 dividing f, ascending, each checked
    on its own."""
    return [d for d in arith.factorize(f).divisors() if d > 1 and is_cyclic_conductor(3, d)]


class CountingFactorize:
    """Counts the calls of arith.factorize while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        inner = arith.factorize

        def counted(n):
            self.calls += 1
            return inner(n)

        monkeypatch.setattr(arith, "factorize", counted)


def stub_lookup(field):
    """Made-up class numbers H = 3^(N-1) * (1 + (7a + 13b) mod 5) for every
    field; reads no factorization of its own."""
    return 3 ** (field.n_ramified - 1) * (1 + (7 * field.a + 13 * field.b) % 5)


def extra_store() -> FixtureStore:
    """Bundled fixtures plus the two conductors whose member class numbers are
    pinned only as a set ({63, 9} resp. {228, 3}); the scanned metrics are
    insensitive to which member carries which value."""
    store = FixtureStore.bundled()
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
        for f, _ in iter_conductors(7, 4000):
            for field in enumerate_cubic_fields(f):
                assert field.a * field.a + 27 * field.b * field.b == 4 * f
                if field.f % 9:
                    assert field.a % 3 == 2
                else:
                    assert field.a % 9 != 3
                    assert field.b % 3 != 0

    def test_member_counts(self):
        for f, _ in iter_conductors(7, 20000):
            members = family_members(f, EXACT_CONDUCTOR)
            assert len(members) == 1 << (arith.omega(f) - 1), f

    def test_polynomial_discriminants(self):
        for f in [f for f, _ in iter_conductors(7, 3000)] + [165889]:
            for field in enumerate_cubic_fields(f):
                disc = poly_disc(*field.coeffs)
                quo, rem = divmod(disc, f * f)
                assert rem == 0, (f, field.coeffs)
                root, exact = arith.isqrt_exact(quo)
                assert exact, (f, field.coeffs)

    def test_invalid_conductor_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cubic_fields(21)

    def test_field_count_checked(self):
        """A conductor of N parts has 2^(N-1) fields; another count is a fault."""
        with pytest.raises(ArithmeticError, match="^conductor 7: found 1 fields, expected 2$"):
            cubic._fields(7, 2)


class TestFamilies:
    def test_divisor_conductors(self):
        for f, want in ((63, [7, 9, 63]), (91, [7, 13, 91]), (7, [7])):
            assert reference_divisor_conductors(f) == want
            assert list(dict.fromkeys(m.f for m in family_members(f, DIVISORS))) == want

    def test_divisor_members_match_reference(self):
        """The members built from f's parts are the fields of the conductors
        d | f found one by one, in the same order, each with N = omega(d)."""
        for f, _ in iter_conductors(7, 20_000):
            members = family_members(f, DIVISORS)
            want = [
                field for d in reference_divisor_conductors(f) for field in enumerate_cubic_fields(d)
            ]
            assert members == want, f
            assert all(m.n_ramified == arith.omega(m.f) for m in members), f

    def test_one_factorization_per_fixture_conductor(self, monkeypatch, bundled_fixtures):
        for scope in (EXACT_CONDUCTOR, DIVISORS):
            counter = CountingFactorize(monkeypatch)
            FamilyStream(
                1, 7_000_000, scope, "nongenus", bundled_fixtures.get, bundled_fixtures.conductors
            )
            walked = [f for f in bundled_fixtures.conductors if f <= 7_000_000]
            assert counter.calls == len(walked), scope

    def test_factorizations_of_a_walk_over_every_conductor(self, monkeypatch):
        """iter_conductors factorizes only f = 1 (mod 3) and f = 9 (mod 27),
        once each, and each family's members come from those parts."""
        candidates = sum(1 for f in range(7, 20_001) if f % 3 == 1 or f % 27 == 9)
        for scope in (EXACT_CONDUCTOR, DIVISORS):
            counter = CountingFactorize(monkeypatch)
            FamilyStream(1, 20_000, scope, "nongenus", stub_lookup, None)
            assert counter.calls == candidates, scope

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
        assert bundled_fixtures.get(enumerate_cubic_fields(7)[0]) == 1
        assert bundled_fixtures.get(enumerate_cubic_fields(163)[0]) == 4
        f1, f2 = enumerate_cubic_fields(165889)
        assert bundled_fixtures.get(f1) == 3
        assert bundled_fixtures.get(f2) == 2352

    def test_missing_raises_with_polynomial(self, bundled_fixtures):
        with pytest.raises(ClassNumberUnavailable) as err:
            family(331, EXACT_CONDUCTOR, bundled_fixtures.get)
        assert "331" in str(err.value)

    def test_rejects_malformed_lines(self):
        store = FixtureStore()
        with pytest.raises(ValueError):
            store.load_text("CUBIC,7,1,-2\n")
        with pytest.raises(ValueError):
            store.load_text("QUARTIC,7,1,-2,-1,1\n")
        with pytest.raises(ValueError, match="^fixture line 1: 21 is not a conductor$"):
            store.load_text("CUBIC,21,1,-2,-1,1\n")  # invalid conductor
        with pytest.raises(ValueError, match="^fixture line 1: 0 is not a conductor$"):
            store.load_text("CUBIC,0,1,-2,-1,1\n")

    @pytest.mark.parametrize("field", ["abc", "", "1.5"])
    def test_non_integer_field_names_its_line(self, field):
        line = f"CUBIC,7,1,-2,-1,{field}"
        with pytest.raises(ValueError) as err:
            FixtureStore().load_text(f"# header\n{line}\n")
        assert str(err.value) == f"bad fixture line 2: {line!r}"

    def test_conflicting_class_numbers_rejected(self):
        store = FixtureStore()
        store.load_text("CUBIC,7,1,-2,-1,1\nCUBIC,7,1,-2,-1,1\n")  # a repeat is fine
        with pytest.raises(ValueError, match="^fixture line 2: conflicting"):
            store.load_text("CUBIC,163,1,-54,-169,4\nCUBIC,163,1,-54,-169,8\n")
        bundled = FixtureStore.bundled()
        with pytest.raises(ValueError, match="^fixture line 2: conflicting class numbers 1 and 5"):
            bundled.load_text("# another table\nCUBIC,7,1,-2,-1,5\n")

    def test_rejects_polynomial_of_another_conductor(self):
        store = FixtureStore()
        with pytest.raises(ValueError, match="fixture line 2: "):
            store.load_text("CUBIC,7,1,-2,-1,1\nCUBIC,13,1,-2,-1,1\n")  # f = 7's field

    def test_conductors(self, bundled_fixtures):
        assert {7, 9, 63, 163, 165889} <= bundled_fixtures.conductors
        store = FixtureStore.bundled()
        store.load_text("CUBIC,7,1,-2,-1,1\n")
        assert store.conductors == bundled_fixtures.conductors

    def test_comments_and_blanks_ok(self):
        store = FixtureStore()
        store.load_text("# nothing\n\nCUBIC,7,1,-2,-1,1  # trailing\n")
        assert store.get(enumerate_cubic_fields(7)[0]) == 1


class TestFamilyRecords:
    def test_f7_nongenus_mean(self, bundled_fixtures):
        members = family(7, EXACT_CONDUCTOR, bundled_fixtures.get)
        rec = family_scan_record(7, members, Epsilon(1, 100), "nongenus")
        assert rel_err(rec.value.approx, "0.9807290047229") < 1e-10

    def test_f63_divisors_mean_h(self, bundled_fixtures):
        members = family(63, DIVISORS, bundled_fixtures.get)
        rec = family_scan_record(63, members, Epsilon(1, 50), "full")
        assert rec.n_fields == 4
        assert rec.H == 9
        mean_h = c_eps(rec.H, 1, EPS_ZERO, root=rec.n_fields).approx
        assert rel_err(mean_h, "1.7320508075688772936") < 1e-12
        assert rel_err(rec.value.approx, "1.627685591700590660") < 1e-12

    def test_single_member_family_is_own_value(self, bundled_fixtures):
        members = family(163, EXACT_CONDUCTOR, bundled_fixtures.get)
        rec = family_scan_record(163, members, Epsilon(1, 100), "nongenus")
        assert rec.h == 4
        assert rec.poly == "x^3+x^2-54*x-169"

    def test_per_field_max_picks_max(self, bundled_fixtures):
        members = family(165889, EXACT_CONDUCTOR, bundled_fixtures.get)
        rec = family_scan_record(165889, members, Epsilon(1, 10), "per-field-max")
        assert rec.H == 2352
        assert rec.h == 784
        assert rel_err(rec.value.approx, "235.6862811297153681") < 1e-12

    def test_genus_divisibility_enforced(self):
        # N = 2 forces 3 | H; a fabricated H = 4 must be rejected loudly
        fields = enumerate_cubic_fields(91)
        rows = [
            f"CUBIC,91,{f.coeffs[0]},{f.coeffs[1]},{f.coeffs[2]},{h}"
            for f, h in zip(fields, (3, 4))
        ]
        with pytest.raises(
            ValueError, match="^fixture line 2: genus number 3 does not divide class number 4$"
        ):
            FixtureStore().load_text("\n".join(rows))
        # a lookup is trusted to hold the genus divisibility: breaking it is
        # an internal fault
        with pytest.raises(ArithmeticError):
            family(91, EXACT_CONDUCTOR, dict(zip(fields, (3, 4))).get)


class TestFixtureStreams:
    def test_exact_stream_covered_conductors(self, bundled_fixtures):
        stream = FamilyStream(
            1, 1500, EXACT_CONDUCTOR, "nongenus", bundled_fixtures.get, bundled_fixtures.conductors
        )
        keep, recs = stream.records(Epsilon(1, 100))
        assert [r.f for r in recs] == [7, 9, 63, 163, 313, 1063, 1489]
        assert len(stream) == 7 and list(keep) == list(range(7))

    def test_uncovered_conductor_raises_without_skip(self, bundled_fixtures):
        with pytest.raises(ClassNumberUnavailable):
            FamilyStream(1, 400, EXACT_CONDUCTOR, "nongenus", bundled_fixtures.get, None)

    @pytest.mark.parametrize(
        "scope", [EXACT_CONDUCTOR, DIVISORS], ids=["exact_conductor", "divisors"]
    )
    def test_fixture_walk_equals_walk_over_every_conductor(self, bundled_fixtures, scope):
        """Walking the fixture conductors yields exactly the covered families
        of the walk over every conductor."""
        eps = Epsilon(1, 100)
        for metric in ("nongenus", "full", "per-field-max"):
            want = []
            for f, _ in iter_conductors(1, 20_000):
                try:
                    members = family(f, scope, bundled_fixtures.get)
                except ClassNumberUnavailable:
                    continue
                want.append(family_scan_record(f, members, eps, metric))
            lookup, conductors = bundled_fixtures.get, bundled_fixtures.conductors
            got = FamilyStream(1, 20_000, scope, metric, lookup, conductors).records(eps)[1]
            assert got == want and want
            window = FamilyStream(63, 1489, scope, metric, lookup, conductors).records(eps)[1]
            assert window == [r for r in want if 63 <= r.f <= 1489]

    def test_partially_covered_family_is_skipped(self):
        store = FixtureStore()
        store.load_text("CUBIC,63,0,-21,-35,3\n")  # one of the two f = 63 fields
        stream = FamilyStream(1, 100, EXACT_CONDUCTOR, "nongenus", store.get, store.conductors)
        assert stream.records(Epsilon(1, 100))[1] == []
        store.load_text("CUBIC,63,0,-21,28,3\n")
        stream = FamilyStream(1, 100, EXACT_CONDUCTOR, "nongenus", store.get, store.conductors)
        assert [r.f for r in stream.records(Epsilon(1, 100))[1]] == [63]

    def test_max_field_scan_reproduces_listing(self, data_rows):
        """With the two set-pinned families added, the per-field-max scan at
        eps = 1/10 over covered conductors reproduces the published rows."""
        store = extra_store()
        stream = FamilyStream(
            1, 200_000, EXACT_CONDUCTOR, "per-field-max", store.get, store.conductors
        )
        _, recs = stream.records(Epsilon(1, 10))
        events, _ = scan_collect(iter(recs), "maxima")
        gold = [r for r in data_rows("cubic_eps_1_10_maxfield_listed.csv") if int(r["f"]) <= 200_000]
        got = [(e.record.f, e.record.H, e.record.h) for e in events]
        want = [(int(r["f"]), int(r["H"]), int(r["h"])) for r in gold]
        assert got == want
        for ev, r in zip(events, gold):
            assert rel_err(ev.record.value.approx, r["C"]) < 1e-12

    def test_mean_scan_drops_all_composite_records(self):
        """Replacing per-field max by the family mean removes the composite
        conductors from the record list (the corrected program's behavior)."""
        store = extra_store()
        stream = FamilyStream(1, 200_000, EXACT_CONDUCTOR, "nongenus", store.get, store.conductors)
        _, recs = stream.records(Epsilon(1, 10))
        events, _ = scan_collect(iter(recs), "maxima")
        assert all(e.record.n_ramified == 1 for e in events)
