import os
import random
from fractions import Fraction

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmax import classnum, cli, sweep
from classmax.discriminants import IMAGINARY, REAL, is_fundamental
from classmax.maxima import BucketSpec, scan_collect
from classmax.metric import EPS_ZERO, Epsilon, c_eps, format_value


class TestTables:
    def test_fundamental_masks_match_predicate(self):
        mask_i = sweep.fundamental_mask(20000, IMAGINARY)
        mask_r = sweep.fundamental_mask(20000, REAL)
        for d in range(2, 20001):
            assert bool(mask_i[d]) == is_fundamental(-d), d
            assert bool(mask_r[d]) == is_fundamental(d), d

    def test_omega_table(self):
        om = sweep.omega_table(10000)
        for n in (1, 2, 12, 4199, 9240):
            from classmax.arith import omega

            assert int(om[n]) == omega(n)

    def test_imag_table_matches_form_count(self):
        table = sweep.imag_class_table(20000)
        mask = sweep.fundamental_mask(20000, IMAGINARY)
        for d in np.nonzero(mask)[0]:
            d = int(d)
            assert int(table[d]) == classnum.class_number_imaginary(-d), d

    def test_narrow_from_tables_matches_cycles(self):
        sweep._init_real_tables(6000)
        try:
            indptr, ddata = sweep._W["indptr"], sweep._W["ddata"]
            mask = sweep._W["fund"]
            for d in np.nonzero(mask)[0]:
                d = int(d)
                got = sweep._narrow_from_tables(d, indptr, ddata)
                assert got == classnum.narrow_class_number_real(d), d
        finally:
            sweep._W.clear()

    def test_reduced_form_pairs_match_module(self):
        sweep._init_real_tables(2000)
        try:
            indptr, ddata = sweep._W["indptr"], sweep._W["ddata"]
            for d in (5, 8, 12, 136, 316, 1596):
                a_list, b_list = sweep.reduced_form_pairs(d, indptr, ddata)
                got = set()
                for a, b in zip(a_list, b_list):
                    c = (b * b - d) // (4 * a)
                    got.add((a, b, c))
                    got.add((-a, b, -c))
                want = {(f.a, f.b, f.c) for f in classnum.reduced_indefinite_forms(d)}
                assert got == want, d
        finally:
            sweep._W.clear()


class TestTriples:
    def test_imaginary_triples_prefix(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 25)
        assert triples[:5] == [(3, 1, 1), (4, 1, 1), (7, 1, 1), (8, 1, 1), (11, 1, 1)]
        assert (15, 2, 2) in triples and (23, 1, 3) in triples

    def test_real_triples_prefix(self):
        triples = sweep.quad_triples(REAL, 2, 20)
        assert triples[:5] == [(5, 1, 1), (8, 1, 1), (12, 2, 2), (13, 1, 1), (17, 1, 1)]

    def test_worker_count_invariance(self):
        one = sweep.quad_triples(REAL, 2, 30000, workers=1)
        two = sweep.quad_triples(REAL, 2, 30000, workers=2)
        assert one == two

    def test_fork_pool_capped_at_core_count(self, monkeypatch):
        """The fake context maps in this process, so no process is started."""
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(sweep.multiprocessing, "get_context", lambda method: FakeContext())
        got = sweep.quad_triples(REAL, 2, 3000, workers=10_000)
        cores = os.cpu_count() or 1
        assert sizes == ([cores] if cores > 1 else [])
        assert got == sweep.quad_triples(REAL, 2, 3000, workers=1)

    def test_ascending_and_complete(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 3000)
        ds = [t[0] for t in triples]
        assert ds == sorted(ds)
        assert set(ds) == {d for d in range(1, 3001) if is_fundamental(-d)}


class TestRecords:
    def test_metric_values(self):
        triples = [(3, 1, 1), (15, 2, 2)]
        recs = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.NONGENUS)
        assert recs[0].payload.d_signed == -3
        assert recs[1].payload.h == 1
        full = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.FULL)
        assert full[1].value.h_num == 2
        raw = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.RAW_H)
        assert raw[1].value.eps == EPS_ZERO and raw[1].value.approx == 2

    def test_genus_divisibility_checked(self):
        with pytest.raises(ArithmeticError):
            sweep.quad_records([(15, 2, 3)], IMAGINARY, EPS_ZERO, sweep.NONGENUS)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            sweep.quad_records([], IMAGINARY, EPS_ZERO, "??")


class TestScaling:
    def test_argmax_invariance_under_h_scaling(self):
        """Multiplying every h by one constant must not move the record set."""
        triples = sweep.quad_triples(IMAGINARY, 1, 4000)
        eps = Epsilon(1, 20)
        base = sweep.quad_records(triples, IMAGINARY, eps, sweep.NONGENUS)
        events, _ = scan_collect(iter(base))
        for scale in (Fraction(7), Fraction(1, 3), Fraction(355, 113)):
            scaled = [
                rec.__class__(
                    key=rec.key,
                    payload=rec.payload,
                    value=c_eps(Fraction(rec.value.h_num) * scale, rec.value.disc, eps),
                )
                for rec in base
            ]
            scaled_events, _ = scan_collect(iter(scaled))
            assert [e.record.key for e in scaled_events] == [
                e.record.key for e in events
            ]

    def test_argmax_invariance_random_streams(self):
        rng = random.Random(5)
        eps = Epsilon(1, 7)
        for _ in range(20):
            keys = sorted(rng.sample(range(2, 10000), 60))
            hs = [rng.randint(1, 500) for _ in keys]
            recs = [
                sweep.quad_records([(k, 1, h)], IMAGINARY, eps, sweep.FULL)[0]
                for k, h in zip(keys, hs)
            ]
            base_events, _ = scan_collect(iter(recs))
            scale = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            scaled = [
                r.__class__(
                    key=r.key,
                    payload=r.payload,
                    value=c_eps(Fraction(r.value.h_num) * scale, r.value.disc, eps),
                )
                for r in recs
            ]
            scaled_events, _ = scan_collect(iter(scaled))
            assert [e.record.key for e in scaled_events] == [
                e.record.key for e in base_events
            ]


class TestEpsOneListing:
    def test_eps_1_nongenus_records(self, imag_triples, data_rows):
        """The eps = 1 record list below 1e6 matches the reference listing."""
        from classmax.metric import rel_err

        triples = [t for t in imag_triples if t[0] <= 1_000_000]
        config = cli.ScanConfig(
            family=cli.QUAD_IMAGINARY, eps_list=[Epsilon(1, 1)], lo=1, hi=1_000_000
        )
        [(_, events, _)] = cli.scan_triples(triples, config)
        gold = [r for r in data_rows("imag_eps_1_nongenus_listed.csv") if int(r["D"]) <= 1_000_000]
        assert [e.record.key for e in events] == [int(r["D"]) for r in gold]
        for ev, r in zip(events, gold):
            assert ev.record.payload.H == int(r["H"])
            assert rel_err(ev.record.value.approx, r["C"]) < 1e-12


class TestGenusFamily:
    def test_first_rows(self):
        rows, exceeded = sweep.genus_family_rows([2, 3, 5, 7, 11], Epsilon(1, 20))
        assert not exceeded
        assert [r["H"] for r in rows] == [1, 2, 4, 8, 32]
        assert [r["D"] for r in rows] == [-8, -24, -120, -840, -9240]

    def test_single_prime(self):
        rows, _ = sweep.genus_family_rows([3], Epsilon(1, 20))
        assert rows[0]["D"] == -3 and rows[0]["H"] == 1

    def test_odd_family_row(self):
        rows, _ = sweep.genus_family_rows([3, 5, 7], Epsilon(1, 20))
        assert rows[-1]["D"] == -420 and rows[-1]["H"] == 8

    def test_budget_exceeded(self):
        rows, exceeded = sweep.genus_family_rows(
            [2, 3, 5, 7, 11, 13], Epsilon(1, 20), budget_seconds=0.0
        )
        assert exceeded and rows == []

    def test_rejects_duplicates_and_composites(self):
        with pytest.raises(ValueError):
            sweep.genus_family_rows([2, 2], Epsilon(1, 20))
        with pytest.raises(ValueError):
            sweep.genus_family_rows([4], Epsilon(1, 20))

    def test_attached_discriminant(self):
        assert sweep.attached_imaginary_discriminant(2) == -8
        assert sweep.attached_imaginary_discriminant(3) == -3
        assert sweep.attached_imaginary_discriminant(15) == -15
        assert sweep.attached_imaginary_discriminant(105) == -420


class TestThresholdSearch:
    def brute(self, triples, grid, metric):
        best = None
        k = 0
        while grid * k < 2:
            eps = Epsilon.of(grid * k)
            records = sweep.quad_records(triples, IMAGINARY, eps, metric)
            events, _ = scan_collect(iter(records), buckets=BucketSpec(1))
            if len(events) >= 2:
                best = grid * k
            k += 1
        return best

    def test_matches_linear_scan(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 2000)
        for grid in (Fraction(1, 4), Fraction(1, 10)):
            got = sweep.threshold_search(triples, IMAGINARY, grid)
            assert got == self.brute(triples, grid, sweep.NONGENUS)

    def test_single_discriminant_sentinel(self):
        triples = sweep.quad_triples(IMAGINARY, 3, 3)
        assert sweep.threshold_search(triples, IMAGINARY, Fraction(1, 10)) is None


# ---------------------------------------------------------------------------
# certified float64 prefilter: the prefiltered CLI path against a scan of
# every record
# ---------------------------------------------------------------------------

MODES = ("maxima", "minima")


def summary(events):
    return [
        (e.record.key, e.nd, e.buckets, format_value(e.record.value.approx)) for e in events
    ]


def reference(triples, signature, eps, metric, mode, from_one, records=None):
    """quad_records over every triple, then scan_collect: no prefilter."""
    if records is None:
        records = sweep.quad_records(triples, signature, eps, metric)
    raw = metric in (sweep.RAW_H, sweep.RAW_SMALL_H)
    initial = c_eps(1, 1, EPS_ZERO if raw else eps) if from_one else None
    events, total = scan_collect(iter(records), mode, BucketSpec(3), initial)
    return summary(events), total


def prefiltered(triples, signature, eps, metric, mode, from_one, shards=1):
    config = cli.ScanConfig(
        family=cli.QUAD_IMAGINARY if signature == IMAGINARY else cli.QUAD_REAL,
        eps_list=[eps],
        lo=triples[0][0] if triples else 1,
        hi=triples[-1][0] if triples else 1,
        metric_kind=metric,
        mode=mode,
        shards=shards,
        compat_minima_init_one=from_one,
    )
    [(_, events, total)] = cli.scan_triples(triples, config)
    return summary(events), total


def assert_equivalent(triples, signature, eps, metric, shards=(1,)):
    records = sweep.quad_records(triples, signature, eps, metric)
    for mode in MODES:
        for from_one in (False, True):
            want = reference(triples, signature, eps, metric, mode, from_one, records)
            for n in shards:
                got = prefiltered(triples, signature, eps, metric, mode, from_one, n)
                assert got == want, (str(eps), metric, mode, from_one, n)


@pytest.fixture(scope="module")
def imag_200k():
    return sweep.quad_triples(IMAGINARY, 1, 200_000)


@pytest.fixture(scope="module")
def real_30k():
    return sweep.quad_triples(REAL, 2, 30_000)


class TestPrefilterEquivalence:
    @pytest.mark.parametrize("eps", ["0", "1/50", "1/20", "1", "5/4"])
    def test_imaginary_stream(self, imag_200k, eps):
        eps = Epsilon.of(Fraction(eps))
        shards = (1, 3) if eps == Epsilon(1, 50) else (1,)
        assert_equivalent(imag_200k, IMAGINARY, eps, sweep.NONGENUS, shards)

    @pytest.mark.parametrize("metric", [sweep.RAW_H, sweep.RAW_SMALL_H])
    def test_real_raw_ties(self, real_30k, metric):
        assert_equivalent(real_30k, REAL, EPS_ZERO, metric, shards=(1, 2))

    def test_exact_ties_at_eps_one(self):
        triples = [(4, 1, 2), (9, 1, 3)]  # C = 2/2 = 3/3 = 1
        assert_equivalent(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL)
        got, total = prefiltered(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL, "maxima", False)
        assert [e[0] for e in got] == [4] and total == 2
        got, _ = prefiltered(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL, "minima", True)
        assert got == []

    def test_equal_h_at_eps_zero(self):
        triples = [(5, 1, 7), (8, 1, 7), (12, 2, 14), (13, 1, 14), (17, 1, 7)]
        for metric in sweep.QUAD_METRICS:
            assert_equivalent(triples, IMAGINARY, EPS_ZERO, metric, shards=(1, 2))
        got, _ = prefiltered(triples, IMAGINARY, EPS_ZERO, sweep.RAW_H, "maxima", False)
        assert [e[0] for e in got] == [5, 12]

    def test_record_below_float64_resolution(self):
        """10**17 and 10**17 + 1 round to the same float64; only the exact
        comparator tells them apart, so the prefilter must keep both."""
        big = 10**17
        assert float(big) == float(big + 1)
        up = [(5, 1, big), (8, 1, big + 1)]
        down = [(5, 1, big + 1), (8, 1, big)]
        for triples, mode in ((up, "maxima"), (down, "minima")):
            got, _ = prefiltered(triples, IMAGINARY, EPS_ZERO, sweep.FULL, mode, False)
            assert [(e[0], e[1]) for e in got] == [(5, 1), (8, 2)]
            assert_equivalent(triples, IMAGINARY, EPS_ZERO, sweep.FULL, shards=(1, 2))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)),
            min_size=1,
            max_size=40,
        ),
        eps=st.sampled_from(["0", "1/50", "1/2", "1", "3/2"]),
        metric=st.sampled_from(sweep.QUAD_METRICS),
        shards=st.integers(1, 3),
    )
    def test_random_streams_small_h(self, rows, eps, metric, shards):
        triples = []
        key = 2
        for gap, n, h in rows:
            key += gap
            triples.append((key, n, h << (n - 1)))
        assert_equivalent(triples, IMAGINARY, Epsilon.of(Fraction(eps)), metric, (shards,))


class TestPrefilterValidation:
    """Every row is checked, also one the prefilter would drop: each bad row
    below sits after a larger value, so it is never a candidate."""

    def raises_like_reference(self, triples, exc, message, metric=sweep.NONGENUS):
        pattern = "^" + re.escape(message) + "$"
        with pytest.raises(exc, match=pattern):
            reference(triples, IMAGINARY, Epsilon(1, 20), metric, "maxima", False)
        for shards in (1, 2):
            with pytest.raises(exc, match=pattern):
                prefiltered(triples, IMAGINARY, Epsilon(1, 20), metric, "maxima", False, shards)
        with pytest.raises(exc, match=pattern):
            sweep.threshold_search(triples, IMAGINARY, Fraction(1, 10), metric)

    def test_genus_divisibility(self):
        triples = [(3, 1, 50), (4, 1, 1), (7, 2, 3), (8, 2, 5)]
        self.raises_like_reference(
            triples, ArithmeticError, "genus number 2^1 does not divide H at D = 7"
        )

    def test_nonpositive_h(self):
        self.raises_like_reference(
            [(3, 1, 50), (4, 1, 1), (7, 2, 0)], ValueError, "need h > 0 and disc >= 1"
        )

    def test_disc_below_one(self):
        self.raises_like_reference(
            [(3, 1, 50), (4, 1, 1), (0, 1, 1)], ValueError, "need h > 0 and disc >= 1"
        )

    def test_unknown_metric(self):
        self.raises_like_reference([(3, 1, 50), (4, 1, 1)], ValueError, "unknown metric '??'", "??")

    def test_keys_not_ascending(self):
        self.raises_like_reference(
            [(3, 1, 50), (4, 1, 1), (4, 1, 1), (7, 1, 1)],
            ValueError,
            "stream keys not ascending at 4",
        )
