import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classmax import arith, classnum, cli, sweep
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
        # every limit 0..64, so each strided slice starts and ends at every residue
        for limit in range(65):
            for signature, sign in ((IMAGINARY, -1), (REAL, 1)):
                mask = sweep.fundamental_mask(limit, signature)
                want = [d >= 2 and is_fundamental(sign * d) for d in range(limit + 1)]
                assert mask.tolist() == want, (limit, signature)

    def test_omega_table(self):
        """Every n <= 20000, and every limit 0..64 and limits at p^2, 2^k and
        p q with q > sqrt(limit), where the cofactor left after dividing out
        the p <= sqrt(limit) counts."""
        limits = list(range(65)) + [49, 121, 961, 2**10, 2**13, 2**14, 3 * 4099, 97 * 101]
        for limit in limits + [20000]:
            om = sweep.omega_table(limit)
            assert len(om) == limit + 1
            assert om[0] == 0
            assert om[1:].tolist() == [arith.omega(n) for n in range(1, limit + 1)], limit

    @pytest.mark.parametrize("signature", [IMAGINARY, REAL])
    def test_range_beyond_int32_refused_before_any_sieve(self, monkeypatch, signature):
        """omega_table's int32 remainder wraps at 2^31, so quad_triples
        refuses hi >= 2^31 before it allocates anything; 2^31 - 1 passes."""

        class Sieved(Exception):
            pass

        def no_sieve(limit):
            raise Sieved(limit)

        monkeypatch.setattr(sweep, "omega_table", no_sieve)
        for hi in (2**31, 10**19):
            with pytest.raises(ValueError, match=r"^need \|D\| < 2\^31"):
                sweep.quad_triples(signature, 1, hi)
        with pytest.raises(Sieved):
            sweep.quad_triples(signature, 2**31 - 2, 2**31 - 1)

    def test_imag_table_matches_form_count(self):
        table = sweep.imag_class_table(20000)
        assert (table.shape, table.dtype) == ((2, 5001), np.uint16)
        ds, want = _imag_reference()
        assert table[ds & 1, ds >> 2].tolist() == want

    def test_narrow_from_tables_matches_cycles(self):
        """The vectorized sweep agrees with the per-D rho walk, the reference."""
        for d, _, big_h in sweep.quad_triples(REAL, 2, 6000):
            assert big_h == classnum.narrow_class_number_real(d), d

    def test_reduced_form_pairs_match_module(self):
        """Every fundamental D <= 3000, against the per-D enumeration."""
        indptr, ddata = sweep.divisor_table(3000 // 4 + 1)
        for d in np.flatnonzero(sweep.fundamental_mask(3000, REAL)).tolist():
            a_list, b_list = sweep.reduced_form_pairs(d, indptr, ddata)
            got = set()
            for a, b in zip(a_list, b_list):
                c = (b * b - d) // (4 * a)
                got.add((a, b, c))
                got.add((-a, b, -c))
            want = {(f.a, f.b, f.c) for f in classnum.reduced_indefinite_forms(d)}
            assert got == want, d

    def test_reduced_forms_match_brute_force(self):
        """_reduced_forms gathers only the middle slice of each divisor row;
        the reference tries every a <= sqrt(D) dividing (D - b^2) / 4 for
        every b, with the exact test |sqrt(D) - 2a| < b, for every
        fundamental D <= 20000, and must give the same forms in the same
        order.  (A reduced form has 2a < sqrt(D) + b < 2 sqrt(D).)  Each
        cofactor k read from the divisor row must give 4ak = D - b^2, and
        each row index must count the rows (D, b) before the form's row."""
        limit = 20000
        ds = np.flatnonzero(sweep.fundamental_mask(limit, REAL))
        want = []
        for j, d in enumerate(ds.tolist()):
            b = np.arange(2 - d % 2, math.isqrt(d) + 1, 2)[:, None]
            a = np.arange(1, math.isqrt(d) + 1)[None, :]
            t1, t2 = 2 * a + b, 2 * a - b
            ok = ((d - b * b) // 4 % a == 0) & (t1 * t1 > d) & ((t2 < 0) | (t2 * t2 < d))
            bi, ai = np.nonzero(ok)  # row-major: b ascending, then a
            want += zip([j] * len(bi), a[0, ai].tolist(), b[bi, 0].tolist())
        j, row, a, b, k = sweep._reduced_forms(ds, *sweep.divisor_table(limit // 4 + 1))
        assert list(zip(j.tolist(), a.tolist(), b.tolist())) == want
        assert np.array_equal(4 * a * k, ds[j] - b * b)
        rows = [len(range(2 - d % 2, math.isqrt(d) + 1, 2)) for d in ds.tolist()]
        before = np.cumsum([0] + rows)[j]
        assert np.array_equal(row, before + (b - 2 + ds[j] % 2) // 2)

    def test_last_at_most_stays_in_range(self):
        values = np.array([1, 3, 3, 7, 2, 4, 9, 5, 6], dtype=np.int64)
        start = np.array([0, 0, 0, 4, 4, 7, 7, 7, 9], dtype=np.int64)
        end = np.array([4, 4, 4, 7, 4, 9, 7, 9, 9], dtype=np.int64)
        key = np.array([0, 3, 8, 4, 9, 5, 9, 9, 9], dtype=np.int64)
        got = sweep._last_at_most(values, start, end, key)
        # empty ranges [4, 4), [7, 7) and [9, 9) give start - 1 whatever follows
        assert got.tolist() == [-1, 2, 3, 5, 3, 7, 6, 8, 8]


@functools.cache
def _imag_reference() -> tuple[np.ndarray, list[int]]:
    """The fundamental D <= 20000, ascending, and their H(-D) from the
    per-discriminant reduced-form count."""
    ds = np.flatnonzero(sweep.fundamental_mask(20000, IMAGINARY))
    return ds, [classnum.class_number_imaginary(-d) for d in ds.tolist()]


# imag_class_table's settings besides the defaults: the int32 path, every a
# in a group of its own, and every a in one group.
IMAG_VARIANTS = [
    {"UINT16_LIMIT": 0},
    {"GROUP_CELLS": 1},
    {"GROUP_CELLS": 2**30},
]


class TestImagTable:
    """imag_class_table's patterns, boundary regions and tails, against the
    classnum reference: each check sums the parts of every stride 1..4 and
    reads them at every fundamental D <= limit.  Each part must also be the
    same table, entry for entry, under every IMAG_VARIANTS setting."""

    def check(self, limit: int, strides=range(1, 5)) -> None:
        ds, want = _imag_reference()
        k = int(np.searchsorted(ds, limit, "right"))
        ds, want = ds[:k], want[:k]
        for stride in strides:
            firsts = range(1, stride + 1)
            parts = [sweep.imag_class_table(limit, f, stride) for f in firsts]
            table = np.sum(parts, axis=0)
            assert table.shape == (2, limit // 4 + 1), (limit, stride)
            assert table[ds & 1, ds >> 2].tolist() == want, (limit, stride)
            for variant in IMAG_VARIANTS:
                with pytest.MonkeyPatch.context() as mp:
                    for name, value in variant.items():
                        mp.setattr(sweep, name, value)
                    dtype = np.uint16 if limit <= sweep.UINT16_LIMIT else np.int32
                    for f, part in zip(firsts, parts):
                        got = sweep.imag_class_table(limit, f, stride)
                        assert got.dtype == dtype, (limit, variant)
                        assert np.array_equal(got, part), (limit, stride, f, variant)

    def test_every_small_limit(self):
        for limit in range(301):
            self.check(limit)

    @pytest.mark.parametrize("a", [1, 2, 3, 7, 64])
    def test_limits_around_one_a(self, a):
        """At 3a^2 the limit cuts a's boundary region at its first form, at
        4a^2 - 1 and 4a^2 it ends at or just past the region, and at
        4a^2 + 4a - 1 the array ends one period into a's pattern."""
        for limit in (3 * a * a, 4 * a * a - 1, 4 * a * a, 4 * a * a + 4 * a - 1):
            self.check(limit)

    def test_stride_beyond_the_last_a(self):
        limit = 1000  # a <= isqrt(333) = 18
        self.check(limit, strides=[20])
        for first in (19, 20):
            assert not sweep.imag_class_table(limit, first, 20).any()

    def test_seeded_sample_near_3e6(self):
        limit = 3 * 10**6
        table = sweep.imag_class_table(limit)
        mask = sweep.fundamental_mask(limit, IMAGINARY)
        ds = random.Random(18).sample(np.flatnonzero(mask[2_900_000:]).tolist(), 200)
        for d in (d + 2_900_000 for d in ds):
            assert table[d & 1, d >> 2] == classnum.class_number_imaginary(-d), d

    def test_seeded_sample_near_1e7(self):
        limit, lo = 10**7, 9_900_000
        table = sweep.imag_class_table(limit)
        mask = sweep.fundamental_mask(limit, IMAGINARY)
        ds = random.Random(22).sample(np.flatnonzero(mask[lo:]).tolist(), 50)
        for d in (d + lo for d in ds):
            assert table[d & 1, d >> 2] == classnum.class_number_imaginary(-d), d

    def test_class_number_bound(self):
        """H(-D) < sqrt(D) / pi (log D + 3) at every fundamental 4 < D <=
        20000, and H = 1 at D = 3 and 4: the bound that keeps the uint16
        counts exact.  It increases with D and stays below 2^16 at
        UINT16_LIMIT."""
        ds, want = _imag_reference()
        want = np.array(want)
        assert ds[:2].tolist() == [3, 4] and want[:2].tolist() == [1, 1]
        bound = np.sqrt(ds[2:]) / np.pi * (np.log(ds[2:]) + 3)
        assert (want[2:] < bound).all()
        limit = sweep.UINT16_LIMIT
        assert math.sqrt(limit) / math.pi * (math.log(limit) + 3) < 2**16


class TestTriples:
    def test_imaginary_triples_prefix(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 25)
        assert list(triples[:5]) == [(3, 1, 1), (4, 1, 1), (7, 1, 1), (8, 1, 1), (11, 1, 1)]
        assert (15, 2, 2) in triples and (23, 1, 3) in triples

    def test_real_triples_prefix(self):
        triples = sweep.quad_triples(REAL, 2, 20)
        assert list(triples[:5]) == [(5, 1, 1), (8, 1, 1), (12, 2, 2), (13, 1, 1), (17, 1, 1)]

    @pytest.mark.parametrize("signature", [IMAGINARY, REAL])
    def test_rows_match_per_discriminant_routines(self, signature):
        """The column table reads as the (D, N, H) tuple list of Python ints
        that the per-D routines give."""
        lo, hi = 2, 3000
        sign, class_number = {
            IMAGINARY: (-1, lambda d: classnum.class_number_imaginary(-d)),
            REAL: (1, classnum.narrow_class_number_real),
        }[signature]
        want = [
            (d, arith.omega(d), class_number(d))
            for d in range(lo, hi + 1)
            if is_fundamental(sign * d)
        ]
        table = sweep.quad_triples(signature, lo, hi)
        assert (table.d.dtype, table.n.dtype, table.h.dtype) == (np.int64, np.uint8, np.int64)
        assert len(table) == len(want)
        assert list(table) == want
        assert [table[i] for i in range(len(want))] == want
        assert table[-1] == want[-1] and list(table[10:20]) == want[10:20]
        assert all(type(x) is int for x in table[7] + next(iter(table)))

    def test_worker_count_invariance(self):
        cases = ((REAL, 2, 30000), (IMAGINARY, 2, 200_000), (IMAGINARY, 99_991, 200_000))
        for signature, lo, hi in cases:
            one = sweep.quad_triples(signature, lo, hi, workers=1)
            two = sweep.quad_triples(signature, lo, hi, workers=2)
            for col in ("d", "n", "h"):
                assert np.array_equal(getattr(one, col), getattr(two, col)), (signature, lo, col)

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

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(sweep.multiprocessing, "get_context", lambda method: FakeContext())
        cores = os.cpu_count() or 1
        for signature in (REAL, IMAGINARY):
            sizes.clear()
            got = sweep.quad_triples(signature, 2, 3000, workers=10_000)
            assert sizes == ([cores] if cores > 1 else []), signature
            assert list(got) == list(sweep.quad_triples(signature, 2, 3000, workers=1))

    def test_ascending_and_complete(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 3000)
        ds = [t[0] for t in triples]
        assert ds == sorted(ds)
        assert set(ds) == {d for d in range(1, 3001) if is_fundamental(-d)}


class TestSweepMemory:
    def test_imaginary_table_peak(self):
        """No int64 array of length max: the sieves, the form counts and the
        columns of 303,968 D to 1e6 peak below 16 MB of traced allocations."""
        tracemalloc.start()
        try:
            table = sweep.quad_triples(IMAGINARY, 1, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 303_968
        assert peak < 16 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc mallopt")
    def test_real_sweep_reuses_heap_memory(self):
        """With glibc's thresholds pinned, the real sweep's segments reuse heap
        memory instead of faulting their arrays in afresh.  A fresh interpreter
        keeps the thresholds' history to the small warm-up, as a CLI run does;
        unpinned, the measured call took about 584,000 minor faults."""
        probe = (
            "import resource\n"
            "from classmax import sweep\n"
            "sweep.quad_triples('real', 2, 2000, workers=1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "sweep.quad_triples('real', 2, 150000, workers=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(sweep.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        assert int(out.stdout) < 20_000


class TestRealSegments:
    @pytest.fixture(scope="class")
    def reference(self):
        return sweep.quad_triples(REAL, 2, 30000)

    def test_ranges_match_slices(self, reference):
        rng = random.Random(2024)
        # (6, 6), (2, 2), (2, 4) and (9, 11) hold no fundamental D
        ranges = [(5, 5), (6, 6), (2, 4), (9, 11), (2, 2), (29999, 30000)]
        for _ in range(6):
            lo = rng.randint(2, 30000)
            ranges.append((lo, rng.randint(lo, min(30000, lo + rng.choice([50, 3000, 20000])))))
        # a range with no fundamental D has no segment, a short one a single
        # segment, so on two workers the pool maps none or one
        for lo, hi in ranges:
            want = [t for t in reference if lo <= t[0] <= hi]
            for workers in (1, 2):
                assert list(sweep.quad_triples(REAL, lo, hi, workers)) == want, (lo, hi, workers)

    @pytest.mark.parametrize("segment", [1, 2**15, 2**30])
    def test_segment_bounds_tile_the_column(self, segment, monkeypatch):
        """The runs tile [0, len(ds)) in order; each holds at most SEGMENT
        rows or a single D, and could not take the next D without exceeding
        SEGMENT rows."""
        monkeypatch.setattr(sweep, "SEGMENT", segment)
        for lo, hi in ((6, 6), (5, 5), (2, 150_000)):
            ds = np.flatnonzero(sweep.fundamental_mask(hi, REAL)[lo : hi + 1]) + lo
            # rows (D, b): b = D mod 2 in (0, sqrt D)
            rows = [len(range(2 - d % 2, math.isqrt(d) + 1, 2)) for d in ds.tolist()]
            bounds = sweep._segments(ds)
            edges = [0] + [j for _, j in bounds]
            assert bounds == list(zip(edges, edges[1:])) and edges[-1] == len(ds), (lo, hi)
            for i, j in bounds:
                assert i < j and (sum(rows[i:j]) <= segment or j - i == 1), (lo, hi, i, j)
                assert j == len(ds) or sum(rows[i : j + 1]) > segment, (lo, hi, i, j)

    @pytest.mark.parametrize("segment", [1, 2**20])
    def test_segment_size_does_not_change_results(self, reference, segment, monkeypatch):
        monkeypatch.setattr(sweep, "SEGMENT", segment)
        assert list(sweep.quad_triples(REAL, 2, 5000)) == [t for t in reference if t[0] <= 5000]

    @pytest.mark.parametrize("block", [1, 1000, 2**16])
    def test_block_bounds_tile_the_column(self, block, monkeypatch):
        """The blocks tile [0, len(ds)) in order, each of at most BLOCK D;
        there are at least `workers` of them while ds has that many D.  To
        1.5e5 (45,590 D) no share is cut again, and the workers' shares of
        rows differ by at most two D's rows."""
        monkeypatch.setattr(sweep, "BLOCK", block)
        for lo, hi in ((6, 6), (5, 5), (2, 40), (2, 150_000)):
            ds = np.flatnonzero(sweep.fundamental_mask(hi, REAL)[lo : hi + 1]) + lo
            rows = sweep._row_counts(ds)
            for workers in (1, 2, 3):
                bounds = sweep._blocks(ds, workers)
                edges = [0] + [j for _, j in bounds]
                assert bounds == list(zip(edges, edges[1:])) and edges[-1] == len(ds)
                assert all(0 < j - i <= block for i, j in bounds), (lo, hi, workers)
                assert len(bounds) >= min(workers, len(ds)), (lo, hi, workers)
                if block == 2**16 and hi == 150_000:
                    shares = [int(rows[i:j].sum()) for i, j in bounds]
                    assert len(bounds) == workers
                    assert max(shares) - min(shares) <= 2 * int(rows.max()), shares

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_results(self, reference, block, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK", block)
        for workers in (1, 2):
            got = sweep.quad_triples(REAL, 2, 3000, workers)
            assert list(got) == [t for t in reference if t[0] <= 3000], workers

    def test_divisor_table_rows(self):
        """Every row m <= 20000 holds the divisors a <= sqrt(m) of m,
        ascending, in uint16."""
        limit = 20000
        indptr, ddata = sweep.divisor_table(limit)
        assert (indptr.dtype, ddata.dtype) == (np.int64, np.uint16)
        assert len(indptr) == limit + 2 and indptr[-1] == len(ddata)
        for m in range(limit + 1):
            want = [a for a in range(1, math.isqrt(m) + 1) if m % a == 0]
            assert ddata[indptr[m] : indptr[m + 1]].tolist() == want, m

    def test_corrupted_divisor_table_raises(self, monkeypatch):
        """A wrong divisor in row m = 6, [1, 4]: its top 4 does not divide 6
        and 4^2 > 6, which D = 28 reads first."""
        table = sweep.divisor_table

        def corrupted(limit):
            indptr, ddata = table(limit)
            ddata = ddata.copy()
            assert list(ddata[indptr[6] : indptr[7]]) == [1, 2]
            ddata[indptr[6] + 1] = 4
            return indptr, ddata

        monkeypatch.setattr(sweep, "divisor_table", corrupted)
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 28$"):
            sweep.quad_triples(REAL, 2, 100)

    def test_successor_lookup_stays_in_its_row(self, monkeypatch):
        """Filling row m = 15 with ones hides the forms (3, 5, -5) and
        (5, 5, -3) of row (85, 5) of D = 85, whose next row (85, 7) starts
        with the same a = 3; the top of row m = 15, 1, is not above the
        entry below it, which catches it."""
        table = sweep.divisor_table
        assert sweep.reduced_form_pairs(85, *table(22)) == ([3, 5, 3, 1], [5, 5, 7, 9])

        def corrupted(limit):
            indptr, ddata = table(limit)
            ddata = ddata.copy()
            assert list(ddata[indptr[15] : indptr[16]]) == [1, 3]
            ddata[indptr[15] : indptr[16]] = 1  # m = (85 - 5^2) / 4 = 15
            return indptr, ddata

        monkeypatch.setattr(sweep, "divisor_table", corrupted)
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 85$"):
            sweep.quad_triples(REAL, 85, 85)

    @staticmethod
    def corrupt(monkeypatch, edit) -> None:
        """Make sweep.divisor_table return edit(indptr, ddata) of a copy of
        the true table."""
        table = sweep.divisor_table

        def corrupted(limit):
            indptr, ddata = table(limit)
            return edit(indptr, ddata.copy())

        monkeypatch.setattr(sweep, "divisor_table", corrupted)

    def corrupt_row(self, monkeypatch, m, edit) -> None:
        """As corrupt, with edit(row) on a view of row m, such as m = 6,
        [1, 2], or m = 30, [1, 2, 3, 5].  D = 28, 33 and 40 (t = 1) read
        all of row 6; D = 124 (b = 2, t = 4) reads the entries 2, 3 and 5
        of row 30 around its first entry above t, 5, and D = 184 (b = 8,
        t = 2) reads all of it."""

        def edit_table(indptr, ddata):
            row = ddata[indptr[m] : indptr[m + 1]]
            assert row.tolist() == [a for a in range(1, math.isqrt(m) + 1) if m % a == 0]
            edit(row)
            return indptr, ddata

        self.corrupt(monkeypatch, edit_table)

    def test_duplicated_divisors_raise(self, monkeypatch):
        """With every entry twice, each count of entries above t doubles,
        and so does every H.  The sweep's size check catches it, and so,
        past that check, does the strict ascent of each row's top: row
        m = 1, [1, 1], which D = 5 reads alone, has a top that is not above
        the entry below it."""
        indptr, ddata = sweep.divisor_table(3000 // 4 + 1)
        indptr, ddata = 2 * indptr, np.repeat(ddata, 2)
        monkeypatch.setattr(sweep, "divisor_table", lambda limit: (indptr, ddata))
        with pytest.raises(ArithmeticError, match="bad divisor table: 5118 entries, not 2559$"):
            sweep.quad_triples(REAL, 2, 3000)
        ds = np.flatnonzero(sweep.fundamental_mask(3000, REAL))
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 5$"):
            sweep._narrow_counts(ds, indptr, ddata)

    # a negated uint16 entry x wraps to (-x) mod 2^16
    BAD_ENTRIES = pytest.mark.parametrize(
        "bad", [lambda x: 0, lambda x: -int(x) % 2**16], ids=["zero", "negated"]
    )

    @pytest.mark.parametrize(
        "offset, first_bad, what",
        [
            (0, 28, "bad divisor row"),  # the entry 1 before D = 28's first is below 1 or above t
            (1, 28, "bad divisor row"),  # the top 2 is below 1, or its square is above 6
        ],
    )
    @BAD_ENTRIES
    def test_bad_entry_raises(self, monkeypatch, offset, first_bad, what, bad):
        """One entry of row m = 6 zeroed or wrapped, swept to 3000: the
        error names first_bad, the first D that fails alone.  D = 28 has
        t = 1, so it reads both entries: 1 before its first and 2 at it."""

        def edit(row):
            row[offset] = bad(row[offset])

        self.corrupt_row(monkeypatch, 6, edit)
        with pytest.raises(ArithmeticError, match=f"{what} at d = {first_bad}$"):
            sweep.quad_triples(REAL, 2, 3000)

    @pytest.mark.parametrize(
        "offset, first_bad, what",
        [
            (2, 124, "bad divisor row"),  # the entry 3 before D = 124's first is below 1 or above t
            (3, 124, "bad divisor row"),  # the top 5 is below 1, or its square is above 30
        ],
    )
    @BAD_ENTRIES
    def test_bad_entry_of_row_30_raises(self, monkeypatch, offset, first_bad, what, bad):
        """As test_bad_entry_raises, on the entries 3 and 5 of row m = 30,
        whose first reader is D = 124."""

        def edit(row):
            row[offset] = bad(row[offset])

        self.corrupt_row(monkeypatch, 30, edit)
        with pytest.raises(ArithmeticError, match=f"{what} at d = {first_bad}$"):
            sweep.quad_triples(REAL, 2, 3000)

    @pytest.mark.parametrize(
        "i, k, what",
        [(0, 1, "bad divisor row")],  # row [2, 1]: the top 1 is not above the entry below it
    )
    def test_swapped_entries_raise(self, monkeypatch, i, k, what):
        """The swap of the two entries of row m = 6, whose first reader is
        D = 28."""

        def edit(row):
            row[[i, k]] = row[[k, i]]

        self.corrupt_row(monkeypatch, 6, edit)
        with pytest.raises(ArithmeticError, match=f"{what} at d = 28$"):
            sweep.quad_triples(REAL, 2, 3000)

    @pytest.mark.parametrize(
        "i, k, what",
        [
            (1, 2, "bad divisor row"),  # [1, 3, 2, 5]: the entries before D = 124's first descend
            (2, 3, "bad divisor row"),  # [1, 2, 5, 3]: the top 3 is not above the entry below it
            (0, 3, "bad divisor row"),  # [5, 2, 3, 1]: the top 1 is not above the entry below it
        ],
    )
    def test_swapped_entries_of_row_30_raise(self, monkeypatch, i, k, what):
        """Swaps in row m = 30, whose first reader is D = 124.  The swap
        (1, 2) leaves the first entry above t of every reader, and so every
        form count, as it was; it is caught only because the entries around
        the first must ascend."""

        def edit(row):
            row[[i, k]] = row[[k, i]]

        self.corrupt_row(monkeypatch, 30, edit)
        with pytest.raises(ArithmeticError, match=f"{what} at d = 124$"):
            sweep.quad_triples(REAL, 2, 3000)

    def test_swap_after_first_raises(self, monkeypatch):
        """Row m = 60 with its entries 2 and 3 swapped, [1, 3, 2, 4, 5, 6],
        read by D = 865 (b = 25, t = 2) alone: the bisection stops before 3,
        so the row would count 5 entries above t instead of 4, and only the
        entry after the first, 2 <= 3, shows it."""

        def edit(row):
            row[[1, 2]] = row[[2, 1]]

        self.corrupt_row(monkeypatch, 60, edit)
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 865$"):
            sweep.quad_triples(REAL, 865, 865)

    def test_missing_principal_form_raises(self, monkeypatch):
        """Zeroing row m = 1, [1], hides the principal form of D = 5, 8, 13
        and 29; the row's top, 0, is below 1."""

        def edit(indptr, ddata):
            ddata[indptr[1]] = 0
            return indptr, ddata

        self.corrupt(monkeypatch, edit)
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 5$"):
            sweep.quad_triples(REAL, 2, 30)

    def test_empty_row_raises(self, monkeypatch):
        """Moving the boundary between rows m = 0 and 1 empties row 1 and
        keeps the table's size; D = 5, whose only row is m = 1, must not
        read the entry past the row as its top."""

        def edit(indptr, ddata):
            indptr = indptr.copy()
            indptr[1] += 1
            return indptr, ddata

        self.corrupt(monkeypatch, edit)
        with pytest.raises(ArithmeticError, match="bad divisor row at d = 5$"):
            sweep.quad_triples(REAL, 2, 30)

    @pytest.mark.parametrize("kind", ["zero", "negated", "swapped", "dropped"])
    def test_any_bad_entry_raises_or_is_harmless(self, monkeypatch, kind):
        """For 30 seeded entries of the table to 3000, and the divisor 1 of 10
        seeded rows m <= 30 (the last rows (D, b) of some D, read in full), a
        zeroed entry, one negated (wrapped to (-x) mod 2^16), one swapped with
        the next in its row, or one dropped from its row (the rows after it
        move down by one): every fundamental D <= 3000 that reads the entry's
        row m (D = 4m + b^2), swept alone, raises ArithmeticError or gets its
        true H.  A dropped entry is caught by the size of the table
        (_check_size), as the row checks can miss it."""
        table = sweep.quad_triples(REAL, 2, 3000)
        want = dict(zip(table.d.tolist(), table.h.tolist()))
        indptr, ddata = sweep.divisor_table(3000 // 4 + 1)
        raised = 0
        rng = random.Random(20)
        entries = rng.sample(range(len(ddata)), 30) + indptr[rng.sample(range(1, 31), 10)].tolist()
        for e in entries:
            m = int(np.searchsorted(indptr, e, "right")) - 1
            if kind == "swapped" and e + 1 == indptr[m + 1]:
                continue  # the last entry of its row
            bad, bad_indptr = ddata.copy(), indptr
            if kind == "swapped":
                bad[[e, e + 1]] = bad[[e + 1, e]]
            elif kind == "dropped":
                bad = np.delete(bad, e)
                bad_indptr = indptr.copy()
                bad_indptr[m + 1 :] -= 1
            else:
                bad[e] = 0 if kind == "zero" else -int(bad[e]) % 2**16
            table = (bad_indptr, bad)
            monkeypatch.setattr(sweep, "divisor_table", lambda limit, table=table: table)
            for d in (4 * m + b * b for b in range(1, math.isqrt(3000) + 1)):
                if d not in want:
                    continue
                try:
                    got = sweep.quad_triples(REAL, d, d).h.tolist()
                except ArithmeticError:
                    raised += 1
                    continue
                assert got == [want[d]], (kind, e, d)
        assert raised > 0


def fundamental_unit(d: int) -> tuple[int, int, int]:
    """(x, y, N) with eps = (x + y sqrt d) / 2 > 1 the fundamental unit of
    discriminant d > 0, and N = (x^2 - d y^2) / 4 = +-1 its norm.

    The convergents p/q of omega = (d mod 2 + sqrt d) / 2 come from its
    complete quotients (P + sqrt d) / Q (Cohen 5.7).  A unit p - q conj(omega)
    > 1 has |omega - p/q| < 1 / (2 q^2) for d > 5 (and 1/1 is a convergent at
    d = 5), so p/q is a convergent; the first of norm +-1 gives eps.
    """
    r = math.isqrt(d)
    big_p, big_q = d % 2, 2
    p_prev, p = 0, 1  # p_{-2}, p_{-1}
    q_prev, q = 1, 0
    while True:
        a = (big_p + r) // big_q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        x, y = 2 * p - (d % 2) * q, q
        if abs(x * x - d * y * y) == 4:
            return x, y, (x * x - d * y * y) // 4
        big_p = a * big_q - big_p
        big_q = (d - big_p * big_p) // big_q


def narrow_class_number_analytic(d: int) -> float:
    """H+ of fundamental d > 0 from H+ log eps+ = -sum_{a<d} chi(a) log sin(pi a/d),
    with eps+ the least totally positive unit > 1.  Shares no code with the
    reduced forms or rho."""
    chi = classnum.kronecker_table(d)
    a = np.arange(1, d)
    s = -float(np.dot(chi[1:], np.log(np.sin(np.pi * a / d))))
    x, y, norm = fundamental_unit(d)
    with mpmath.workdps(40):
        log_eps = mpmath.log((x + y * mpmath.sqrt(d)) / 2)
    return s / float(log_eps if norm == 1 else 2 * log_eps)


class TestNarrowOracle:
    def test_fundamental_units(self):
        assert fundamental_unit(5) == (1, 1, -1)
        assert fundamental_unit(8) == (2, 1, -1)
        assert fundamental_unit(12) == (4, 1, 1)
        assert fundamental_unit(13) == (3, 1, -1)
        assert fundamental_unit(136) == (70, 6, 1)  # 35 + 3 sqrt 34

    def test_analytic_formula_matches_sweep(self):
        triples = {d: big_h for d, _, big_h in sweep.quad_triples(REAL, 2, 20000)}
        sample = random.Random(31).sample(sorted(triples), 100) + [5, 8, 12, 136, 1596]
        for d in sample:
            assert abs(narrow_class_number_analytic(d) - triples[d]) < 1e-6, d

    @pytest.mark.parametrize("top, count", [(10**6, 14), (4 * 10**6, 6), (10**7, 4)])
    def test_single_discriminants_far_out(self, top, count):
        """Seeded fundamental D in [top - 20000, top], each swept alone (its
        divisor table built to top / 4), against the per-D rho walk."""
        lo = top - 20000
        ds = np.flatnonzero(sweep.fundamental_mask(top, REAL)[lo:]) + lo
        for d in random.Random(top).sample(ds.tolist(), count):
            want = (d, arith.omega(d), classnum.narrow_class_number_real(d))
            assert list(sweep.quad_triples(REAL, d, d)) == [want], d


def log_eps_plus(d: int) -> mpmath.mpf:
    """log of the least totally positive unit eps+ > 1 of discriminant d > 0,
    to 40 digits."""
    x, y, norm = fundamental_unit(d)
    with mpmath.workdps(40):
        log_eps = mpmath.log((x + y * mpmath.sqrt(d)) / 2)
        return log_eps if norm == 1 else 2 * log_eps


class TestNarrowDistance:
    """H+ = T / L: the lemma in _narrow_counts, its float64 bound, and the
    checks that use them."""

    def test_every_cycle_has_the_same_distance(self):
        """Every rho cycle of every fundamental D < 3000 (classnum.form_cycles)
        has distance log eps+; the principal walk finds that distance, and
        the length of the cycle of (1, b0, c)."""
        ds = np.flatnonzero(sweep.fundamental_mask(2999, REAL))
        length, steps = sweep._principal_walk(ds, np.full(len(ds), 10**6))
        for d, walked, n in zip(ds.tolist(), length.tolist(), steps.tolist()):
            want = float(log_eps_plus(d))
            root = math.sqrt(d)
            b0 = math.isqrt(d) - ((math.isqrt(d) ^ d) & 1)
            for cycle in classnum.form_cycles(d):
                dist = math.fsum(math.log((f.b + root) / (2 * abs(f.a))) for f in cycle)
                assert abs(dist - want) < 1e-12 * want, (d, cycle[0])
                if classnum.QuadraticForm(1, b0, -(d - b0 * b0) // 4) in cycle:
                    assert n == len(cycle), d
            assert abs(walked - want) < 1e-12 * want, d

    def test_ratio_far_below_its_bound_to_1e6(self, monkeypatch):
        """Over every fundamental D to 1e6, |T / L - H| stays at least 1000
        times below the bound of _narrow_counts' docstring."""
        parts = []
        row_distances, principal_walk = sweep._row_distances, sweep._principal_walk

        def rows_seen(ds, indptr, ddata):
            got = row_distances(ds, indptr, ddata)
            parts.append((ds, *got))
            return got

        def walk_seen(ds, bound):
            got = principal_walk(ds, bound)
            parts[-1] += got
            return got

        monkeypatch.setattr(sweep, "_row_distances", rows_seen)
        monkeypatch.setattr(sweep, "_principal_walk", walk_seen)
        table = sweep.quad_triples(REAL, 2, 10**6, workers=1)
        ds, total, forms, _, length, steps = (np.concatenate(c) for c in zip(*parts))
        assert np.array_equal(ds, table.d) and len(ds) == 303_957
        ratio = total / length
        bound = sweep._ratio_bound(forms, sweep._row_counts(ds), steps, table.h, length)
        assert (np.abs(ratio - table.h) / bound).max() <= 1e-3
        assert np.abs(ratio - table.h).max() < 1e-11

    def test_scaled_walk_raises(self, monkeypatch):
        """An L that is 1e-3 off puts T / L out of the bound at the first D."""
        principal_walk = sweep._principal_walk

        def scaled(ds, bound):
            length, steps = principal_walk(ds, bound)
            return length * (1 + 1e-3), steps

        monkeypatch.setattr(sweep, "_principal_walk", scaled)
        with pytest.raises(ArithmeticError, match=r"T / L is not a positive integer at d = 5$"):
            sweep.quad_triples(REAL, 2, 3000)

    def test_walk_that_does_not_return_raises(self, monkeypatch):
        """With no form counted, the walk may take 2 steps: D = 17 is the
        first D whose principal cycle is longer (6 forms)."""
        row_distances = sweep._row_distances

        def no_forms(ds, indptr, ddata):
            total, forms, failed = row_distances(ds, indptr, ddata)
            return total, 0 * forms, failed

        monkeypatch.setattr(sweep, "_row_distances", no_forms)
        with pytest.raises(ArithmeticError, match="principal rho walk did not return at d = 17$"):
            sweep.quad_triples(REAL, 2, 3000)


class TestRecords:
    def test_metric_values(self):
        triples = [(3, 1, 1), (15, 2, 2)]
        recs = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.NONGENUS)
        assert recs[0].d_signed == -3
        assert recs[1].h == 1
        full = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.FULL)
        assert full[1].value.h == 2
        raw = sweep.quad_records(triples, IMAGINARY, Epsilon(1, 20), sweep.RAW_H)
        assert raw[1].value.disc == 1 and raw[1].value.approx == 2
        assert raw[1].value.eps == Epsilon(1, 20)

    @pytest.mark.parametrize("metric", [sweep.RAW_H, sweep.RAW_SMALL_H])
    def test_raw_value_is_h_over_disc_one(self, metric):
        """A raw record carries the scan's eps over disc 1, so its value is
        H (or h) at that eps."""
        triples = [(3, 1, 1), (15, 2, 2), (120, 3, 4)]
        for rec in sweep.quad_records(triples, REAL, Epsilon(1, 2), metric):
            assert rec.value.disc == 1 and rec.value.eps == Epsilon(1, 2)
            assert rec.value.h == (rec.H if metric == sweep.RAW_H else rec.h)
            assert rec.value.approx == rec.value.h

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
        # the scalings by 7, 1/3 and 355/113, each as two integer scalings
        for scale in (7, 1, 1, 3, 355, 113):
            scaled = [
                dataclasses.replace(rec, value=c_eps(rec.value.h * scale, rec.value.disc, eps))
                for rec in base
            ]
            scaled_events, _ = scan_collect(iter(scaled))
            assert [e.record.f for e in scaled_events] == [
                e.record.f for e in events
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
            # the scaling by num/den, as two integer scalings
            num, den = rng.randint(1, 40), rng.randint(1, 40)
            for scale in (num, den):
                scaled = [
                    dataclasses.replace(r, value=c_eps(r.value.h * scale, r.value.disc, eps))
                    for r in recs
                ]
                scaled_events, _ = scan_collect(iter(scaled))
                assert [e.record.f for e in scaled_events] == [
                    e.record.f for e in base_events
                ]


class TestEpsOneListing:
    def test_eps_1_nongenus_records(self, imag_triples, data_rows):
        """The eps = 1 record list below 1e6 matches the reference listing."""
        from classmax.metric import rel_err

        triples = [t for t in imag_triples if t[0] <= 1_000_000]
        config = cli.ScanConfig(
            family=cli.QUAD_IMAGINARY, eps_list=[Epsilon(1, 1)], lo=1, hi=1_000_000
        )
        stream = sweep.QuadStream(triples, IMAGINARY, config.metric_kind, config.mode)
        [(_, events, _)] = cli.scan_stream(stream, config)
        gold = [r for r in data_rows("imag_eps_1_nongenus_listed.csv") if int(r["D"]) <= 1_000_000]
        assert [e.record.f for e in events] == [int(r["D"]) for r in gold]
        for ev, r in zip(events, gold):
            assert ev.record.H == int(r["H"])
            assert rel_err(ev.record.value.approx, r["C"]) < 1e-12


class TestGenusFamily:
    def test_first_rows(self):
        rows, exceeded = sweep.genus_family_rows([2, 3, 5, 7, 11], Epsilon(1, 20))
        assert not exceeded
        assert [r.H for r in rows] == [1, 2, 4, 8, 32]
        assert [r.d_signed for r in rows] == [-8, -24, -120, -840, -9240]

    def test_single_prime(self):
        rows, _ = sweep.genus_family_rows([3], Epsilon(1, 20))
        assert rows[0].d_signed == -3 and rows[0].H == 1

    def test_odd_family_row(self):
        rows, _ = sweep.genus_family_rows([3, 5, 7], Epsilon(1, 20))
        assert rows[-1].d_signed == -420 and rows[-1].H == 8

    def test_genus_number_must_divide_h(self, monkeypatch):
        # H = 3 at D = -15 (N = 2) is not divisible by the genus number 2
        monkeypatch.setattr(classnum, "class_number_imaginary", lambda d: 3)
        with pytest.raises(ArithmeticError):
            sweep.genus_family_rows([3, 5], Epsilon(1, 20))

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
        """Largest grid eps < 2 at which an exact maxima scan over every row
        has >= 2 events.  At eps = p/q the metric values order as
        h^(2q) / D^p, so the scan compares integer cross-powers; it stops at
        the second event."""
        by_genus, raw = sweep.metric_terms(metric)
        best = None
        k = 0
        while grid * k < 2:
            eps = grid * k
            p, q = (0, 1) if raw else (eps.numerator, eps.denominator)
            events, top = 0, None
            for d, n, big_h in triples:
                h = big_h >> (n - 1) if by_genus else big_h
                if top is None or h ** (2 * q) * top[1] ** p > top[0] ** (2 * q) * d**p:
                    events, top = events + 1, (h, d)
                    if events == 2:
                        best = grid * k
                        break
            k += 1
        return best

    def test_matches_linear_scan(self):
        triples = sweep.quad_triples(IMAGINARY, 1, 2000)
        for grid in (Fraction(1, 4), Fraction(1, 10), Fraction(3)):
            got = sweep.threshold_search(triples, IMAGINARY, grid)
            assert got == self.brute(triples, grid, sweep.NONGENUS)
        assert sweep.threshold_search(triples, IMAGINARY, Fraction(3)) == 0

    @pytest.mark.parametrize("metric", [sweep.NONGENUS, sweep.FULL])
    def test_real_stream(self, real_30k, metric):
        for grid in (Fraction(1, 4), Fraction(1, 10), Fraction(1, 100)):
            got = sweep.threshold_search(real_30k, REAL, grid, metric)
            assert got is not None and got == self.brute(real_30k, grid, metric), grid

    def test_exact_tie(self):
        """C = 2/4^(e/2) and 3/9^(e/2) tie at e = 1 = s, which has one event."""
        triples = [(4, 1, 2), (9, 1, 3)]
        quarter = sweep.threshold_search(triples, IMAGINARY, Fraction(1, 4), sweep.FULL)
        assert quarter == Fraction(3, 4)
        assert sweep.threshold_search(triples, IMAGINARY, Fraction(1), sweep.FULL) == 0
        for grid in (Fraction(1, 4), Fraction(1), Fraction(1, 3)):
            got = sweep.threshold_search(triples, IMAGINARY, grid, sweep.FULL)
            assert got == self.brute(triples, grid, sweep.FULL)

    def test_first_row_leads(self):
        triples = [(3, 1, 5), (4, 1, 2), (7, 1, 5), (8, 1, 3)]
        for metric in sweep.QUAD_METRICS:
            assert sweep.threshold_search(triples, IMAGINARY, Fraction(1, 10), metric) is None

    def test_float64_equal_logs(self):
        """log D of 10**17 and 10**17 + 1 are equal in float64, so the float
        guess divides 0 by 0 (equal h) or a positive gain by 0 (larger h)."""
        big = 10**17
        assert float(big) == float(big + 1)
        grid = Fraction(1, 10)
        assert sweep.threshold_search([(big, 1, 3), (big + 1, 1, 3)], IMAGINARY, grid) is None
        triples = [(big, 1, 3), (big + 1, 1, 4)]
        assert sweep.threshold_search(triples, IMAGINARY, grid) == Fraction(19, 10)
        assert self.brute(triples, grid, sweep.NONGENUS) == Fraction(19, 10)

    def test_probe_count(self, monkeypatch):
        """h / D is constant, so the threshold is e = 2 and the answer the last
        grid point below it.  Bisection over the indices -1 .. ceil(2 / grid)
        takes at most ceil(log2(ceil(2 / grid) + 1)) probes."""
        probes = []
        records = sweep.QuadStream.records

        def counting_records(stream, eps):
            probes.append(eps)
            return records(stream, eps)

        monkeypatch.setattr(sweep.QuadStream, "records", counting_records)
        big = 10**17
        triples = [(big, 1, big), (big + 1, 1, big + 1)]
        for grid, answer, most in (("1/1000", "1999/1000", 11), ("1/10", "19/10", 5)):
            probes.clear()
            assert sweep.threshold_search(triples, IMAGINARY, Fraction(grid)) == Fraction(answer)
            assert len(probes) <= most, grid
        probes.clear()
        assert sweep.threshold_search(triples, IMAGINARY, Fraction(3)) == 0
        assert probes == [EPS_ZERO]

    def test_single_discriminant_sentinel(self):
        triples = sweep.quad_triples(IMAGINARY, 3, 3)
        assert sweep.threshold_search(triples, IMAGINARY, Fraction(1, 10)) is None
        assert sweep.threshold_search([], IMAGINARY, Fraction(1, 10)) is None

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 6)),
            min_size=1,
            max_size=30,
        ),
        grid=st.sampled_from(["1/4", "1/10", "1/7", "2/3", "1", "2", "3", "1/1000"]),
        metric=st.sampled_from(sweep.QUAD_METRICS),
    )
    def test_random_streams(self, rows, grid, metric):
        triples = []
        key = 2
        for gap, n, h in rows:
            key += gap
            triples.append((key, n, h << (n - 1)))
        grid = Fraction(grid)
        assert sweep.threshold_search(triples, IMAGINARY, grid, metric) == self.brute(
            triples, grid, metric
        )


# ---------------------------------------------------------------------------
# certified float64 prefilter: the prefiltered CLI path against a scan of
# every record
# ---------------------------------------------------------------------------

MODES = ("maxima", "minima")


def summary(events):
    return [
        (e.record.f, e.nd, counts, format_value(e.record.value.approx))
        for e, counts in zip(events, BucketSpec(3).counts(events))
    ]


def reference(triples, signature, eps, metric, mode, from_one, records=None):
    """quad_records over every triple, then scan_collect: no prefilter."""
    if records is None:
        records = sweep.quad_records(triples, signature, eps, metric)
    initial = c_eps(1, 1, eps) if from_one else None
    events, total = scan_collect(iter(records), mode, initial)
    return summary(events), total


def prefiltered_all(triples, signature, eps_list, metric, mode, from_one, shards=1):
    """One cli.scan_stream call over one QuadStream for every eps in eps_list."""
    config = cli.ScanConfig(
        family=cli.QUAD_IMAGINARY if signature == IMAGINARY else cli.QUAD_REAL,
        eps_list=eps_list,
        lo=triples[0][0] if triples else 1,
        hi=triples[-1][0] if triples else 1,
        metric_kind=metric,
        mode=mode,
        shards=shards,
        compat_minima_init_one=from_one,
    )
    stream = sweep.QuadStream(triples, signature, metric, mode)
    return [(summary(events), total) for _, events, total in cli.scan_stream(stream, config)]


def prefiltered(triples, signature, eps, metric, mode, from_one, shards=1):
    [got] = prefiltered_all(triples, signature, [eps], metric, mode, from_one, shards)
    return got


def references(triples, signature, metric):
    """want(eps, mode, from_one) -> reference(...); the four scans of each eps
    share one quad_records call and are kept, not the records."""
    memo = {}

    def want(eps, mode, from_one):
        if eps not in memo:
            records = sweep.quad_records(triples, signature, eps, metric)
            memo[eps] = {
                (m, f): reference(triples, signature, eps, metric, m, f, records)
                for m in MODES
                for f in (False, True)
            }
        return memo[eps][mode, from_one]

    return want


def assert_equivalent(triples, signature, eps_list, metric, shards=(1,), want=None):
    """The prefiltered scans of every eps in eps_list (an Epsilon or a list),
    run on one stream, against a reference scan per eps, in both modes, with
    and without the preset C = 1."""
    if isinstance(eps_list, Epsilon):
        eps_list = [eps_list]
    want = want or references(triples, signature, metric)
    for mode in MODES:
        for from_one in (False, True):
            expected = [want(eps, mode, from_one) for eps in eps_list]
            for n in shards:
                got = prefiltered_all(triples, signature, eps_list, metric, mode, from_one, n)
                assert got == expected, ([str(e) for e in eps_list], metric, mode, from_one, n)


@pytest.fixture(scope="module")
def imag_200k():
    return sweep.quad_triples(IMAGINARY, 1, 200_000)


@pytest.fixture(scope="module")
def imag_200k_want(imag_200k):
    """The nongenus references of imag_200k, shared by the tests that use it."""
    return references(imag_200k, IMAGINARY, sweep.NONGENUS)


@pytest.fixture(scope="module")
def real_30k():
    return sweep.quad_triples(REAL, 2, 30_000)


class TestPrefilterEquivalence:
    @pytest.mark.parametrize("eps", ["0", "1/50", "1/20", "1", "5/4"])
    def test_imaginary_stream(self, imag_200k, imag_200k_want, eps):
        eps = Epsilon.of(Fraction(eps))
        shards = (1, 3) if eps == Epsilon(1, 50) else (1,)
        assert_equivalent(imag_200k, IMAGINARY, eps, sweep.NONGENUS, shards, imag_200k_want)

    @pytest.mark.parametrize("metric", [sweep.RAW_H, sweep.RAW_SMALL_H], ids=["raw_H", "raw_h"])
    def test_real_raw_ties(self, real_30k, metric):
        assert_equivalent(real_30k, REAL, EPS_ZERO, metric, shards=(1, 2))

    def test_raw_compat_start_is_one_at_every_eps(self, real_30k):
        """The preset C = 1 is c_eps(1, 1, eps) for every stream, and a raw
        record is its h over disc 1 at the same eps: a raw-h minima scan
        from C = 1 has the same events at eps 0, 1/2 and 19/10 (none: no h is
        below 1), and so has a maxima scan, whose first event is h = 2."""
        eps_list = [Epsilon.of(Fraction(e)) for e in ("0", "1/2", "19/10")]
        for mode in MODES:
            runs = prefiltered_all(real_30k, REAL, eps_list, sweep.RAW_SMALL_H, mode, True)
            assert runs == [runs[0]] * 3 and runs[0][1] == len(real_30k)
            if mode == "minima":
                assert runs[0][0] == []
            else:
                assert runs[0][0][0][3] == format_value(mpmath.mpf(2))

    def test_imaginary_eps_list(self, imag_200k, imag_200k_want):
        eps_list = [Epsilon.of(Fraction(e)) for e in ("0", "1/50", "1/20", "1", "5/4", "19/10")]
        assert_equivalent(imag_200k, IMAGINARY, eps_list, sweep.NONGENUS, want=imag_200k_want)

    @pytest.mark.parametrize(
        "metric", [sweep.RAW_H, sweep.RAW_SMALL_H, sweep.FULL], ids=["raw_H", "raw_h", "full"]
    )
    def test_real_eps_list(self, real_30k, metric):
        eps_list = [Epsilon.of(Fraction(e)) for e in ("0", "1/20", "1/2", "1")]
        assert_equivalent(real_30k, REAL, eps_list, metric)

    def test_exact_ties_at_eps_one(self):
        triples = [(4, 1, 2), (9, 1, 3)]  # C = 2/2 = 3/3 = 1
        assert_equivalent(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL)
        got, total = prefiltered(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL, "maxima", False)
        assert [e[0] for e in got] == [4] and total == 2
        got, _ = prefiltered(triples, IMAGINARY, Epsilon(1, 1), sweep.FULL, "minima", True)
        assert got == []
        # eps = 1 is s for this pair: one stream serves the tie and its neighbours
        for eps_list in ([EPS_ZERO, Epsilon(1, 1)], [Epsilon(1, 1), Epsilon(3, 2)]):
            assert_equivalent(triples, IMAGINARY, eps_list, sweep.FULL)

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

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4)),
            min_size=1,
            max_size=40,
        ),
        eps_list=st.lists(
            st.sampled_from(["0", "1/50", "1/3", "1/2", "1", "3/2", "19/10"]),
            min_size=2,
            max_size=4,
        ),
        metric=st.sampled_from(sweep.QUAD_METRICS),
    )
    def test_random_streams_eps_lists(self, rows, eps_list, metric):
        triples = []
        key = 2
        for gap, n, h in rows:
            key += gap
            triples.append((key, n, h << (n - 1)))
        eps_list = [Epsilon.of(Fraction(e)) for e in eps_list]
        assert_equivalent(triples, IMAGINARY, eps_list, metric)


class TestSupportAudit:
    """The rows of a stream's support decide every eps, so each is derived
    again from the per-discriminant references."""

    def audit(self, stream, class_number):
        rows = stream.table[stream.support]
        assert len(rows) > 10
        for d, n, big_h in rows:
            assert (n, big_h) == (arith.omega(d), class_number(d)), d

    @pytest.mark.parametrize("mode", MODES)
    def test_imaginary(self, imag_triples, mode):
        stream = sweep.QuadStream(imag_triples, IMAGINARY, sweep.NONGENUS, mode)
        self.audit(stream, lambda d: classnum.class_number_imaginary(-d))

    @pytest.mark.parametrize("metric", [sweep.NONGENUS, sweep.RAW_H], ids=["nongenus", "raw_H"])
    def test_real(self, real_triples, metric):
        stream = sweep.QuadStream(real_triples, REAL, metric, "maxima")
        self.audit(stream, classnum.narrow_class_number_real)


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

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_bad_row_in_later_block(self, monkeypatch, block):
        """The row checks run block by block; the first bad row still raises
        its own error, wherever it falls in a block."""
        monkeypatch.setattr(sweep, "STREAM_BLOCK", block)
        triples = [(3, 1, 50), (4, 1, 1), (7, 1, 1), (8, 1, 1), (11, 2, 3), (15, 2, 5)]
        self.raises_like_reference(
            triples, ArithmeticError, "genus number 2^1 does not divide H at D = 11"
        )

    def test_block_size_does_not_change_support(self, monkeypatch):
        """The running maximum carries across blocks: in the short stream,
        row 0 leads the rows after it in later blocks (maxima), or row 1
        does (minima at e0 = 2)."""
        table = sweep.quad_triples(IMAGINARY, 1, 5000)
        short = [(3, 1, 9), (4, 1, 1), (7, 1, 2), (8, 1, 10), (11, 1, 3)]
        for mode, want_short in (("maxima", [0, 3]), ("minima", [0, 1])):
            streams = []
            for block in (1, 7, 2**16):
                monkeypatch.setattr(sweep, "STREAM_BLOCK", block)
                streams.append(sweep.QuadStream(table, IMAGINARY, sweep.NONGENUS, mode))
                got = sweep.QuadStream(short, IMAGINARY, sweep.FULL, mode)
                assert got.support.tolist() == want_short, (mode, block)
            want = streams[-1]
            assert want.table is table and 1 < len(want.support) < len(table) // 10
            for got in streams[:-1]:
                for name in ("support", "log_h", "log_d"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
