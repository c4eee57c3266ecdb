import random

import pytest

from classmax.classnum import class_number_imaginary
from classmax.discriminants import IMAGINARY, iter_fundamental
from classmax.maxima import (
    MAXIMA,
    MINIMA,
    BucketSpec,
    FieldRecord,
    MaximaEvent,
    ShardResult,
    merge_shards,
    scan,
    scan_collect,
)
from classmax.metric import EPS_ZERO, Epsilon, c_eps


def quad_stream(hi: int, eps: Epsilon, nongenus: bool = True) -> list[FieldRecord]:
    out = []
    for q in iter_fundamental(IMAGINARY, 1, hi):
        big_h = class_number_imaginary(q.value)
        small_h = big_h // (1 << (q.n_ramified - 1))
        out.append(
            FieldRecord(
                f=q.abs,
                d_signed=q.value,
                n_ramified=q.n_ramified,
                value=c_eps(small_h if nongenus else big_h, q.abs, eps),
                H=big_h,
                h=small_h,
            )
        )
    return out


def synthetic_stream(rng: random.Random, n: int, eps: Epsilon) -> list[FieldRecord]:
    records = []
    key = 0
    for _ in range(n):
        key += rng.randint(1, 5)
        h = rng.randint(1, 50)
        n_ram = rng.randint(1, 5)
        records.append(
            FieldRecord(
                f=key, d_signed=-key, n_ramified=n_ram, value=c_eps(h, key, eps), H=h, h=h
            )
        )
    return records


class TestScan:
    def test_eps_1_20_prefix(self):
        records = quad_stream(191, Epsilon(1, 20))
        events, total = scan_collect(iter(records))
        assert [e.record.f for e in events] == [3, 23, 47, 71, 167, 191]
        assert total == len(records)
        assert events[-1].nd == len(records)  # last record is itself a record value

    def test_constant_stream_single_event(self):
        eps = EPS_ZERO
        payloads = [
            FieldRecord(f=k, d_signed=-k, n_ramified=1, value=c_eps(5, 1, eps), H=5, h=5)
            for k in (1, 2, 3)
        ]
        events, total = scan_collect(iter(payloads))
        assert len(events) == 1 and events[0].record.f == 1 and total == 3

    def test_minima_prefix(self):
        records = quad_stream(24, Epsilon(1, 1))
        events, _ = scan_collect(iter(records), mode="minima")
        assert [e.record.f for e in events] == [3, 4, 7, 8, 11, 15, 19, 20, 24]

    def test_minima_compat_threshold(self):
        # initial running record at 1.0 suppresses a stream that starts above it
        eps = Epsilon(1, 1)
        records = [
            FieldRecord(f=k, d_signed=-k, n_ramified=1, value=c_eps(h, k, eps), H=h, h=h)
            for k, h in ((2, 9), (3, 8), (4, 1))
        ]
        events, _ = scan_collect(iter(records), mode="minima", initial=c_eps(1, 1, eps))
        assert [e.record.f for e in events] == [4]

    def test_counters_and_buckets(self):
        records = quad_stream(200, Epsilon(1, 50))
        events, total = scan_collect(iter(records))
        for ev, counts in zip(events, BucketSpec(3).counts(events)):
            assert sum(counts) == len([e for e in events if e.nd <= ev.nd])
        assert events[0].nd == 1

    def test_non_ascending_raises(self):
        records = quad_stream(30, Epsilon(1, 20))
        records = [records[1], records[0]]
        with pytest.raises(ValueError):
            list(scan(iter(records)))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            list(scan(iter([]), mode="sideways"))


class TestBucketSpec:
    def test_index(self):
        spec = BucketSpec(3)
        assert [spec.index(n) for n in (1, 2, 3, 4, 9)] == [0, 1, 2, 2, 2]
        assert spec.labels() == ["N1", "N2", "N3"]

    def test_six(self):
        spec = BucketSpec(6)
        assert spec.index(6) == spec.index(17) == 5

    def test_counts(self):
        """Each event's counts are those of the events up to it; an N past
        the last bucket counts in it."""
        eps = EPS_ZERO
        events = [
            MaximaEvent(
                FieldRecord(f=k, d_signed=-k, n_ramified=n, value=c_eps(k, 1, eps), H=k, h=k), nd
            )
            for k, n, nd in ((1, 1, 1), (2, 3, 4), (3, 2, 5), (4, 9, 7), (5, 1, 8))
        ]
        assert list(BucketSpec(3).counts(events)) == [
            (1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 2), (2, 1, 2)
        ]
        assert list(BucketSpec(1).counts(events)) == [(1,), (2,), (3,), (4,), (5,)]
        assert list(BucketSpec(3).counts([])) == []


def shard_stream(
    records: list[FieldRecord], edges: list[int], mode: str = MAXIMA
) -> list[ShardResult]:
    lo = records[0].f
    hi = records[-1].f
    cuts = sorted({e for e in edges if lo - 1 < e < hi})
    bounds = [lo - 1] + cuts + [hi]
    shards = []
    for i in range(len(bounds) - 1):
        s_lo, s_hi = bounds[i] + 1, bounds[i + 1]
        part = [r for r in records if s_lo <= r.f <= s_hi]
        events, total = scan_collect(iter(part), mode)
        shards.append(ShardResult(lo=s_lo, hi=s_hi, events=tuple(events), total_records=total))
    return shards


class TestMergeShards:
    def test_single_shard_identity(self):
        records = quad_stream(200, Epsilon(1, 20))
        events, total = scan_collect(iter(records))
        shards = [
            ShardResult(lo=1, hi=200, events=tuple(events), total_records=total)
        ]
        merged, merged_total = merge_shards(shards)
        assert merged == events and merged_total == total

    def test_reference_run_split_at_100(self):
        records = quad_stream(191, Epsilon(1, 20))
        merged, total = merge_shards(shard_stream(records, [100]))
        direct, direct_total = scan_collect(iter(records))
        assert merged == direct and total == direct_total

    def test_dominated_shard_contributes_nothing(self):
        eps = EPS_ZERO
        mk = lambda k, h: FieldRecord(
            f=k, d_signed=-k, n_ramified=1, value=c_eps(h, 1, eps), H=h, h=h
        )
        first = [mk(1, 100), mk(2, 150)]
        second = [mk(10, 5), mk(11, 7)]
        ev1, t1 = scan_collect(iter(first))
        ev2, t2 = scan_collect(iter(second))
        merged, _ = merge_shards(
            [
                ShardResult(1, 9, tuple(ev1), t1),
                ShardResult(10, 20, tuple(ev2), t2),
            ]
        )
        assert [e.record.f for e in merged] == [1, 2]

    def test_random_streams_equivalence(self):
        rng = random.Random(99)
        eps = Epsilon(1, 50)
        for trial in range(40):
            records = synthetic_stream(rng, rng.randint(1, 300), eps)
            n_cuts = rng.randint(1, 7)
            keys = [r.f for r in records]
            edges = sorted(rng.sample(range(keys[0], keys[-1] + 1), min(n_cuts, len(keys))))
            one = c_eps(1, 1, eps)
            for mode, initial in ((MAXIMA, None), (MAXIMA, one), (MINIMA, one)):
                direct, total = scan_collect(iter(records), mode, initial)
                shards = shard_stream(records, edges, mode)
                merged, merged_total = merge_shards(shards, mode, initial)
                assert merged_total == total
                assert [e.record.f for e in merged] == [e.record.f for e in direct]
                assert [e.nd for e in merged] == [e.nd for e in direct]
                spec = BucketSpec(3)
                assert list(spec.counts(merged)) == list(spec.counts(direct))

    def test_overlapping_ranges_rejected(self):
        records = quad_stream(50, Epsilon(1, 20))
        events, total = scan_collect(iter(records))
        shard = ShardResult(1, 50, tuple(events), total)
        with pytest.raises(ValueError):
            merge_shards([shard, shard])

    def test_minima_merge(self):
        records = quad_stream(500, Epsilon(1, 1))
        direct, total = scan_collect(iter(records), mode="minima")
        shards = []
        for s_lo, s_hi in ((1, 150), (151, 320), (321, 500)):
            part = [r for r in records if s_lo <= r.f <= s_hi]
            ev, t = scan_collect(iter(part), mode="minima")
            shards.append(ShardResult(s_lo, s_hi, tuple(ev), t))
        merged, merged_total = merge_shards(shards, mode="minima")
        assert merged == direct and merged_total == total
