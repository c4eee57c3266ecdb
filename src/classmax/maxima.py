"""Streaming successive-maxima/minima engine with counters and shard merging."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .metric import MetricValue, compare

MAXIMA = "maxima"
MINIMA = "minima"


@dataclass(frozen=True)
class FieldRecord:
    """One field (or one conductor family) worth of scan data.

    H and h are exact integers when the family has a single member; families
    carry the exact products instead, and display means are derived later.
    """

    f: int
    d_signed: int | None
    signature: str
    n_ramified: int
    n_fields: int = 1
    H: int | None = None
    h: int | None = None
    H_prod: int | None = None
    h_prod_num: int | None = None
    h_prod_den: int | None = None
    poly: str | None = None


@dataclass(frozen=True)
class ScanRecord:
    key: int
    payload: FieldRecord
    value: MetricValue


@dataclass(frozen=True)
class BucketSpec:
    """N-distribution buckets: N = 1, ..., n_buckets-1 exactly, then N >= n_buckets."""

    n_buckets: int = 3

    def __post_init__(self) -> None:
        if self.n_buckets < 1:
            raise ValueError("need at least one bucket")

    def index(self, n_ramified: int) -> int:
        return min(max(n_ramified, 1), self.n_buckets) - 1

    def labels(self) -> list[str]:
        return [f"N{i}" for i in range(1, self.n_buckets + 1)]


@dataclass(frozen=True)
class MaximaEvent:
    """A new record value plus the counter snapshot at that point."""

    record: ScanRecord
    nd: int
    buckets: tuple[int, ...]


@dataclass(frozen=True)
class ShardResult:
    """Scan output of one key range, mergeable into a global event list."""

    lo: int
    hi: int
    events: tuple[MaximaEvent, ...]
    total_records: int


def _beats(candidate: MetricValue, incumbent: MetricValue, mode: str) -> bool:
    cmp = compare(candidate, incumbent)
    return cmp > 0 if mode == MAXIMA else cmp < 0


def scan(
    records: Iterable[ScanRecord],
    mode: str = MAXIMA,
    buckets: BucketSpec = BucketSpec(3),
    initial: MetricValue | None = None,
) -> Iterator[MaximaEvent]:
    """Emit the successive records of an ascending stream.

    The first record initializes the running value and is emitted, unless
    `initial` sets an explicit starting threshold (then only stream values
    beating it are records).  Ties never create records.
    """
    if mode not in (MAXIMA, MINIMA):
        raise ValueError(f"unknown mode {mode!r}")
    running = initial
    counts = [0] * buckets.n_buckets
    nd = 0
    last_key = None
    for record in records:
        if last_key is not None and record.key <= last_key:
            raise ValueError(f"stream keys not ascending at {record.key}")
        last_key = record.key
        nd += 1
        if running is None or _beats(record.value, running, mode):
            running = record.value
            counts[buckets.index(record.payload.n_ramified)] += 1
            yield MaximaEvent(record=record, nd=nd, buckets=tuple(counts))


def scan_collect(
    records: Iterable[ScanRecord],
    mode: str = MAXIMA,
    buckets: BucketSpec = BucketSpec(3),
    initial: MetricValue | None = None,
) -> tuple[list[MaximaEvent], int]:
    """Run scan to exhaustion; return (events, total records consumed)."""
    records = list(records)
    return list(scan(records, mode, buckets, initial)), len(records)


def merge_shards(
    shards: Sequence[ShardResult],
    mode: str = MAXIMA,
    buckets: BucketSpec = BucketSpec(3),
    initial: MetricValue | None = None,
) -> tuple[list[MaximaEvent], int]:
    """Merge per-shard scans into the event list a single sequential scan yields.

    Each shard must have been scanned with a fresh running record over its own
    key range; ranges must be disjoint and ascending.  A shard event survives
    iff it beats the global running record, and counters are rebuilt globally.
    """
    prev_hi = None
    for shard in shards:
        if shard.lo > shard.hi:
            raise ValueError(f"bad shard range [{shard.lo}, {shard.hi}]")
        if prev_hi is not None and shard.lo <= prev_hi:
            raise ValueError("shard ranges overlap or are out of order")
        prev_hi = shard.hi
    running = initial
    counts = [0] * buckets.n_buckets
    merged: list[MaximaEvent] = []
    nd_offset = 0
    for shard in shards:
        for event in shard.events:
            if running is None or _beats(event.record.value, running, mode):
                running = event.record.value
                counts[buckets.index(event.record.payload.n_ramified)] += 1
                merged.append(
                    MaximaEvent(
                        record=event.record,
                        nd=nd_offset + event.nd,
                        buckets=tuple(counts),
                    )
                )
        nd_offset += shard.total_records
    return merged, nd_offset
