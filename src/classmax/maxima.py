"""Streaming successive-maxima/minima engine, shard merging, and N counters."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .metric import MetricValue, compare

MAXIMA = "maxima"
MINIMA = "minima"


@dataclass(frozen=True)
class FieldRecord:
    """One field (or one conductor family) and its metric value: a scan
    record, keyed by f, and one printed row.

    A quadratic field has f = |D| and its signed D in d_signed; a cubic
    family has d_signed None.  H and h are the integers the value is built
    from: one field's class number and non-genus part, or, when value.root
    is the member count of a family mean, the products over its members.
    """

    f: int
    d_signed: int | None
    n_ramified: int
    value: MetricValue
    H: int
    h: int
    n_fields: int = 1
    poly: str | None = None


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

    def counts(self, events: Iterable[MaximaEvent]) -> Iterator[tuple[int, ...]]:
        """Each event's counters, in order: how many of the events up to it
        fall in each bucket."""
        counts = [0] * self.n_buckets
        for event in events:
            counts[self.index(event.record.n_ramified)] += 1
            yield tuple(counts)


@dataclass(frozen=True)
class MaximaEvent:
    """A new record value and its position nd (1-based) in the stream."""

    record: FieldRecord
    nd: int


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
    records: Iterable[FieldRecord],
    mode: str = MAXIMA,
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
    nd = 0
    last_f = None
    for record in records:
        if last_f is not None and record.f <= last_f:
            raise ValueError(f"stream keys not ascending at {record.f}")
        last_f = record.f
        nd += 1
        if running is None or _beats(record.value, running, mode):
            running = record.value
            yield MaximaEvent(record=record, nd=nd)


def scan_collect(
    records: Iterable[FieldRecord],
    mode: str = MAXIMA,
    initial: MetricValue | None = None,
) -> tuple[list[MaximaEvent], int]:
    """Run scan to exhaustion; return (events, total records consumed)."""
    records = list(records)
    return list(scan(records, mode, initial)), len(records)


def merge_shards(
    shards: Sequence[ShardResult],
    mode: str = MAXIMA,
    initial: MetricValue | None = None,
) -> tuple[list[MaximaEvent], int]:
    """Merge per-shard scans into the event list a single sequential scan yields.

    Each shard must have been scanned with a fresh running record over its own
    key range; ranges must be disjoint and ascending.  scan runs over the
    shard events in order, so one survives iff it beats the global running
    record; each nd is then offset by the records of the shards before it.
    """
    records: list[FieldRecord] = []
    nds: list[int] = []
    nd_offset = 0
    prev_hi = None
    for shard in shards:
        if shard.lo > shard.hi:
            raise ValueError(f"bad shard range [{shard.lo}, {shard.hi}]")
        if prev_hi is not None and shard.lo <= prev_hi:
            raise ValueError("shard ranges overlap or are out of order")
        prev_hi = shard.hi
        records.extend(event.record for event in shard.events)
        nds.extend(nd_offset + event.nd for event in shard.events)
        nd_offset += shard.total_records
    merged = [replace(ev, nd=nds[ev.nd - 1]) for ev in scan(records, mode, initial)]
    return merged, nd_offset
