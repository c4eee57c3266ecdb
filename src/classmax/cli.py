"""Command-line surface: record scans, genus families, threshold search,
cache compaction.  Text output is byte-stable across runs and shard counts."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import backend as backend_mod
from . import cubic as cubic_mod
from . import sweep
from .backend import Backend, BackendError
from .discriminants import IMAGINARY, REAL
from .maxima import BucketSpec, MaximaEvent, ShardResult, merge_shards, scan_collect
from .metric import EPS_ZERO, Epsilon, MetricValue, c_eps, format_value, root_mean

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_BUDGET = 4

QUAD_IMAGINARY = "quad-imaginary"
QUAD_REAL = "quad-real"
CUBIC = "cubic"

_METRIC_FLAGS = {
    "nongenus": "nongenus",
    "full": "full",
    "raw-H": sweep.RAW_H,
    "raw-h": sweep.RAW_SMALL_H,
    "per-field-max": cubic_mod.PER_FIELD_MAX,
}


@dataclass
class ScanConfig:
    family: str
    eps_list: list[Epsilon]
    lo: int
    hi: int
    metric_kind: str = "nongenus"
    mode: str = "maxima"
    scope: str = cubic_mod.EXACT_CONDUCTOR
    buckets: int = 3
    fmt: str = "text"
    shards: int = 1
    fixtures_path: str | None = None
    fixtures_only: bool = False
    backend_cmd: str | None = None
    cache_path: str | None = None
    compat_minima_init_one: bool = False

    def validate(self) -> None:
        if self.lo > self.hi or self.lo < 1:
            raise ValueError("need 1 <= min <= max")
        if not self.eps_list:
            raise ValueError("need at least one eps")
        if self.family not in (QUAD_IMAGINARY, QUAD_REAL, CUBIC):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == CUBIC:
            if self.metric_kind in (sweep.RAW_H, sweep.RAW_SMALL_H):
                raise ValueError("raw metrics apply to quadratic scans only")
        elif self.metric_kind == cubic_mod.PER_FIELD_MAX:
            raise ValueError("per-field-max applies to cubic scans only")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")


def parse_eps(text: str) -> Epsilon:
    """Exact parse of 'p/q' or a decimal literal (no float round-trip)."""
    return Epsilon.of(Fraction(text))


# ---------------------------------------------------------------------------
# scan execution
# ---------------------------------------------------------------------------


def _sharded_scan(
    keys,
    scan_part: Callable[[int, int], tuple[list[MaximaEvent], int]],
    lo: int,
    hi: int,
    mode: str,
    buckets: BucketSpec,
    shards: int,
    initial: MetricValue | None,
) -> tuple[list[MaximaEvent], int]:
    """Split the key range into contiguous shards, scan each, merge globally.

    `keys` are the ascending stream keys; `scan_part(start, stop)` scans
    stream positions [start, stop) from a fresh running record and returns
    its events, with nd counted from start, and its record count.  The
    starting value `initial` is applied by merge_shards alone.
    """
    width = (hi - lo + shards) // shards
    results = []
    for s_lo in range(lo, hi + 1, width):
        s_hi = min(hi, s_lo + width - 1)
        start, stop = np.searchsorted(keys, [s_lo, s_hi + 1]).tolist()
        events, total = scan_part(start, stop)
        results.append(
            ShardResult(lo=s_lo, hi=s_hi, events=tuple(events), total_records=total)
        )
    return merge_shards(results, mode, buckets, initial)


def scan_triples(
    triples: list[tuple[int, int, int]], config: ScanConfig
) -> list[tuple[Epsilon, list[MaximaEvent], int]]:
    """One scan per eps over a quadratic (D, N, H) list.

    Only the positions that sweep.QuadStream's certified float64 prefilter
    keeps become records; the exact scan decides among them, and each event's
    nd is mapped back to its position in the whole stream.
    """
    signature = IMAGINARY if config.family == QUAD_IMAGINARY else REAL
    buckets = BucketSpec(config.buckets)
    stream = sweep.QuadStream(triples, signature, config.metric_kind)
    out = []
    for eps in config.eps_list:

        def scan_part(start, stop):
            keep = stream.candidates(eps, config.mode, start, stop)
            part = [triples[i] for i in keep.tolist()]
            records = sweep.quad_records(part, signature, eps, config.metric_kind)
            events, _ = scan_collect(records, config.mode, buckets)
            remapped = [replace(ev, nd=int(keep[ev.nd - 1]) - start + 1) for ev in events]
            return remapped, stop - start

        # raw-metric records carry eps 0, and so must their starting value
        initial_eps = EPS_ZERO if stream.raw else eps
        initial = c_eps(1, 1, initial_eps) if config.compat_minima_init_one else None
        events, total = _sharded_scan(
            stream.keys, scan_part, config.lo, config.hi, config.mode, buckets,
            config.shards, initial,
        )
        out.append((eps, events, total))
    return out


def _cubic_source(config: ScanConfig):
    fixtures = cubic_mod.FixtureStore.bundled()
    if config.fixtures_path:
        fixtures.merge(cubic_mod.FixtureStore.from_path(config.fixtures_path))
    if config.fixtures_only:
        return fixtures
    if config.backend_cmd or config.cache_path:
        bridge = Backend(command=config.backend_cmd, cache_path=config.cache_path)
        return cubic_mod.ChainSource(fixtures, cubic_mod.BackendClassNumbers(bridge))
    return fixtures


def run_scan(config: ScanConfig) -> list[tuple[Epsilon, list[MaximaEvent], int]]:
    """One scan per eps over the configured family; returns events + totals."""
    config.validate()
    buckets = BucketSpec(config.buckets)
    out = []
    if config.family in (QUAD_IMAGINARY, QUAD_REAL):
        signature = IMAGINARY if config.family == QUAD_IMAGINARY else REAL
        triples = sweep.quad_triples(signature, config.lo, config.hi, workers=config.shards)
        return scan_triples(triples, config)
    source = _cubic_source(config)
    for eps in config.eps_list:
        records = list(
            cubic_mod.iter_family_records(
                config.lo,
                config.hi,
                config.scope,
                eps,
                config.metric_kind,
                source,
                skip_uncovered=config.fixtures_only,
            )
        )

        def scan_part(start, stop):
            return scan_collect(records[start:stop], config.mode, buckets)

        initial = c_eps(1, 1, eps) if config.compat_minima_init_one else None
        events, total = _sharded_scan(
            [r.key for r in records], scan_part, config.lo, config.hi, config.mode,
            buckets, config.shards, initial,
        )
        out.append((eps, events, total))
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _display_h(payload, which: str) -> str:
    exact = payload.H if which == "H" else payload.h
    if exact is not None:
        return str(exact)
    if which == "H":
        return format_value(root_mean(payload.H_prod, 1, payload.n_fields))
    return format_value(root_mean(payload.h_prod_num, payload.h_prod_den, payload.n_fields))


def _counter_text(total_or_nd: int, buckets: BucketSpec, counts) -> str:
    names = buckets.labels()
    parts = [f"ND={total_or_nd}"]
    parts.extend(f"{name}={count}" for name, count in zip(names, counts))
    return " ".join(parts)


def render_events(
    eps: Epsilon,
    events: list[MaximaEvent],
    total: int,
    buckets: BucketSpec,
    fmt: str,
    show_counters: bool,
    out,
) -> None:
    if fmt == "text":
        print(f"eps={eps}", file=out)
        for ev in events:
            p = ev.record.payload
            if p.signature == cubic_mod.CUBIC_SIGNATURE:
                bits = [f"f={p.f}"]
                if p.poly:
                    bits.append(f"P={p.poly}")
                bits.append(f"H={_display_h(p, 'H')}")
                bits.append(f"h={_display_h(p, 'h')}")
            else:
                bits = [f"D_K={p.d_signed}", f"H={p.H}", f"h={p.h}"]
            bits.append(f"N={p.n_ramified}")
            bits.append(f"C={format_value(ev.record.value.approx)}")
            print(" ".join(bits), file=out)
            if show_counters:
                print(_counter_text(ev.nd, buckets, ev.buckets), file=out)
        final = events[-1].buckets if events else (0,) * buckets.n_buckets
        print(_counter_text(total, buckets, final), file=out)
        return
    if fmt == "csv":
        for ev in events:
            p = ev.record.payload
            row = [
                str(eps),
                str(p.d_signed) if p.d_signed is not None else "",
                str(p.f),
                _display_h(p, "H"),
                _display_h(p, "h"),
                str(p.n_ramified),
                str(p.n_fields),
                format_value(ev.record.value.approx),
            ]
            print(",".join(row), file=out)
        return
    if fmt == "json-lines":
        for ev in events:
            p = ev.record.payload
            obj = {
                "eps": str(eps),
                "D_K": p.d_signed,
                "f": p.f,
                "H": _display_h(p, "H"),
                "h": _display_h(p, "h"),
                "N": p.n_ramified,
                "nK": p.n_fields,
                "C": format_value(ev.record.value.approx),
                "ND": ev.nd,
                "buckets": list(ev.buckets),
            }
            print(json.dumps(obj, sort_keys=True), file=out)
        summary = {
            "eps": str(eps),
            "ND": total,
            "events": len(events),
        }
        print(json.dumps(summary, sort_keys=True), file=out)
        return
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classmax",
        description="Successive maxima of class-number metrics for quadratic "
        "and cyclic cubic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="successive maxima/minima over a field family")
    p_scan.add_argument("--family", required=True, choices=[QUAD_IMAGINARY, QUAD_REAL, CUBIC])
    p_scan.add_argument(
        "--eps",
        action="append",
        default=None,
        metavar="P/Q",
        help="exact rational or decimal exponent; repeatable (default 1/20)",
    )
    p_scan.add_argument("--min", type=int, default=1, dest="lo")
    p_scan.add_argument("--max", type=int, required=True, dest="hi")
    p_scan.add_argument(
        "--metric",
        default="nongenus",
        choices=["nongenus", "full", "raw-H", "raw-h", "per-field-max"],
    )
    p_scan.add_argument("--mode", default="maxima", choices=["maxima", "minima"])
    p_scan.add_argument(
        "--scope",
        default="exact",
        choices=["exact", "divisors"],
        help="cubic families: exact conductor, or all conductors dividing f",
    )
    p_scan.add_argument("--buckets", type=int, default=3)
    p_scan.add_argument("--format", default="text", choices=["text", "csv", "json-lines"])
    p_scan.add_argument("--shards", type=int, default=1)
    p_scan.add_argument("--counters", action="store_true", help="print counter line per event")
    p_scan.add_argument("--fixtures", default=None, help="extra fixture table path")
    p_scan.add_argument(
        "--fixtures-only",
        action="store_true",
        help="cubic: restrict the stream to fixture-covered conductor families",
    )
    p_scan.add_argument("--backend-cmd", default=None)
    p_scan.add_argument("--cache", default=None)
    p_scan.add_argument(
        "--compat-minima-init-one",
        action="store_true",
        help="initialize the minima running record at 1.0",
    )

    p_fam = sub.add_parser("genus-family", help="class numbers along prime-product discriminants")
    group = p_fam.add_mutually_exclusive_group(required=True)
    group.add_argument("--primes", default=None, help="comma-separated primes, e.g. 2,3,5")
    group.add_argument("--count", type=int, default=None, help="use the first COUNT primes")
    p_fam.add_argument("--start", type=int, default=2, help="first prime when using --count")
    p_fam.add_argument("--eps", default="1/20")
    p_fam.add_argument("--budget-seconds", type=float, default=None)

    p_thr = sub.add_parser("threshold", help="largest grid eps with at least 2 maxima events")
    p_thr.add_argument("--family", required=True, choices=[QUAD_IMAGINARY, QUAD_REAL])
    p_thr.add_argument("--min", type=int, default=1, dest="lo")
    p_thr.add_argument("--max", type=int, required=True, dest="hi")
    p_thr.add_argument("--grid", required=True, help="grid step, exact rational")
    p_thr.add_argument("--metric", default="nongenus", choices=["nongenus", "full"])
    p_thr.add_argument("--shards", type=int, default=1)

    p_cmp = sub.add_parser("cache-compact", help="rewrite the backend cache file")
    p_cmp.add_argument("--cache", required=True)

    return parser


def _cmd_scan(args) -> int:
    eps_list = [parse_eps(e) for e in (args.eps or ["1/20"])]
    config = ScanConfig(
        family=args.family,
        eps_list=eps_list,
        lo=args.lo,
        hi=args.hi,
        metric_kind=_METRIC_FLAGS[args.metric],
        mode=args.mode,
        scope=cubic_mod.EXACT_CONDUCTOR if args.scope == "exact" else cubic_mod.DIVISORS,
        buckets=args.buckets,
        fmt=args.format,
        shards=args.shards,
        fixtures_path=args.fixtures,
        fixtures_only=args.fixtures_only,
        backend_cmd=args.backend_cmd,
        cache_path=args.cache,
        compat_minima_init_one=args.compat_minima_init_one,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    results = run_scan(config)
    buckets = BucketSpec(config.buckets)
    for eps, events, total in results:
        render_events(eps, events, total, buckets, config.fmt, args.counters, sys.stdout)
    return EXIT_OK


def _cmd_genus_family(args) -> int:
    if args.primes:
        primes = [int(p) for p in args.primes.split(",") if p.strip()]
    else:
        from . import arith

        primes = []
        q = args.start - 1
        while len(primes) < args.count:
            q += 1
            if arith.is_prime(q):
                primes.append(q)
    eps = parse_eps(args.eps)
    rows, exceeded = sweep.genus_family_rows(primes, eps, args.budget_seconds)
    for row in rows:
        print(
            f"D_K={row['D']} H={row['H']} h={row['h']} N={row['N']} "
            f"C={format_value(row['value'].approx)}"
        )
    if exceeded:
        print("budget exceeded; remaining rows skipped", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_threshold(args) -> int:
    if args.shards < 1:
        raise ValueError("shards must be >= 1")
    signature = IMAGINARY if args.family == QUAD_IMAGINARY else REAL
    grid = Fraction(args.grid)
    triples = sweep.quad_triples(signature, args.lo, args.hi, workers=args.shards)
    found = sweep.threshold_search(triples, signature, grid, _METRIC_FLAGS[args.metric])
    if found is None:
        print(f"threshold below grid minimum (step {grid})")
    else:
        print(f"threshold eps={found.numerator}/{found.denominator}")
    return EXIT_OK


def _cmd_cache_compact(args) -> int:
    cache = backend_mod.ResultCache(args.cache)
    kept = cache.compact()
    print(f"compacted {args.cache}: {kept} entries")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "genus-family":
            return _cmd_genus_family(args)
        if args.command == "threshold":
            return _cmd_threshold(args)
        if args.command == "cache-compact":
            return _cmd_cache_compact(args)
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
