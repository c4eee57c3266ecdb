"""Command-line surface: record scans, genus families, threshold search,
cache compaction.  Text output is byte-stable across runs and shard counts."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction

from . import backend as backend_mod
from . import cubic as cubic_mod
from . import sweep
from .backend import Backend, BackendError
from .discriminants import IMAGINARY, REAL
from .genus import genus_number_cyclic
from .maxima import MAXIMA, MINIMA, BucketSpec, FieldRecord, MaximaEvent, ShardResult
from .maxima import merge_shards, scan_collect
from .metric import EPS_ZERO, FULL, NONGENUS, PER_FIELD_MAX, RAW_H, RAW_SMALL_H, Epsilon
from .metric import c_eps, format_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_BUDGET = 4

QUAD_IMAGINARY = "quad-imaginary"
QUAD_REAL = "quad-real"
CUBIC = "cubic"

_SIGNATURES = {QUAD_IMAGINARY: IMAGINARY, QUAD_REAL: REAL}


@dataclass
class ScanConfig:
    family: str
    eps_list: list[Epsilon]
    lo: int
    hi: int
    metric_kind: str = NONGENUS
    mode: str = MAXIMA
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
        if self.mode not in (MAXIMA, MINIMA):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.family == CUBIC:
            if self.metric_kind in (RAW_H, RAW_SMALL_H):
                raise ValueError("raw metrics apply to quadratic scans only")
            scan, unread = "a cubic --fixtures-only scan", {}
            if self.fixtures_only:
                unread = {"--backend-cmd": self.backend_cmd, "--cache": self.cache_path}
        else:
            if self.metric_kind == PER_FIELD_MAX:
                raise ValueError("per-field-max applies to cubic scans only")
            scan = "a quadratic scan"
            unread = {
                "--scope": self.scope != cubic_mod.EXACT_CONDUCTOR,
                "--fixtures": self.fixtures_path,
                "--fixtures-only": self.fixtures_only,
                "--backend-cmd": self.backend_cmd,
                "--cache": self.cache_path,
            }
        for option, given in unread.items():
            if given:
                raise ValueError(f"{option} is not read by {scan}")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")


def parse_fraction(text: str) -> Fraction:
    """Exact parse of 'p/q' or a decimal literal (no float round-trip)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_eps(text: str) -> Epsilon:
    return Epsilon.of(parse_fraction(text))


# ---------------------------------------------------------------------------
# scan execution
# ---------------------------------------------------------------------------


def scan_stream(stream, config: ScanConfig) -> list[tuple[Epsilon, list[MaximaEvent], int]]:
    """One scan per eps over a stream built once for the whole scan: a
    sweep.QuadStream or a cubic.FamilyStream.

    Per eps, stream.records(eps) gives the positions that can hold a record
    and their records; the exact scan decides among them, and each event's
    nd is mapped back to its position among the len(stream) rows.  That
    fresh scan of [lo, hi] is merge_shards' one shard, so that the merge
    alone applies the --compat-minima-init-one value C = 1.
    """
    buckets = BucketSpec(config.buckets)
    out = []
    for eps in config.eps_list:
        keep, records = stream.records(eps)
        events, _ = scan_collect(records, config.mode, buckets)
        del records  # so that the next eps's records do not build beside these
        events = tuple(replace(ev, nd=keep[ev.nd - 1] + 1) for ev in events)
        initial = c_eps(1, 1, eps) if config.compat_minima_init_one else None
        shard = ShardResult(config.lo, config.hi, events, len(stream))
        out.append((eps, *merge_shards([shard], config.mode, buckets, initial)))
    return out


@contextmanager
def _cubic_source(config: ScanConfig):
    """(lookup, conductors) for a cubic scan's FamilyStream: the fixtures'
    class numbers, then, with a backend configured, the backend's for the
    fields the fixtures lack; the fixtures' conductors with --fixtures-only,
    else None.  A backend process it starts is closed on leaving the context,
    on errors too."""
    fixtures = cubic_mod.FixtureStore.bundled()
    if config.fixtures_path:
        path = config.fixtures_path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read fixtures {path}: {exc.strerror}") from exc
        fixtures.load_text(text)
    conductors = fixtures.conductors if config.fixtures_only else None
    if not (config.backend_cmd or config.cache_path):  # validate refuses them with --fixtures-only
        yield fixtures.get, conductors
        return
    with Backend(command=config.backend_cmd, cache_path=config.cache_path) as bridge:

        def lookup(field: cubic_mod.CubicField) -> int:
            big_h = fixtures.get(field)
            if big_h is None:
                big_h = bridge.classno_cubic(field.coeffs, genus_number_cyclic(3, field.n_ramified))
            return big_h

        yield lookup, conductors


def run_scan(config: ScanConfig) -> list[tuple[Epsilon, list[MaximaEvent], int]]:
    """One scan per eps over the configured family; returns events + totals."""
    config.validate()
    if config.family == CUBIC:
        # FamilyStream reads every class number while it is built
        with _cubic_source(config) as (lookup, conductors):
            stream = cubic_mod.FamilyStream(
                config.lo, config.hi, config.scope, config.metric_kind, lookup, conductors
            )
    else:
        signature = _SIGNATURES[config.family]
        triples = sweep.quad_triples(signature, config.lo, config.hi, workers=config.shards)
        stream = sweep.QuadStream(triples, signature, config.metric_kind, config.mode)
    return scan_stream(stream, config)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _display_h(record: FieldRecord, which: str) -> str:
    exact = record.H if which == "H" else record.h
    if exact is not None:
        return str(exact)
    prod = record.H_prod if which == "H" else record.h_prod
    return format_value(c_eps(prod, 1, EPS_ZERO, root=record.n_fields).approx)


def _text_line(record: FieldRecord) -> str:
    """A record's text row: D_K for a quadratic field, f (and P for a
    single-field family) for a cubic family."""
    if record.d_signed is not None:
        bits = [f"D_K={record.d_signed}"]
    else:
        bits = [f"f={record.f}"] + ([f"P={record.poly}"] if record.poly else [])
    bits.append(f"H={_display_h(record, 'H')}")
    bits.append(f"h={_display_h(record, 'h')}")
    bits.append(f"N={record.n_ramified}")
    bits.append(f"C={format_value(record.value.approx)}")
    return " ".join(bits)


def _columns(record: FieldRecord) -> dict:
    """A record's csv and json-lines columns, in csv order; D_K is None
    for a cubic family."""
    return {
        "D_K": record.d_signed,
        "f": record.f,
        "H": _display_h(record, "H"),
        "h": _display_h(record, "h"),
        "N": record.n_ramified,
        "nK": record.n_fields,
        "C": format_value(record.value.approx),
    }


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
            print(_text_line(ev.record), file=out)
            if show_counters:
                print(_counter_text(ev.nd, buckets, ev.buckets), file=out)
        final = events[-1].buckets if events else (0,) * buckets.n_buckets
        print(_counter_text(total, buckets, final), file=out)
        return
    if fmt == "csv":
        for ev in events:
            cols = _columns(ev.record).values()
            print(",".join([str(eps), *("" if c is None else str(c) for c in cols)]), file=out)
        return
    if fmt == "json-lines":
        for ev in events:
            obj = {"eps": str(eps), **_columns(ev.record), "ND": ev.nd, "buckets": list(ev.buckets)}
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
        default=NONGENUS,
        choices=[NONGENUS, FULL, RAW_H, RAW_SMALL_H, PER_FIELD_MAX],
    )
    p_scan.add_argument("--mode", default=MAXIMA, choices=[MAXIMA, MINIMA])
    p_scan.add_argument(
        "--scope",
        default=cubic_mod.EXACT_CONDUCTOR,
        choices=[cubic_mod.EXACT_CONDUCTOR, cubic_mod.DIVISORS],
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
    p_scan.add_argument(
        "--backend-cmd",
        default=None,
        help="cubic: external process asked for the class numbers the fixtures lack",
    )
    p_scan.add_argument("--cache", default=None, help="cubic: file caching the backend's replies")
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
    p_thr.add_argument("--metric", default=NONGENUS, choices=[NONGENUS, FULL])
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
        metric_kind=args.metric,
        mode=args.mode,
        scope=args.scope,
        buckets=args.buckets,
        fmt=args.format,
        shards=args.shards,
        fixtures_path=args.fixtures,
        fixtures_only=args.fixtures_only,
        backend_cmd=args.backend_cmd,
        cache_path=args.cache,
        compat_minima_init_one=args.compat_minima_init_one,
    )
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
    for record in rows:
        print(_text_line(record))
    if exceeded:
        print("budget exceeded; remaining rows skipped", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_threshold(args) -> int:
    if args.shards < 1:
        raise ValueError("shards must be >= 1")
    signature = _SIGNATURES[args.family]
    grid = parse_fraction(args.grid)
    if grid <= 0:
        raise ValueError("grid step must be positive")
    triples = sweep.quad_triples(signature, args.lo, args.hi, workers=args.shards)
    found = sweep.threshold_search(triples, signature, grid, args.metric)
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
    except (ValueError, cubic_mod.ClassNumberUnavailable) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("config error: the range needs more memory than is available", file=sys.stderr)
        return EXIT_CONFIG
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
