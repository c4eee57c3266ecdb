"""Run one classmax CLI call in this process, with or without layer spans.

    PYTHONPATH=src python3 perfbench/tracer.py --out FILE [--no-spans] -- scan ...

The CLI's stdout goes to this process's stdout unchanged.  With spans, the
module attributes that callers look up (`classmax.sweep.quad_triples`,
`classmax.cli.scan_collect`, ...) are replaced by wrappers, so each call into
a layer records a span: name, start, end, parent and a run id shared by the
whole command.  Hot per-record functions (`c_eps`, `compare`) only count.
Spans stay in memory and are written to FILE as JSON when the command ends;
`layer_metrics` turns them into the benchmark's per-layer metrics.  Nothing
under `src/` knows about any of this.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import time
import uuid
from collections import defaultdict

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class CountingWriter:
    """Text stream proxy that counts the bytes written through it."""

    def __init__(self, out):
        self.out = out
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return self.out.write(text)

    def flush(self) -> None:
        self.out.flush()


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, attrs=None):
        """Wrap fn so each call records a span; attrs(args, kwargs, result)
        adds fields to it after the span has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "name": name,
                "run": self.run_id,
                "id": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
            }
            self.spans.append(rec)
            self.stack.append(rec["id"])
            rec["rss0"] = _rss_mb()
            cpu0, kids0 = time.process_time(), _children_cpu()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                rec["cpu"] = time.process_time() - cpu0
                rec["children_cpu"] = _children_cpu() - kids0
                rec["rss1"] = _rss_mb()
                self.stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


# metric.compare decides by its 120-bit approximations unless their relative
# gap is at most 2^-80; the wrapper repeats that test to count the exact route.
APPROX_PREC = 120
FLOAT_GAP_BITS = 80


def _exact_route_counter(tracer: Tracer, compare):
    from mpmath.libmp import mpf_abs, mpf_cmp, mpf_shift, mpf_sub

    counts = tracer.counts

    @functools.wraps(compare)
    def wrapper(a, b):
        counts["compare"] += 1
        fa, fb = a.approx._mpf_, b.approx._mpf_
        sa, sb = mpf_abs(fa), mpf_abs(fb)
        scale = sa if mpf_cmp(sa, sb) >= 0 else sb
        diff = mpf_abs(mpf_sub(fa, fb, APPROX_PREC, "n"))
        if mpf_cmp(diff, mpf_shift(scale, -FLOAT_GAP_BITS)) <= 0:
            counts["compare_exact"] += 1
        return compare(a, b)

    return wrapper


def install(tracer: Tracer) -> dict:
    """Wrap the layer entry points; returns the tables quad_triples built."""
    from classmax import cli, maxima, sweep

    tables: dict[str, list] = {"imaginary": [], "real": []}

    def limit(a, k, r):
        return {"n": a[0]}

    for name in ("fundamental_mask", "omega_table", "divisor_table"):
        setattr(sweep, name, tracer.span("sweep.sieve", getattr(sweep, name), limit))

    def table(a, k, r):
        signature, hi = a[0], a[2]
        tables[signature].append((hi, r))
        return {"signature": signature, "workers": k.get("workers", 1)}

    sweep.quad_triples = tracer.span("sweep.table", sweep.quad_triples, table)
    sweep.quad_records = tracer.span(
        "sweep.records", sweep.quad_records, lambda a, k, r: {"n": len(r)}
    )
    sweep.c_eps = tracer.counter("c_eps", sweep.c_eps)
    cli.c_eps = tracer.counter("c_eps", cli.c_eps)
    maxima.compare = _exact_route_counter(tracer, maxima.compare)
    cli.scan_collect = tracer.span(
        "maxima.scan", cli.scan_collect, lambda a, k, r: {"records": r[1], "events": len(r[0])}
    )
    cli.merge_shards = tracer.span(
        "maxima.merge", cli.merge_shards, lambda a, k, r: {"shards": len(a[0])}
    )
    render = cli.render_events

    def render_counted(eps, events, total, buckets, fmt, show_counters, out):
        writer = CountingWriter(out)
        render(eps, events, total, buckets, fmt, show_counters, writer)
        return writer.bytes

    cli.render_events = tracer.span(
        "cli.render", render_counted, lambda a, k, r: {"bytes": r, "events": len(a[1])}
    )
    return tables


def count_forms(tables: dict) -> dict:
    """Per-signature table sizes, computed after the run, outside any span.

    Imaginary: forms = sum of H (reduced forms counted by the sieve).
    Real: forms = reduced indefinite forms the rho walks visit, two per
    `reduced_form_pairs` entry (both sign classes).
    """
    from classmax import sweep

    out = {}
    for signature, built in tables.items():
        disc = forms = 0
        for hi, triples in built:
            disc += len(triples)
            if signature == "imaginary":
                forms += sum(t[2] for t in triples)
                continue
            indptr, ddata = inspect.unwrap(sweep.divisor_table)(hi // 4 + 1)
            for d, _, _ in triples:
                forms += 2 * len(sweep.reduced_form_pairs(d, indptr, ddata)[0])
        out[signature] = {"disc": disc, "forms": forms}
    return out


def run(argv: list[str], spans: bool) -> dict:
    from classmax import cli

    tracer = Tracer()
    tables = install(tracer) if spans else None
    main = tracer.span("cli.main", cli.main) if spans else cli.main
    start = time.perf_counter()
    rc = main(argv)
    sys.stdout.flush()
    main_s = time.perf_counter() - start
    trace = {"argv": argv, "rc": rc, "main_s": main_s, "traced": spans}
    if spans:
        trace.update(
            run_id=tracer.run_id,
            spans=tracer.spans,
            counts=dict(tracer.counts),
            tables=count_forms(tables),
        )
    return trace


def layer_metrics(trace: dict, untraced_main_s: float) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    A span's self time is its duration minus its children's; a layer that did
    not run reports 0.
    """
    spans = trace["spans"]
    child_s = defaultdict(float)
    child_cpu = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
            child_cpu[s["parent"]] += s["cpu"] + s["children_cpu"]

    def self_s(s):
        return s["end"] - s["start"] - child_s[s["id"]]

    def named(name, **where):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in where.items())]

    def total(name, key=None, **where):
        return sum(s[key] if key else self_s(s) for s in named(name, **where))

    def ratio(a, b):
        return a / b if b else 0.0

    tables = trace["tables"]
    counts = trace["counts"]
    real = named("sweep.table", signature="real")
    real_s = total("sweep.table", signature="real")
    real_cpu = sum(s["cpu"] + s["children_cpu"] - child_cpu[s["id"]] for s in real)
    real_workers = max((s["workers"] for s in real), default=1)
    records = named("sweep.records")
    records_s = total("sweep.records")
    records_n = total("sweep.records", "n")
    compares = counts.get("compare", 0)
    exact = counts.get("compare_exact", 0)
    return {
        "sweep.sieve.s": total("sweep.sieve"),
        "sweep.sieve.n": total("sweep.sieve", "n"),
        "sweep.imag_table.s": total("sweep.table", signature="imaginary"),
        "sweep.imag_table.disc": tables["imaginary"]["disc"],
        "sweep.imag_table.forms": tables["imaginary"]["forms"],
        "sweep.real_table.s": real_s,
        "sweep.real_table.cpu_s": real_cpu,
        "sweep.real_table.par_eff": ratio(real_cpu, real_s * real_workers),
        "sweep.real_table.disc": tables["real"]["disc"],
        "sweep.real_table.forms": tables["real"]["forms"],
        "sweep.real_table.forms_per_s": ratio(tables["real"]["forms"], real_s),
        "sweep.records.s": records_s,
        "sweep.records.n": records_n,
        "sweep.records.us_per": ratio(records_s * 1e6, records_n),
        "sweep.records.rss_mb": max((s["rss1"] - s["rss0"] for s in records), default=0.0),
        "sweep.records.used_share": ratio(total("cli.render", "events"), records_n),
        "metric.c_eps.calls": counts.get("c_eps", 0),
        "metric.compare.calls": compares,
        "metric.compare.exact": exact,
        "metric.compare.exact_share": ratio(exact, compares),
        "maxima.scan.s": total("maxima.scan"),
        "maxima.scan.records": total("maxima.scan", "records"),
        "maxima.scan.events": total("maxima.scan", "events"),
        "maxima.merge.s": total("maxima.merge"),
        "maxima.merge.shards": total("maxima.merge", "shards"),
        "cli.render.s": total("cli.render"),
        "cli.render.bytes": total("cli.render", "bytes"),
        "cli.other.s": total("cli.main"),
        "trace.overhead_s": trace["main_s"] - untraced_main_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the trace JSON")
    parser.add_argument("--no-spans", action="store_true", help="time the call only")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    trace = run(argv, spans=not args.no_spans)
    with open(args.out, "w") as fh:
        json.dump(trace, fh)
    return trace["rc"]


if __name__ == "__main__":
    sys.exit(main())
