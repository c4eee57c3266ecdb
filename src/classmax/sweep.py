"""Bulk range sweeps: sieved discriminant tables, batch class numbers, and
materialized (D, N, H) triple lists that the scans and the CLI consume.

The per-discriminant routines in `classnum` are the reference semantics; the
batch routines here must agree with them bit for bit (the test suite checks
this) and exist only to make full-range scans fast.  Sweeps over a range may
be sharded across worker processes; chunk boundaries never change results.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from fractions import Fraction
from itertools import islice

import numpy as np

from . import arith, classnum
from .discriminants import IMAGINARY, REAL
from .maxima import MAXIMA, MINIMA, BucketSpec, FieldRecord, ScanRecord, scan
from .metric import EPS_ZERO, Epsilon, c_eps

# ---------------------------------------------------------------------------
# sieved tables
# ---------------------------------------------------------------------------


def omega_table(limit: int) -> np.ndarray:
    """omega(n) for 0 <= n <= limit (omega(0) = omega(1) = 0)."""
    om = np.zeros(limit + 1, dtype=np.uint8)
    for p in arith.primes_upto(limit):
        om[p::p] += 1
    return om


def squarefree_mask(limit: int) -> np.ndarray:
    sq = np.ones(limit + 1, dtype=bool)
    sq[0] = False
    for p in arith.primes_upto(math.isqrt(limit)):
        sq[p * p :: p * p] = False
    return sq


def fundamental_mask(limit: int, signature: str) -> np.ndarray:
    """mask[D] for 2 <= D <= limit: is +-D a fundamental discriminant.

    Must match discriminants.is_fundamental value for value = -D (imaginary)
    or +D (real); the suite asserts bit-identical agreement.
    """
    sq = squarefree_mask(limit)
    n = np.arange(limit + 1, dtype=np.int64)
    mask = np.zeros(limit + 1, dtype=bool)
    odd_res = 3 if signature == IMAGINARY else 1
    mask |= ((n & 3) == odd_res) & sq
    div4 = (n & 3) == 0
    m = n >> 2
    m_res = np.zeros(limit + 1, dtype=bool)
    if signature == IMAGINARY:
        wanted = ((m & 3) == 1) | ((m & 3) == 2)
    else:
        wanted = ((m & 3) == 3) | ((m & 3) == 2)
    m_res[div4] = wanted[div4] & sq[m[div4]]
    mask |= m_res
    mask[:3] = False
    return mask


def imag_class_table(limit: int) -> np.ndarray:
    """H(-D) for all fundamental 3 <= D <= limit, by a form-count sieve.

    Counts reduced positive-definite forms (0 <= b <= a <= c with weight 2,
    minus the b = 0, b = a and a = c boundary overcounts) for every D at
    once; entries at non-fundamental indices are unnormalized raw counts and
    must not be read.
    """
    counts = np.zeros(limit + 1, dtype=np.int32)
    amax = math.isqrt(limit // 3)
    for a in range(1, amax + 1):
        step = 4 * a
        base = 4 * a * a
        for b in range(0, a + 1):
            start = base - b * b
            if start <= limit:
                counts[start::step] += 2
        counts[base::step] -= 1  # b = 0 forms counted once
        counts[base - a * a :: step] -= 1  # b = a forms counted once
        if a > 1:
            ds = base - np.arange(1, a, dtype=np.int64) ** 2  # a = c, 0 < b < a
            ds = ds[ds <= limit]
            np.add.at(counts, ds, -1)
    return counts


# ---------------------------------------------------------------------------
# divisor table (CSR) for the real-case window enumeration
# ---------------------------------------------------------------------------


def divisor_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, data): divisors of m are data[indptr[m]:indptr[m+1]], ascending."""
    dcount = np.zeros(limit + 1, dtype=np.int32)
    for a in range(1, limit + 1):
        dcount[a::a] += 1
    indptr = np.zeros(limit + 2, dtype=np.int64)
    np.cumsum(dcount, out=indptr[1:])
    data = np.empty(int(indptr[-1]), dtype=np.int32)
    offs = indptr[:-1].copy()
    for a in range(1, limit + 1):
        idx = offs[a::a]
        data[idx] = a
        offs[a::a] += 1
    return indptr, data


def reduced_form_pairs(
    d: int, indptr: np.ndarray, ddata: np.ndarray
) -> tuple[list[int], list[int]]:
    """(a, b) with a > 0 for the reduced indefinite forms of fundamental d > 0;
    each pair stands for the sign class pair (a, b, c) and (-a, b, -c)."""
    s = math.isqrt(d)
    b0 = 2 - (d & 1)
    bs = np.arange(b0, s + 1, 2, dtype=np.int64)
    ms = (d - bs * bs) >> 2
    starts = indptr[ms]
    cnts = (indptr[ms + 1] - starts).astype(np.int64)
    total = int(cnts.sum())
    if total == 0:
        return [], []
    pos = np.arange(total, dtype=np.int64)
    seg = np.repeat(np.cumsum(cnts) - cnts, cnts)
    gather = np.repeat(starts, cnts) + (pos - seg)
    gs = ddata[gather].astype(np.int64)
    brep = np.repeat(bs, cnts)
    t1 = 2 * gs + brep
    t2 = 2 * gs - brep
    keep = (t1 * t1 > d) & ((t2 < 0) | (t2 * t2 < d))
    return gs[keep].tolist(), brep[keep].tolist()


def _narrow_from_tables(d: int, indptr: np.ndarray, ddata: np.ndarray) -> int:
    """Narrow class number of fundamental d > 0 using the divisor table.

    Same reduced-form set and rho walk as classnum.narrow_class_number_real;
    primitivity is automatic for fundamental discriminants.
    """
    a_list, b_list = reduced_form_pairs(d, indptr, ddata)
    if not a_list:
        return 0
    s = math.isqrt(d)
    # integer-keyed form set over both sign classes
    stride = 2 * s + 2
    pending = set()
    for a, b in zip(a_list, b_list):
        pending.add((a + s) * stride + b)
        pending.add((s - a) * stride + b)
    max_steps = len(pending) + 1
    cycles = 0
    while pending:
        start_key = next(iter(pending))
        pending.discard(start_key)
        a = start_key // stride - s
        b = start_key % stride
        steps = 0
        key = None
        while key != start_key:
            c = (b * b - d) // (4 * a)
            ac = -c if c < 0 else c
            w = s - 2 * ac + 1
            b = w + (-b - w) % (2 * ac)
            a = c
            steps += 1
            if steps > max_steps:
                raise ArithmeticError(f"rho walk escaped the reduced set at d = {d}")
            key = (a + s) * stride + b
            if key != start_key:
                pending.discard(key)
        if steps & 1:
            raise ArithmeticError(f"odd rho cycle length at d = {d}")
        cycles += 1
    return cycles


# worker globals (populated before fork, shared copy-on-write)
_W: dict = {}


def _init_real_tables(limit: int) -> None:
    _W["indptr"], _W["ddata"] = divisor_table(limit // 4 + 1)
    _W["fund"] = fundamental_mask(limit, REAL)
    _W["omega"] = omega_table(limit)


def _narrow_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int]]:
    lo, hi = bounds
    fund = _W["fund"]
    om = _W["omega"]
    indptr = _W["indptr"]
    ddata = _W["ddata"]
    out = []
    for d in np.nonzero(fund[lo : hi + 1])[0]:
        dd = int(d) + lo
        out.append((dd, int(om[dd]), _narrow_from_tables(dd, indptr, ddata)))
    return out


def quad_triples(
    signature: str, lo: int, hi: int, workers: int = 1
) -> list[tuple[int, int, int]]:
    """Materialized (D, N, H) for every fundamental |D| in [lo, hi], ascending.

    H is the ordinary class number for imaginary fields and the narrow class
    number for real fields, exactly as the per-discriminant routines compute.
    The real sweep forks at most os.cpu_count() workers; the result does not
    depend on their number.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    if signature == IMAGINARY:
        mask = fundamental_mask(hi, IMAGINARY)
        om = omega_table(hi)
        table = imag_class_table(hi)
        ds = np.nonzero(mask[lo : hi + 1])[0] + lo
        return list(zip(ds.tolist(), om[ds].tolist(), table[ds].tolist()))
    if signature != REAL:
        raise ValueError(f"unknown signature {signature!r}")
    workers = min(workers, os.cpu_count() or 1)
    _init_real_tables(hi)
    try:
        if workers <= 1:
            return _narrow_chunk((max(lo, 2), hi))
        chunk_edges = np.linspace(max(lo, 2), hi + 1, workers * 8 + 1, dtype=np.int64)
        chunks = [
            (int(chunk_edges[i]), int(chunk_edges[i + 1]) - 1)
            for i in range(len(chunk_edges) - 1)
            if chunk_edges[i] <= chunk_edges[i + 1] - 1
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(_narrow_chunk, chunks)
        out: list[tuple[int, int, int]] = []
        for part in parts:
            out.extend(part)
        return out
    finally:
        _W.clear()


# ---------------------------------------------------------------------------
# record materialization for the maxima engine
# ---------------------------------------------------------------------------

NONGENUS = "nongenus"
FULL = "full"
RAW_H = "raw_H"
RAW_SMALL_H = "raw_h"

QUAD_METRICS = (NONGENUS, FULL, RAW_H, RAW_SMALL_H)


def quad_records(
    triples: list[tuple[int, int, int]],
    signature: str,
    eps: Epsilon,
    metric_kind: str,
) -> list[ScanRecord]:
    """Turn (D, N, H) triples into scan records under one metric."""
    if metric_kind not in QUAD_METRICS:
        raise ValueError(f"unknown metric {metric_kind!r}")
    sign = -1 if signature == IMAGINARY else 1
    out = []
    for d, n, big_h in triples:
        g = 1 << (n - 1)
        if big_h % g:
            raise ArithmeticError(f"genus number 2^{n - 1} does not divide H at D = {d}")
        small_h = big_h // g
        if metric_kind == NONGENUS:
            value = c_eps(small_h, d, eps)
        elif metric_kind == FULL:
            value = c_eps(big_h, d, eps)
        elif metric_kind == RAW_H:
            value = c_eps(big_h, d, EPS_ZERO)
        else:
            value = c_eps(small_h, d, EPS_ZERO)
        payload = FieldRecord(
            f=d,
            d_signed=sign * d,
            signature=signature,
            n_ramified=n,
            n_fields=1,
            H=big_h,
            h=small_h,
        )
        out.append(ScanRecord(key=d, payload=payload, value=value))
    return out


# Slack of the record prefilter, in log space.  Twice the float64 error bound
# of its values (2 * 2^-40, derived in QuadStream) lies far below it.
MARGIN = 2.0**-30


class QuadStream:
    """A checked (D, N, H) triple list under one metric, with the float64
    columns of the record prefilter.

    Construction checks every row the way quad_records, c_eps and scan check
    each record: at the first row either would reject, quad_records itself
    raises its error; then keys must be strictly ascending.  A bad row thus
    fails the run even where the prefilter would drop it.

    Prefilter.  For an exponent e (0 for the raw metrics) and the metric's
    h (H >> (N-1) for nongenus and raw-h, H otherwise), position i gets
    v_i = log h_i - (e/2) log D_i in float64, negated in minima mode.  Write
    x_i for the exact value of that expression: compare orders the metric
    values exactly as x orders them.  A position is a candidate iff
    v_i >= P_i - MARGIN, with P_i = max(v_j for j < i), and P_i = -inf at
    the first position.

    Error bound.  Let u = 2^-53.  D and h are int64, so 1 <= D, h < 2^63 and
    |log D|, |log h|, |(e/2) log D| < 44.  Converting D or h to float64
    moves its log by at most 1.01 u.  Each np.log call is allowed an absolute
    error of 2^-42: 32 ulp at its largest results (one ulp is 2^-47 below
    64), and far more below; the scalar and SIMD float64 logs numpy uses
    stay within 4 ulp.  The
    float e/2 is within u * e/2 < u of e/2, so the rounded product
    fl(e/2 * log D) is within 44 u + 44 u + 2^-42 + 2^-52 of the exact
    (e/2) log D, and the final subtraction of two terms below 44 adds at most
    88 u.  In all, |v_i - x_i| <= delta < 2 (2^-42 + 2^-52) + 176 u < 2^-40,
    and 2 delta < 2^-39 = MARGIN / 512.  Negation and max are exact.

    Exactness.  A fresh full scan makes the first position an event, and a
    later i an event iff x_i > R_i = max(x_j for j < i); ties never are.
    - A dropped position lies strictly below an earlier value: v_i < v_j -
      MARGIN for some j < i gives x_i <= v_i + delta < x_j + 2 delta -
      MARGIN < x_j.  So it is no event, and it can never move the running
      record.
    - Every event is kept: the first position has P_i = -inf, and a later
      x_i > R_i gives v_i >= x_i - delta > x_j - delta >= v_j - 2 delta for
      each j < i, so v_i > P_i - 2 delta > P_i - MARGIN.
    - So a scan over the candidates holds the same running record before
      every candidate i: the position that first reached R_i is an event and
      is kept.  It takes the same decisions, so it yields the same events
      and bucket counts as a scan over every position.  Ties and near-ties
      (within 2 delta) stay candidates, and compare settles them exactly.
    A preset starting value, such as C = 1, is applied afterwards by
    maxima.merge_shards, which takes fresh scans.
    """

    def __init__(
        self, triples: list[tuple[int, int, int]], signature: str, metric_kind: str
    ) -> None:
        if metric_kind not in QUAD_METRICS:
            raise ValueError(f"unknown metric {metric_kind!r}")
        d, n, big_h = np.array(triples, dtype=np.int64).reshape(-1, 3).T
        shifts = (n >= 1) & (n <= 63)
        genus_rest = big_h & (np.left_shift(1, np.where(shifts, n - 1, 0)) - 1)
        bad = ~shifts | (genus_rest != 0) | (big_h <= 0) | (d < 1)
        if bad.any():
            # raises the per-record error for the first bad row
            quad_records([triples[int(np.argmax(bad))]], signature, EPS_ZERO, metric_kind)
        unsorted = np.flatnonzero(d[1:] <= d[:-1])
        if unsorted.size:
            raise ValueError(f"stream keys not ascending at {d[unsorted[0] + 1]}")
        h = big_h >> (n - 1) if metric_kind in (NONGENUS, RAW_SMALL_H) else big_h
        self.keys = d
        self.raw = metric_kind in (RAW_H, RAW_SMALL_H)
        self.log_h = np.log(h.astype(np.float64))
        self.log_d = np.log(d.astype(np.float64))

    def candidates(
        self, eps: Epsilon, mode: str, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Ascending positions in [start, stop) that contain every successive
        record of a fresh scan over those positions."""
        half_eps = 0.0 if self.raw else eps.num / (2 * eps.den)
        v = self.log_h[start:stop] - half_eps * self.log_d[start:stop]
        if mode == MINIMA:
            v = -v
        prev = np.maximum.accumulate(np.concatenate(([-np.inf], v)))[:-1]
        return np.flatnonzero(v >= prev - MARGIN) + start


# ---------------------------------------------------------------------------
# prime-product genus families
# ---------------------------------------------------------------------------


def attached_imaginary_discriminant(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(-m)) for squarefree m > 1."""
    return -m if (-m) % 4 == 1 else -4 * m


def genus_family_rows(
    primes: list[int],
    eps: Epsilon,
    budget_seconds: float | None = None,
) -> tuple[list[dict], bool]:
    """(D, H, h, N, C) for the prefix products of the given primes.

    Rows are produced in prefix order; if a row's class-number computation
    would start after the time budget is exhausted, the remaining rows are
    skipped and the flag comes back True.
    """
    if len(set(primes)) != len(primes) or not primes:
        raise ValueError("need a nonempty list of distinct primes")
    for p in primes:
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
    rows: list[dict] = []
    started = time.monotonic()
    m = 1
    for i, p in enumerate(primes):
        m *= p
        if m.bit_length() > 63:
            raise ValueError("prefix product exceeds the 63-bit input bound")
        if budget_seconds is not None and time.monotonic() - started > budget_seconds:
            return rows, True
        d = attached_imaginary_discriminant(m)
        big_h = classnum.class_number_imaginary(d)
        n = arith.omega(-d)
        g = 1 << (n - 1)
        small_h = big_h // g
        value = c_eps(small_h, -d, eps)
        rows.append(
            {
                "primes": primes[: i + 1],
                "D": d,
                "H": big_h,
                "h": small_h,
                "N": n,
                "value": value,
            }
        )
    return rows, False


# ---------------------------------------------------------------------------
# epsilon threshold search
# ---------------------------------------------------------------------------


def threshold_search(
    triples: list[tuple[int, int, int]],
    signature: str,
    grid_step: Fraction,
    metric_kind: str = NONGENUS,
) -> Fraction | None:
    """Largest grid multiple of grid_step (< 2) with >= 2 maxima events.

    Taken by bisection over the grid, assuming the event count is monotone
    nonincreasing in eps (true in practice for these streams); the endpoint
    is verified before returning.  None means even eps = 0 has < 2 events.
    Each probe scans only the prefilter's candidates (see QuadStream).
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    stream = QuadStream(triples, signature, metric_kind)

    def plenty(k: int) -> bool:
        eps = Epsilon.of(grid_step * k)
        keep = stream.candidates(eps, MAXIMA)
        records = quad_records([triples[i] for i in keep.tolist()], signature, eps, metric_kind)
        return len(list(islice(scan(iter(records), MAXIMA, BucketSpec(1)), 2))) >= 2

    k_hi = int(Fraction(2) / grid_step)
    while grid_step * k_hi >= 2:
        k_hi -= 1
    if not plenty(0):
        return None
    lo, hi = 0, k_hi
    if plenty(k_hi):
        return grid_step * k_hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if plenty(mid):
            lo = mid
        else:
            hi = mid
    if not plenty(lo) or (lo + 1 <= k_hi and plenty(lo + 1)):
        raise ArithmeticError("event count not monotone on the grid")
    return grid_step * lo
