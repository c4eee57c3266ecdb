"""Bulk range sweeps: sieved discriminant tables, batch class numbers, and
columnar (D, N, H) tables that the scans and the CLI consume.

The per-discriminant routines in `classnum` are the reference semantics; the
batch routines here must agree with them bit for bit (the test suite checks
this) and exist only to make full-range scans fast.  Sweeps over a range may
be sharded across worker processes; chunk boundaries never change results.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import time
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import islice

import numpy as np

from . import arith, classnum
from .discriminants import IMAGINARY, REAL
from .maxima import MAXIMA, MINIMA, FieldRecord, scan
from .metric import EPS_ZERO, FULL, NONGENUS, RAW_H, RAW_SMALL_H, Epsilon, c_eps

# ---------------------------------------------------------------------------
# sieved tables
# ---------------------------------------------------------------------------


def omega_table(limit: int) -> np.ndarray:
    """omega(n) for 0 <= n <= limit (omega(0) = omega(1) = 0).

    Divides every prime p <= sqrt(limit), with its powers, out of an int32
    remainder; what is left above 1 is one prime larger than sqrt(limit).
    That remainder wraps at 2^31, so quad_triples refuses hi >= 2^31.
    """
    om = np.zeros(limit + 1, dtype=np.uint8)
    rest = np.arange(limit + 1, dtype=np.int32)
    for p in arith.primes_upto(math.isqrt(limit)):
        om[p::p] += 1
        pk = p
        while pk <= limit:
            rest[pk::pk] //= p
            pk *= p
    om += rest > 1
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
    or +D (real); the suite asserts bit-identical agreement.  Built from
    strided slices of the squarefree mask: D = n with n = 3 (imaginary) or
    1 (real) mod 4, and D = 4m with m = 1, 2 (imaginary) or 2, 3 (real)
    mod 4, that is D = 4r mod 16 for those residues r of m.
    """
    sq = squarefree_mask(limit)
    mask = np.zeros(limit + 1, dtype=bool)
    odd_res, m_res = (3, (1, 2)) if signature == IMAGINARY else (1, (2, 3))
    mask[odd_res::4] = sq[odd_res::4]
    for r in m_res:
        dst = mask[4 * r :: 16]
        dst[:] = sq[r::4][: len(dst)]
    mask[:3] = False
    return mask


# Shortest line of imag_class_table's broadcast add: a pattern of period a
# below this is tiled up to the first multiple of a at least this long.
PATTERN_ROW = 1024

# Largest limit at which imag_class_table counts in uint16 (see its proof);
# above it, int32.
UINT16_LIMIT = 9 * 10**7

# Most cells in one grid of imag_class_table's running sum over a group of
# consecutive a (2 MB in uint16); a group holds at least one a.
GROUP_CELLS = 2**20


def _grid_shape(group: list[int]) -> tuple[int, int, int, int]:
    """Shape (R + 1, G, 2, max a) of imag_class_table's grid for a group of
    G ascending a, with R = ceil(max a / 4)."""
    return (group[-1] + 3) // 4 + 1, len(group), 2, group[-1]


def imag_class_table(limit: int, first: int = 1, stride: int = 1) -> np.ndarray:
    """H(-D) for all fundamental 3 <= D <= limit, by a form-count sieve, as a
    (2, limit // 4 + 1) array with H(-D) at [D & 1, D >> 2]: uint16 if
    limit <= UINT16_LIMIT, else int32.

    Row 0 is the class D = 4m at index m, row 1 the class D = 4i + 3 at
    index i; they hold every imaginary fundamental D.  Entries at other
    indices are raw form counts and must not be read.  Only the forms with
    a = first, first + stride, ... are counted, so the tables of the
    residues of a mod stride sum to the full table.

    Counts the reduced positive-definite forms (a, b, c), 0 <= b <= a <= c,
    with weight 2, or 1 if b = 0, b = a or a = c.  For fixed a, the forms
    with c = a + k have D = 4a^2 - b^2 + 4ak, at index a^2 - q_b + ak of
    class b mod 2, with q_b = ceil(b^2 / 4).
    - From index a^2 on (D >= 4a^2) every b is present, so each class holds
      one weight pattern of period a there.  It is added as one broadcast
      over a view of lines of L entries, L the first multiple of a from
      PATTERN_ROW on, and one slice for the tail.
    - Below a^2, laid out as rows of a ending at a^2, b's forms fill its
      column from the row of a^2 - q_b down.  So the boundary region is the
      running sum over rows of one mark per b, at most ceil(a / 4) rows
      (q_a <= a ceil(a / 4)); its next row, where b = 0 starts too, is the
      pattern.  The first form of each 0 < b < a, (a, b, a), then loses 1.
      The region is added to a view of each class line as rows of a.
    - Consecutive a share one grid of shape (R + 1, G, 2, max a), with
      R = ceil(max a / 4), of at most GROUP_CELLS cells (or one a).  Each
      a's rows end at the shared last row R; the rows above its first mark
      stay zero under the running sum, which so costs R row adds per group,
      not ceil(a / 4) per a.  Every grid is a prefix of one buffer, so no
      temporary of about a^2 / 2 entries is allocated per a.

    Why uint16 is exact up to UINT16_LIMIT.  For fundamental D > 4,
    h(-D) = (sqrt D / pi) L(1, chi), chi = (-D / .) a character mod D.  Its
    partial sums are below D in absolute value, as a full period sums to 0,
    so by Abel summation |sum_{n > D} chi(n) / n| < 2, and |L(1, chi)| <
    1 + log D + 2.  Hence h(-D) < (sqrt D / pi)(log D + 3), which increases
    with D and is below 46,654 at 5e7 and 64,367 at 9e7, so below 2^16; and
    h = 1 at D = 3 and 4.  numpy's in-place uint16 adds and subtracts wrap
    mod 2^16, so every entry at a fundamental D equals its true count, and
    so does every stride part, which counts a subset of those forms.
    Entries at other indices may wrap.
    """
    width = limit // 4 + 1
    dtype = np.uint16 if limit <= UINT16_LIMIT else np.int32
    counts = np.zeros((2, width), dtype=dtype)
    groups, avals = [], list(range(first, math.isqrt(limit // 3) + 1, stride))
    while avals:
        n = 1
        while n < len(avals) and math.prod(_grid_shape(avals[: n + 1])) <= GROUP_CELLS:
            n += 1
        groups.append(avals[:n])
        avals = avals[n:]
    buf = np.empty(max((math.prod(_grid_shape(g)) for g in groups), default=0), dtype=dtype)
    for group in groups:
        shape = _grid_shape(group)
        last = shape[0] - 1
        # grid[r, g, c, j]: class c at index a^2 - (last - r) a + j, for a = group[g]
        grid = buf[: math.prod(shape)].reshape(shape)
        grid.fill(0)
        # one mark per form (a, b, a), 0 <= b <= a, of each a = group[ga]
        size = np.array(group) + 1
        a = np.repeat(size - 1, size)
        ga = np.repeat(np.arange(len(group)), size)
        b = np.arange(len(a)) - np.repeat(np.cumsum(size) - size, size)
        cls = b & 1
        row, col = np.divmod(last * a - ((b * b + 3) >> 2), a)
        # q_b grows with b: no two b of one a and class share a cell
        grid[row, ga, cls, col] = 2 - ((b == 0) | (b == a))
        inner = np.flatnonzero((b > 0) & (b < a))
        for r in range(1, last + 1):  # np.cumsum along rows costs several times more
            grid[r] += grid[r - 1]
        grid[row[inner], ga[inner], cls[inner], col[inner]] -= 1  # a = c
        for g, a in enumerate(group):
            rows = (a + 3) // 4
            top = a * a
            tile = np.tile(grid[last, g, :, :a], -(-PATTERN_ROW // a))
            period = tile.shape[1]
            for c, (line, pattern) in enumerate(zip(counts, tile)):
                head = line[top - rows * a : top]  # a's boundary rows, cut at the line's end
                full = len(head) // a
                view = head[: full * a].reshape(full, a)
                view += grid[last - rows : last - rows + full, g, c, :a]
                head[full * a :] += grid[last - rows + full, g, c, : len(head) - full * a]
                tail = line[top:]
                body = len(tail) - len(tail) % period
                view = tail[:body].reshape(-1, period)
                view += pattern
                tail[body:] += pattern[: len(tail) - body]
    return counts


# ---------------------------------------------------------------------------
# divisor table (CSR) for the real-case window enumeration
# ---------------------------------------------------------------------------


def divisor_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, data): divisors of m are data[indptr[m]:indptr[m+1]], ascending.

    One pass per a <= sqrt(limit): a divides a^2 once, and each m = a k with
    k > a twice, as a and as k.  The small divisors a fill m's row ascending
    from the front, the cofactors k descending from the back.
    """
    dcount = np.zeros(limit + 1, dtype=np.int32)
    root = math.isqrt(limit)
    for a in range(1, root + 1):
        dcount[a * a] += 1
        dcount[a * (a + 1) :: a] += 2
    indptr = np.zeros(limit + 2, dtype=np.int64)
    np.cumsum(dcount, out=indptr[1:])
    del dcount
    data = np.empty(int(indptr[-1]), dtype=np.int32)
    offs = indptr[:-1].copy()
    for a in range(1, root + 1):
        pos = offs[a * a :: a]
        data[pos] = a
        pos += 1
    np.subtract(indptr[1:], 1, out=offs)
    for a in range(1, root + 1):
        pos = offs[a * (a + 1) :: a]
        data[pos] = np.arange(a + 1, limit // a + 1, dtype=np.int32)
        pos -= 1
    return indptr, data


# (D, b) rows per segment of the real sweep's row step, which cuts each block
# once more; a segment's arrays then take a few MB whatever the range.
SEGMENT = 2**15

# Most D per block of the real sweep, the workers' unit of work: the
# principal rho walk steps every D of a block in lockstep (_principal_walk).
BLOCK = 2**16


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(n)) of an int64 array with entries below 2^52."""
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _row_counts(ds: np.ndarray) -> np.ndarray:
    """The number of rows (D, b) of each D in ds: b = b0, b0 + 2, ...,
    isqrt(D), with b0 = 2 - D mod 2 the least b = D mod 2 in (0, sqrt D)."""
    return (_isqrt(ds) - 2 + (ds & 1)) // 2 + 1


def _last_at_most(
    values: np.ndarray, start: np.ndarray, end: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Per i, the last position p in [start[i], end[i]) with values[p] <=
    key[i], or start[i] - 1 if there is none; each range must be ascending.

    A vectorized bisection, one step per power of two up to the longest
    range.  A probe at or past end[i] never moves i, so no value outside
    i's own range is used.
    """
    last = start - 1
    step = 1 << (int((end - start).max(initial=1)).bit_length() - 1)
    while step:
        probe = last + step
        up = probe < end
        up &= values.take(probe, mode="clip") <= key
        last += up * step
        step >>= 1
    return last


def _form_rows(
    ds: np.ndarray, indptr: np.ndarray, ddata: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(j, row, b, m, first, stop, bad) for the rows (D, b) of ds that hold
    a reduced indefinite form, in (j, b) order: D = ds[j], row is the index
    of (D, b) among all rows of ds, m = (D - b^2) / 4, and the forms
    (a, b, -m/a) with a > 0 have a = ddata[first:stop], the cofactor of the
    entry at p at first + stop - 1 - p.  bad is a bool per D of ds: one of
    its rows fails a check below.

    A form is reduced iff |sqrt(D) - 2a| < b < sqrt(D).  Row (D, b), for
    b = D mod 2 in (0, sqrt D), holds the forms with that b: their a are the
    divisors of m, read from m's ascending row [starts, ends) of the CSR
    divisor table.  Only a middle slice of that row is reduced:
    - a divisor s <= sqrt(m) has 2s <= sqrt(D - b^2) < sqrt(D), so
      |2s - b| < sqrt(D), and it is reduced iff 2s + b > sqrt(D), that is
      iff s (s + b) > m, or, as sqrt(D) is irrational, iff s > t with
      t = (isqrt(D) - b) // 2;
    - its cofactor m / s >= sqrt(m) has (2 m/s + b)^2 >= D + 4b m/s > D,
      and (2 m/s - b)^2 < D iff (m/s) (m/s - b) < m iff m/s < s + b iff
      s (s + b) > m: the same test;
    - so if q small divisors are at most t, the first q and the last q
      divisors of the row fail and the slice between them is reduced.
    The small divisors are the first ceil(d(m) / 2) of the row, and the
    last of them, at mid - 1, is the largest: a row holds no reduced form
    unless it exceeds t, and the 68% of rows that hold none (to 1.5e5) are
    dropped before q is found by a bisection (_last_at_most).  The entry at
    offset i from the front of a row times the entry at offset i from its
    back is m.

    Checks, of the entries that decide the slice:
    - every row: its middle pair, the entry at mid - 1 and its mirror, is
      >= 1 and multiplies to m, ascends strictly unless the row has odd
      length (then it is one entry), and the entry below it, if any, is
      smaller;
    - every kept row: the entry at first is > t and pairs to m, and the
      entry before it, if any, is in [1, t] and pairs to m.
    A table with every entry twice fails the first check in every row (an
    entry beside its copy), and a zeroed entry that a row reads moves or
    breaks one of these pairs.
    """
    rows = _row_counts(ds)
    b0 = 2 - (ds & 1)
    pj = np.repeat(np.arange(len(ds)), rows)
    b = 2 * np.arange(len(pj)) + np.repeat(b0 - 2 * (np.cumsum(rows) - rows), rows)
    m = (ds.take(pj) - b * b) >> 2
    t = (_isqrt(ds).take(pj) - b) >> 1
    starts = indptr.take(m)
    ends = indptr[1:].take(m)
    span = starts + ends
    mid = (span + 1) >> 1
    top = ddata.take(mid - 1)
    # the middle pair: top at mid - 1, and its mirror at span - mid, which is
    # mid for a row of even length and mid - 1 itself for one of odd length
    pair = ddata.take(span - mid)
    bad = top < 1
    bad |= np.multiply(top, pair, dtype=np.int64) != m
    bad |= top + (span & 1 ^ 1) > pair
    bad |= (mid - 2 >= starts) & (ddata.take(mid - 2) >= top)
    failed = np.zeros(len(ds), dtype=bool)
    failed[pj[bad]] = True
    row = np.flatnonzero(top > t)
    pj, b, m, t = pj.take(row), b.take(row), m.take(row), t.take(row)
    starts, span, mid = starts.take(row), span.take(row), mid.take(row)
    # the slice [first, stop) after the small divisors <= t and before their cofactors
    first = _last_at_most(ddata, starts, mid, t) + 1
    stop = span - first
    at = ddata.take(first)
    bad = (at <= t) | (np.multiply(at, ddata.take(stop - 1), dtype=np.int64) != m)
    before = ddata.take(first - 1)
    low = (before < 1) | (before > t)
    low |= np.multiply(before, ddata.take(stop, mode="clip"), dtype=np.int64) != m
    bad |= (first > starts) & low
    failed[pj[bad]] = True
    return pj, row, b, m, first, stop, failed


def _reduced_forms(
    ds: np.ndarray, indptr: np.ndarray, ddata: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """int64 arrays (j, row, a, b, k): the reduced indefinite forms
    (a, b, -k) with a > 0 of each discriminant ds[j], in (j, b, a) order;
    row is the index of the form's row (D, b) among all rows of ds.  The
    forms are the middle slices of _form_rows, and k is read, not divided.

    The row checks of _form_rows, then every gathered form, are checked:
    a >= 1, a k = m and |a - k| < b.  For a > 0 and D = b^2 + 4ak not a
    square that is exactly reducedness, so a bad divisor table raises
    ArithmeticError naming a D that reads a bad entry, instead of yielding
    a form that is not reduced.
    """
    j, row, b, m, first, stop, failed = _form_rows(ds, indptr, ddata)
    _fail_at(failed, "bad divisor row", ds, np.arange(len(ds)))
    cnts = stop - first
    r = np.repeat(np.arange(len(j)), cnts)
    pos = np.repeat(first - (np.cumsum(cnts) - cnts), cnts) + np.arange(len(r))
    k = ddata.take((first + stop - 1).take(r) - pos).astype(np.int64)
    j, row, b, m = j.take(r), row.take(r), b.take(r), m.take(r)
    a = ddata.take(pos).astype(np.int64)
    bad = (a < 1) | (a * k != m) | (np.abs(a - k) >= b)
    _fail_at(bad, "gathered form is not reduced", ds, j)
    return j, row, a, b, k


def reduced_form_pairs(
    d: int, indptr: np.ndarray, ddata: np.ndarray
) -> tuple[list[int], list[int]]:
    """(a, b) with a > 0 for the reduced indefinite forms of fundamental d > 0,
    in (b, a) order; each pair stands for the sign class pair (a, b, c) and
    (-a, b, -c)."""
    _, _, a, b, _ = _reduced_forms(np.array([d], dtype=np.int64), indptr, ddata)
    return a.tolist(), b.tolist()


def _fail_at(bad: np.ndarray, what: str, ds: np.ndarray, j: np.ndarray) -> None:
    """Raise ArithmeticError naming ds[j[i]] for the first i with bad[i], in
    its message and as its attribute d."""
    if bad.any():
        d = int(ds[j[np.argmax(bad)]])
        err = ArithmeticError(f"{what} at d = {d}")
        err.d = d
        raise err


def _segments(ds: np.ndarray) -> list[tuple[int, int]]:
    """Bounds (i, j) of the runs ds[i:j] that tile [0, len(ds)) in order,
    cut greedily in D order so that each holds at most SEGMENT rows (D, b),
    or is a single D that alone has more (about sqrt(D) / 2 rows)."""
    before = np.concatenate(([0], np.cumsum(_row_counts(ds))))
    cuts = [0]
    while cuts[-1] < len(ds):
        i = cuts[-1]
        cuts.append(max(int(np.searchsorted(before, before[i] + SEGMENT, "right")) - 1, i + 1))
    return list(zip(cuts, cuts[1:]))


def _blocks(ds: np.ndarray, workers: int) -> list[tuple[int, int]]:
    """Bounds (i, j) of the runs ds[i:j] that tile [0, len(ds)) in order,
    the workers' units of work.  ds is cut at n equal shares of its rows
    (D, b), which the row step and the walk both take in about proportion,
    with n = workers ceil(len(ds) / (workers BLOCK)); each run of more than
    BLOCK D is cut again into the fewest equal runs of at most BLOCK D.
    Equal shares let the workers finish together, and few runs keep the
    walk's per-step overhead low."""
    if not len(ds):
        return []
    before = np.concatenate(([0], np.cumsum(_row_counts(ds))))
    n = workers * -(-len(ds) // (workers * BLOCK))
    edges = np.unique(np.searchsorted(before, before[-1] * np.arange(n + 1) / n)).tolist()
    cuts = [0]
    for i, j in zip(edges, edges[1:]):
        parts = -(-(j - i) // BLOCK)
        cuts += [i + (j - i) * p // parts for p in range(1, parts + 1)]
    return list(zip(cuts, cuts[1:]))


def _row_distances(
    ds: np.ndarray, indptr: np.ndarray, ddata: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, N, failed) per D of ds: T, the float64 sum of the distance term
    over the reduced forms of D, both signs; N, the int64 number of those
    with a > 0; failed, the row checks of _form_rows.  Taken per run of
    _segments, from the rows alone (see _narrow_counts)."""
    total = np.empty(len(ds))
    forms = np.empty(len(ds), dtype=np.int64)
    failed = np.empty(len(ds), dtype=bool)
    for i, j in _segments(ds):
        seg = ds[i:j]
        pj, _, b, m, first, stop, failed[i:j] = _form_rows(seg, indptr, ddata)
        n_row = stop - first
        weight = np.log(np.square(np.sqrt(seg.take(pj).astype(np.float64)) + b) / (4 * m))
        total[i:j] = np.bincount(pj, weights=n_row * weight, minlength=j - i)
        forms[i:j] = np.bincount(pj, weights=n_row, minlength=j - i)
    return total, forms, failed


# Steps between renormalizations of _principal_walk's product: each factor
# is below sqrt(D) < 2^16, so 32 of them stay below 2^512.
RENORM = 32
LOG2 = math.log(2)


def _principal_walk(ds: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, steps) per D of ds: the float64 distance L and the length of D's
    principal rho cycle, walked from (1, b0, -(D - b0^2) / 4), with b0 the b
    of D's last row; steps = 0 where the walk has not returned within
    bound[i] steps.

    Every D of ds is walked in lockstep until its walk returns, so the
    per-step numpy overhead is shared by the block.  A form
    (+-a, b, -+k) with a, k > 0 is held as 2a, b and 2k in float64; its
    term is log((b + sqrt D) / 2a), and rho takes it to (-+k, b', +-k')
    with b' = 2k q - b, q = floor((s + b) / 2k), s = isqrt(D) (the b' = -b
    mod 2k in (sqrt(D) - 2k, sqrt(D))), and 2k' = 2a - q (b' - b), which is
    (D - b'^2) / 2k.  Every value is an integer below 2^34, so exact; the
    quotient is below 2^17 and at least 1 / 2k from the next integer unless
    it is one, so its floor is exact too.  The sign of a alternates, so the
    walk is back at its start only after an even number of steps.
    """
    s = _isqrt(ds)
    root = np.sqrt(ds.astype(np.float64))
    start = (s - ((s ^ ds) & 1)).astype(np.float64)
    a2, b, k2 = np.full(len(ds), 2.0), start.copy(), (ds - start * start) / 2
    s = s.astype(np.float64)
    live = np.arange(len(ds))
    length = np.zeros(len(ds))
    steps = np.zeros(len(ds), dtype=np.int64)
    # the product of the terms' arguments is prod 2^exp, prod renormalized into
    # [1/2, 1) every RENORM steps, before it can overflow
    prod, exp = np.ones(len(ds)), np.zeros(len(ds))
    bound = bound.astype(np.float64)
    step = finished = 0
    while len(live):
        term = b + root
        term /= a2
        prod *= term
        q = s + b
        q /= k2
        np.floor(q, out=q)
        nxt = k2 * q
        nxt -= b
        term = nxt - b
        term *= q
        a2, k2 = k2, a2 - term
        b = nxt
        step += 1
        if step % RENORM == 0:
            prod, more = np.frexp(prod)
            exp += more
        if step % 2:
            continue
        back = (a2 == 2) & (b == start)
        done = back | (step >= bound)
        if not done.any():
            continue
        length[live[back]] = np.log(prod[back]) + exp[back] * LOG2
        steps[live[back]] = step
        # a finished D walks on, unmatched, until an eighth of the block has
        # finished and the arrays are compacted
        start[done], bound[done] = np.nan, np.inf
        finished += np.count_nonzero(done)
        if 8 * finished >= len(live):
            keep = bound < np.inf
            live, a2, b, k2 = live[keep], a2[keep], b[keep], k2[keep]
            prod, exp, root, s, start, bound = (
                x[keep] for x in (prod, exp, root, s, start, bound)
            )
            finished = 0
    return length, steps


def _ratio_bound(
    forms: np.ndarray, rows: np.ndarray, steps: np.ndarray, h: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """The bound 2^-40 (N R + H l (1 + L)) / L of |T / L - H| in float64,
    per D, from N forms with a > 0, R rows, the walk's l steps and L, and H
    (see _narrow_counts)."""
    return 2.0**-40 * (forms * rows + h * steps * (1 + length)) / length


# worker globals (populated before fork, shared copy-on-write)
_W: dict = {}


def _narrow_block(bounds: tuple[int, int]) -> np.ndarray:
    """H+ of the fundamental discriminants ds[i:j] of the sweep, for
    bounds = (i, j), one of the runs of _blocks.

    Each check of _narrow_counts depends only on one D's own rows or its
    own walk, so the D that it names is the first D of the run that fails
    alone, and no D is counted again after an error.
    """
    return _narrow_counts(_W["ds"][slice(*bounds)], _W["indptr"], _W["ddata"])


def _narrow_counts(ds: np.ndarray, indptr: np.ndarray, ddata: np.ndarray) -> np.ndarray:
    """H+ of the fundamental discriminants ds, ascending, as round(T / L).

    Distance.  A reduced indefinite form f = (a, b, c) of D has ac < 0 and
    the term delta(f) = log((b + sqrt D) / 2|a|) > 0.  For D fundamental:
    every rho cycle of reduced forms has the same distance, the sum of
    delta over its forms, L = log eps+, with eps+ > 1 the least totally
    positive unit of Q(sqrt D).  So T, the sum of delta over every reduced
    form of D, is H+ L, and H+ = T / L exactly.
    Proof.  Let J_f = Z + Z w_f, w_f = (-b + sqrt D) / 2a, a fractional
    ideal of the maximal order O; it fixes f, as w_f - conj(w_f) = sqrt(D)
    / a gives a with its sign, and w_f mod 1 then gives b mod 2a, and a
    reduced form is fixed by a and b mod 2|a|.  For rho(f) = (c, b', c'),
    psi = (b + sqrt D) / 2 has psi w_f = -c and psi = (-b' + sqrt D) / 2 mod
    cZ, so psi J_f = Z psi + Z c = c J_rho(f): J_rho(f) = kappa_f J_f with
    kappa_f = (b + sqrt D) / 2c, of norm a / c and |kappa_f| > 1, as
    reducedness gives sqrt(D) - b < 2|a|.  Around a cycle f_0, ...,
    f_n = f_0, c_i = a_(i+1), so the sum of log |kappa_f| is the distance
    (the ratios |a_i / c_i| cancel), and K, the product of the kappa_f,
    has K J_f0 = J_f0 and norm 1: |K| > 1 is a totally positive unit,
    eps+^e with e >= 1.  Up to sign, theta_i = 1 / (kappa_f0 ...
    kappa_f(i-1)) for i >= 0 are all the minima of the lattice J_f0, in
    order (Voronoi's theorem; H. W. Lenstra Jr., On the calculation of
    regulators and class numbers of quadratic fields, LMS Lecture Note
    Ser. 56, 1982; J. Buchmann and U. Vollmer, Binary Quadratic Forms,
    Springer 2007), and 1 / eps+ is one, as 1 is and J_f0 / eps+ = J_f0.
    So 1 / eps+ = +-theta_i for some 0 < i <= n, where theta_n = 1 / K;
    then J_(f_i) = J_f0 / theta_i = J_f0, so f_i = f_0, and as the cycle
    first returns to f_0 at n, i = n and e = 1.  The tests check every
    cycle of every fundamental D < 3000 against log eps+.
    T is read from the rows (_row_distances): the forms of row (D, b) with
    a > 0 are its n_row slice entries a, a set closed under a -> m / a, so
    their terms sum to n_row log((b + sqrt D)^2 / 4m) / 2, and a form and
    its negation share their term.  So row (D, b) adds
    n_row log((sqrt D + b)^2 / 4m) to T, and no form is gathered.  L is one
    walk of the principal cycle (_principal_walk).
    Float64 error.  Let u = 2^-53, and allow each np.log an absolute error
    of 2^-42 (see QuadStream).  A row's weight is log((sqrt D + b)^2 / 4m)
    <= log D < 22, as sqrt D + b < 2 sqrt D and m >= 1, and its argument is
    computed with relative error below 7u, so the weight is within
    2^-42 + 7u; times n_row and summed over at most R rows of D, T is
    within N (2^-42 + 30 R u) < 2^-41 N R, with N the forms with a > 0.
    The walk multiplies the l arguments (b + sqrt D) / 2|a| of its terms,
    each within relative 3.01u, with l more roundings and exact scalings by
    powers of 2, and takes one log, so L is within
    2^-42 + 5 l u + 3u (L + 1) < l (1 + L) (2^-42 + 8u).
    L >= 2 log((1 + sqrt 5) / 2) > 0.96 (its least value, at D = 5), so
    |T / L - H| is at most bound = 2^-40 (N R + H l (1 + L)) / L
    (_ratio_bound), with the float quotient's own rounding inside the slack.
    To 1e6 the bound is at most 7.0e-8, and the deviation at most 3.4e-13.

    Checks.  Each raises ArithmeticError naming the first D of ds that
    fails one (see _fail_at); a D's first failed check, in this order,
    names the error:
    - the row checks of _form_rows;
    - the walk returns within 2N + 2 steps, two more than the reduced
      forms of D, both signs;
    - |T / L - round(T / L)| <= bound < 1 / 2, and round(T / L) >= 1.

    Memory.  The row step takes one run of _segments at a time: int64
    arrays of one entry per row, at most max(SEGMENT, rows of one D), and
    of one per kept row.  The walk holds about ten float64 arrays of one
    entry per D of ds, at most BLOCK, so about 5 MB.
    """
    total, forms, failed = _row_distances(ds, indptr, ddata)
    length, steps = _principal_walk(ds, 2 * forms + 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = total / length
        h = np.rint(ratio)
        bound = _ratio_bound(forms, _row_counts(ds), steps, h, length)
        off = ~(np.abs(ratio - h) <= bound) | ~(bound < 0.5) | (h < 1)
    checks = (
        (failed, "bad divisor row"),
        (steps == 0, "principal rho walk did not return"),
        (off, "T / L is not a positive integer"),
    )
    bad = np.logical_or.reduce([flags for flags, _ in checks])
    if bad.any():
        first = int(np.argmax(bad))
        what = next(what for flags, what in checks if flags[first])
        _fail_at(bad, what, ds, np.arange(len(ds)))
    return h.astype(np.int64)


def _imag_part(first: int) -> np.ndarray:
    """int32 form counts at the fundamental D for a = first mod the stride,
    read in blocks of STREAM_BLOCK D so that the index arrays stay small."""
    counts = imag_class_table(_W["hi"], first, _W["stride"])
    ds = _W["ds"]
    part = np.empty(len(ds), dtype=np.int32)
    for i in range(0, len(ds), STREAM_BLOCK):
        d = ds[i : i + STREAM_BLOCK]
        part[i : i + STREAM_BLOCK] = counts[d & 1, d >> 2]
    return part


def _fork_map(fn, items: list, workers: int) -> Iterator:
    """Yield fn(x) for x in items, in order, on a fork pool of `workers`
    processes if >= 2.  Results are yielded as they arrive, so the caller
    can store each one before the next, instead of holding all of them;
    each item is one task, so a worker that finishes early takes the next."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(fn, items)


# glibc's malloc moves its mmap and trim thresholds up to the largest block
# freed so far, so without pinning, whether each sweep segment reuses heap
# memory or faults its arrays in afresh would depend on which table was
# built and freed before it.  Pinned values, for mallopt's M_MMAP_THRESHOLD
# (-3) and M_TRIM_THRESHOLD (-1).
MALLOC_THRESHOLDS = ((-3, 4 << 20), (-1, 8 << 20))


def _reset_malloc() -> None:
    """Set MALLOC_THRESHOLDS through mallopt, then return the free heap to
    the system through malloc_trim; a no-op where there are none."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    trim.argtypes = (ctypes.c_size_t,)
    mallopt.restype = trim.restype = ctypes.c_int
    for param, value in MALLOC_THRESHOLDS:
        mallopt(param, value)
    trim(0)


class QuadTable(Sequence):
    """(D, N, H) columns: int64 D ascending, N = omega(D) (uint8 from
    quad_triples), int64 H.

    It also reads as a sequence of (D, N, H) tuples of Python ints: indexing
    gives a tuple, iteration yields tuples, and a slice (an index array) is
    a QuadTable of column views (copies).  Vectorized readers such as
    QuadStream use the columns.
    """

    __slots__ = ("d", "n", "h")

    def __init__(self, d: np.ndarray, n: np.ndarray, h: np.ndarray) -> None:
        self.d, self.n, self.h = d, n, h

    @classmethod
    def of(cls, rows: Sequence[tuple[int, int, int]]) -> QuadTable:
        """rows itself if it is a QuadTable, else its int64 columns."""
        if isinstance(rows, cls):
            return rows
        d, n, h = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        return cls(d, n, h)

    def __len__(self) -> int:
        return len(self.d)

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            return QuadTable(self.d[i], self.n[i], self.h[i])
        return int(self.d[i]), int(self.n[i]), int(self.h[i])

    def __iter__(self):
        block = 1 << 16
        for i in range(0, len(self.d), block):
            cols = (c[i : i + block].tolist() for c in (self.d, self.n, self.h))
            yield from zip(*cols)


def quad_triples(signature: str, lo: int, hi: int, workers: int = 1) -> QuadTable:
    """(D, N, H) for every fundamental |D| in [lo, hi], ascending.

    H is the ordinary class number for imaginary fields and the narrow class
    number for real fields, exactly as the per-discriminant routines compute.
    The D column and N = omega(D) are sieved here, once for either
    signature; the workers compute only H.  Both sweeps fork at most
    min(workers, os.cpu_count()) workers; the result does not depend on
    their number.  The imaginary form-count table is split by a mod the
    worker count.  The real sweep cuts the D column once, into the blocks
    of _blocks, and the workers take those blocks one at a time (a single
    worker maps them in this process).
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    if hi >= 2**31:
        raise ValueError("need |D| < 2^31: the omega sieve holds |D| in int32")
    if signature not in (IMAGINARY, REAL):
        raise ValueError(f"unknown signature {signature!r}")
    workers = max(1, min(workers, os.cpu_count() or 1))
    _reset_malloc()
    om = omega_table(hi)  # before ds, so that the sieve's temporaries and ds never meet
    ds = np.flatnonzero(fundamental_mask(hi, signature)[lo : hi + 1])
    ds += lo
    n = om[ds]
    del om
    try:
        _W["ds"] = ds
        if signature == IMAGINARY:
            _W.update(hi=hi, stride=workers)
            h = np.zeros(len(ds), dtype=np.int64)
            for part in _fork_map(_imag_part, list(range(1, workers + 1)), workers):
                h += part  # in place, as each part arrives
            return QuadTable(ds, n, h)
        bounds = _blocks(ds, workers)
        _W["indptr"], _W["ddata"] = divisor_table(hi // 4 + 1)
        _reset_malloc()  # neither the map nor the forked workers keep the freed sieve heap
        h = np.empty(len(ds), dtype=np.int64)
        for (i, j), part in zip(bounds, _fork_map(_narrow_block, bounds, workers)):
            h[i:j] = part
        return QuadTable(ds, n, h)
    finally:
        _W.clear()


# ---------------------------------------------------------------------------
# record materialization for the maxima engine
# ---------------------------------------------------------------------------

QUAD_METRICS = (NONGENUS, FULL, RAW_H, RAW_SMALL_H)


def metric_terms(metric_kind: str) -> tuple[bool, bool]:
    """(by_genus, raw) of a quadratic metric: its h is H / 2^(N-1) if
    by_genus, else H, and its disc is 1 if raw, else D."""
    if metric_kind not in QUAD_METRICS:
        raise ValueError(f"unknown metric {metric_kind!r}")
    return metric_kind in (NONGENUS, RAW_SMALL_H), metric_kind in (RAW_H, RAW_SMALL_H)


def quad_records(
    triples: Sequence[tuple[int, int, int]],
    signature: str,
    eps: Epsilon,
    metric_kind: str,
) -> list[FieldRecord]:
    """Turn (D, N, H) triples into scan records under one metric."""
    by_genus, raw = metric_terms(metric_kind)
    sign = -1 if signature == IMAGINARY else 1
    out = []
    for d, n, big_h in triples:
        g = 1 << (n - 1)
        if big_h % g:
            raise ArithmeticError(f"genus number 2^{n - 1} does not divide H at D = {d}")
        small_h = big_h // g
        value = c_eps(small_h if by_genus else big_h, 1 if raw else d, eps)
        out.append(
            FieldRecord(f=d, d_signed=sign * d, n_ramified=n, value=value, H=big_h, h=small_h)
        )
    return out


# Slack of the record prefilter, in log space.  Twice the float64 error bound
# of its values (2 * 2^-40, derived in QuadStream) lies far below it.
MARGIN = 2.0**-30

# Rows per block of QuadStream's one pass and of the imaginary form-count
# read: their temporaries then take a few MB whatever the table's length.
STREAM_BLOCK = 2**16


def _prefilter(
    log_h: np.ndarray, log_d: np.ndarray, half_e: float, mode: str, top: float = -np.inf
) -> tuple[np.ndarray, float]:
    """(kept, top) for a run of positions after earlier ones whose largest
    v is top: the mask of QuadStream's prefilter test v >= P - MARGIN, with
    v at exponent 2 half_e, and the largest v up to the end of the run."""
    v = log_h - half_e * log_d
    if mode == MINIMA:
        v = -v
    prev = np.maximum.accumulate(np.concatenate(([top], v)))
    return v >= prev[:-1] - MARGIN, prev[-1]


class QuadStream:
    """A checked (D, N, H) table (a QuadTable, or any sequence of rows) under
    one metric and one mode, with the rows that can hold a record at any eps.

    Construction makes one pass over the table, in blocks of STREAM_BLOCK
    rows.  It checks every row the way quad_records, c_eps and scan check
    each record: at the first row either would reject, quad_records itself
    raises its error; then keys must be strictly ascending.  A bad row thus
    fails the run even where the prefilter would drop it.  The same pass
    runs the prefilter at one exponent e0 (see Lifetimes) and keeps only its
    candidates: their ascending positions `support`, S, and the float64 logs
    of their h and D, `log_h` and `log_d`.  The running maximum carries
    across blocks, so S does not depend on the block size, and no array but
    S and its logs grows with the table.

    Prefilter.  For an exponent e, the metric's h (H >> (N-1) for nongenus
    and raw-h, H otherwise) and its D (1 for raw metrics), position i gets
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
    and 2 delta < 2^-39 = MARGIN / 512.  Negation and max are exact.  A raw
    row's log D is exactly 0: it is set, not computed.

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

    Lifetimes.  Write x_i(e) for x_i at exponent e.  Keys ascend, so
    log(D_i / D_j) >= 0 for j < i (0 for the raw metrics' D = 1), and in
    maxima mode x_i(e) > x_j(e) iff log(h_i / h_j) > (e/2) log(D_i / D_j),
    whose right side never falls as e grows.  So a position that beats
    every earlier one at some e >= 0 also does at e = 0: every event at any
    eps is an event at e0 = 0.  In minima mode the inequality turns, and
    every event at any eps < 2 is an event at e0 = 2.  By Exactness at e0,
    S holds every event of every eps.
    """

    def __init__(
        self, triples: Sequence[tuple[int, int, int]], signature: str, metric_kind: str, mode: str
    ) -> None:
        by_genus, raw = metric_terms(metric_kind)
        self.table = table = QuadTable.of(triples)
        self.signature, self.metric_kind, self.mode = signature, metric_kind, mode
        half_e0 = 1.0 if mode == MINIMA else 0.0
        top, unsorted, parts = -np.inf, [], [(np.zeros(0, np.int64), np.zeros(0), np.zeros(0))]
        for i in range(0, len(table), STREAM_BLOCK):
            block = slice(i, i + STREAM_BLOCK)
            d, n, big_h = table.d[block], table.n[block].astype(np.int64), table.h[block]
            shifts = (n >= 1) & (n <= 63)
            genus_rest = big_h & (np.left_shift(1, np.where(shifts, n - 1, 0)) - 1)
            bad = ~shifts | (genus_rest != 0) | (big_h <= 0) | (d < 1)
            if bad.any():
                # raises the per-record error for the first bad row
                row = table[i + int(np.argmax(bad))]
                quad_records([row], signature, EPS_ZERO, metric_kind)
            edge = table.d[max(i - 1, 0) : i + STREAM_BLOCK]
            unsorted.extend(edge[1:][edge[1:] <= edge[:-1]][:1])
            h = big_h >> (n - 1) if by_genus else big_h
            log_h = np.log(h.astype(np.float64))
            log_d = np.zeros(len(d)) if raw else np.log(d.astype(np.float64))
            kept, top = _prefilter(log_h, log_d, half_e0, mode, top)
            parts.append((np.flatnonzero(kept) + i, log_h[kept], log_d[kept]))
        if unsorted:
            raise ValueError(f"stream keys not ascending at {unsorted[0]}")
        self.support, self.log_h, self.log_d = (np.concatenate(col) for col in zip(*parts))

    def __len__(self) -> int:
        """The rows of the table, every one counted in ND."""
        return len(self.table)

    def records(self, eps: Epsilon) -> tuple[list[int], list[FieldRecord]]:
        """(keep, records): the ascending positions of support that pass the
        prefilter test run on S alone at eps, and the quad_records of their
        rows under eps, record i of row keep[i].

        keep contains every successive record of a fresh scan over the whole
        stream at eps, and a scan over the records takes that scan's
        decisions.  Within S, P_i is the maximum of v over the earlier
        positions of S.  That never exceeds the maximum over all earlier
        positions, so within S the test keeps a superset of what the
        prefilter over the whole stream keeps, and every event at eps is in S
        (see Lifetimes).  Exactness then holds word for word with S for the
        stream: the position that first reached R_i is an event, so it lies
        in S and is kept.
        """
        kept, _ = _prefilter(self.log_h, self.log_d, eps.num / (2 * eps.den), self.mode)
        keep = self.support[kept]
        return keep.tolist(), quad_records(self.table[keep], self.signature, eps, self.metric_kind)


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
) -> tuple[list[FieldRecord], bool]:
    """The records of Q(sqrt(-m)) for the prefix products m of the given
    primes, nongenus metric at eps.

    The whole list and the budget (>= 0, so not NaN) are checked before the
    first class number; the product of all the primes is the largest prefix
    product, so its 63-bit bound covers every row.  Rows are produced in
    prefix order; if a row's class-number computation would start after the
    time budget is exhausted, the remaining rows are skipped and the flag
    comes back True.
    """
    if len(set(primes)) != len(primes) or not primes:
        raise ValueError("need a nonempty list of distinct primes")
    for p in primes:
        if not arith.is_prime(p):
            raise ValueError(f"{p} is not prime")
    if math.prod(primes).bit_length() > 63:
        raise ValueError("the product of the primes exceeds the 63-bit input bound")
    if budget_seconds is not None and not budget_seconds >= 0:
        raise ValueError("the budget must be a number of seconds >= 0")
    rows: list[FieldRecord] = []
    started = time.monotonic()
    m = 1
    for p in primes:
        m *= p
        if budget_seconds is not None and time.monotonic() - started > budget_seconds:
            return rows, True
        d = attached_imaginary_discriminant(m)
        row = (-d, arith.omega(-d), classnum.class_number_imaginary(d))
        rows.extend(quad_records([row], IMAGINARY, eps, NONGENUS))
    return rows, False


# ---------------------------------------------------------------------------
# epsilon threshold search
# ---------------------------------------------------------------------------


def threshold_search(
    triples: Sequence[tuple[int, int, int]],
    signature: str,
    grid_step: Fraction,
    metric_kind: str = NONGENUS,
) -> Fraction | None:
    """Largest grid multiple of grid_step (< 2) with >= 2 maxima events, or
    None if even eps = 0 has fewer.

    Position 0 is always an event.  There is a second at e iff some i >= 1
    beats position 0 at e, for then the first such i beats every earlier
    position.  By the inequality of QuadStream's Lifetimes, a row that beats
    row 0 at some e >= 0 also beats it at every smaller e.  So the grid
    indices k with >= 2 events at k * grid_step form a prefix, and bisection
    finds its end, deciding each probe by an exact scan.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    stream = QuadStream(triples, signature, metric_kind, MAXIMA)

    def plenty(k: int) -> bool:
        _, records = stream.records(Epsilon.of(grid_step * k))
        return len(list(islice(scan(iter(records), MAXIMA), 2))) >= 2

    # plenty holds at every index <= lo and at none >= hi, the first past the grid
    lo, hi = -1, math.ceil(2 / grid_step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if plenty(mid):
            lo = mid
        else:
            hi = mid
    return grid_step * lo if lo >= 0 else None
