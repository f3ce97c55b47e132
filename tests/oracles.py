"""Slow, independent reference implementations used only by the tests.

Everything here is deliberately written with plain loops (or a different
dense formulation) so that agreement with the package is meaningful.
"""

from __future__ import annotations

import bisect

import numpy as np

from minplus.core import (
    INT64_MAX,
    INT64_MIN,
    MAX_DIMENSION,
    BoolVector,
    CoverageGapError,
    Decomposition,
    IndexOutOfRange,
    IntVector,
    LengthMismatch,
    MonotoneTag,
    OrderViolation,
    OverlapError,
    Subsequence,
)
from minplus import fastconv
from minplus.fileio import ParseError


def minplus_matrix(A, B) -> np.ndarray:
    """Schoolbook (min,+) product on plain 2-D arrays."""
    n = len(A)
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            out[i, j] = min(int(A[i][k]) + int(B[k][j]) for k in range(n))
    return out


def minplus_conv(a, b) -> np.ndarray:
    """Schoolbook (min,+) convolution on plain 1-D arrays."""
    n = len(a)
    out = np.empty(2 * n - 1, dtype=np.int64)
    for k in range(2 * n - 1):
        lo, hi = max(k - n + 1, 0), min(k, n - 1)
        out[k] = min(int(a[l]) + int(b[k - l]) for l in range(lo, hi + 1))
    return out


def bool_matmul(P, Q) -> np.ndarray:
    n = len(P)
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            out[i, j] = any(P[i][k] and Q[k][j] for k in range(n))
    return out


def mat_witness_loops(P, Q, kind: str) -> np.ndarray:
    """Extreme witnesses by explicit scan; 1-based, -1 where undefined."""
    n = len(P)
    order = range(n) if kind == "min" else range(n - 1, -1, -1)
    W = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            for k in order:
                if P[i][k] and Q[k][j]:
                    W[i, j] = k + 1
                    break
    return W


def mat_witness_tensor(P, Q, kind: str) -> np.ndarray:
    """Same as mat_witness_loops via a dense (i, k, j) tensor; usable at
    n = 64 where the triple loop is slow.  ``P`` may be a block of rows."""
    P = np.asarray(P, dtype=bool)
    Q = np.asarray(Q, dtype=bool)
    n = Q.shape[0]
    hits = P[:, :, None] & Q[None, :, :]  # (i, k, j)
    if kind == "max":
        hits = hits[:, ::-1, :]
    first = np.argmax(hits, axis=1)
    some = hits.any(axis=1)
    if kind == "max":
        first = n - 1 - first
    return np.where(some, first + 1, -1).astype(np.int64)


def bool_conv(p, q) -> np.ndarray:
    n = len(p)
    out = np.zeros(2 * n - 1, dtype=bool)
    for k in range(2 * n - 1):
        lo, hi = max(k - n + 1, 0), min(k, n - 1)
        out[k] = any(p[l] and q[k - l] for l in range(lo, hi + 1))
    return out


def conv_witness_loops(p, q, kind: str) -> np.ndarray:
    """Extreme convolution witnesses by explicit scan; 0-based, -1 where
    undefined."""
    n = len(p)
    W = np.full(2 * n - 1, -1, dtype=np.int64)
    for k in range(2 * n - 1):
        lo, hi = max(k - n + 1, 0), min(k, n - 1)
        rng = range(lo, hi + 1) if kind == "min" else range(hi, lo - 1, -1)
        for l in rng:
            if p[l] and q[k - l]:
                W[k] = l
                break
    return W


def int_conv(p, q) -> np.ndarray:
    """Counting convolution by explicit accumulation."""
    n = len(p)
    out = np.zeros(2 * n - 1, dtype=np.int64)
    for l in range(n):
        for m in range(n):
            out[l + m] += int(p[l]) * int(q[m])
    return out


#: ``int_convolution`` accepts inputs while max(p) * max(q) * n stays
#: below this bound.  Then ``||p||_2 * ||q||_2 < 2**30``, and the error of
#: a float64 FFT convolution of length N, at most a small constant times
#: ``2**-53 * log2(N) * ||p||_2 * ||q||_2``, is about
#: ``2**30 * 2**-53 * 22 < 3e-6``, far below the 0.5 that rounding tolerates.
CONV_WINDOW = 998244353


class PrecisionWindowExceeded(Exception):
    """Convolution inputs too large for the exact transform window."""


def int_convolution(p: IntVector, q: IntVector) -> IntVector:
    """Exact counting convolution c_i = sum_l p_l * q_{i-l}, length 2n-1,
    on the package's own transform (``fastconv._conv_exact``), for inputs
    that are non-negative and inside CONV_WINDOW; :func:`int_conv` is its
    loop reference."""
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    pa, qa = p.coords, q.coords
    if (pa < 0).any() or (qa < 0).any():
        raise ValueError("convolution inputs must be non-negative")
    worst = int(pa.max()) * int(qa.max()) * p.n
    if worst >= CONV_WINDOW:
        raise PrecisionWindowExceeded(
            f"coefficient bound {worst} reaches the exactness window {CONV_WINDOW}"
        )
    return IntVector(fastconv._conv_exact(pa, qa))


def longest_strict_dec(values) -> int:
    """Quadratic DP for the longest strictly decreasing subsequence."""
    values = list(values)
    n = len(values)
    dp = [1] * n
    for i in range(n):
        for j in range(i):
            if values[j] > values[i]:
                dp[i] = max(dp[i], dp[j] + 1)
    return max(dp) if dp else 0


def longest_strict_inc(values) -> int:
    return longest_strict_dec([-v for v in values])


def batch_longest_strict_dec(batch: np.ndarray) -> np.ndarray:
    """longest_strict_dec for every row of a (count, length) array at once.

    DP over positions; at step i the best chain ending at i extends the
    best chain ending at any j < i whose value is strictly larger.
    """
    count, length = batch.shape
    dp = np.ones((count, length), dtype=np.int64)
    for i in range(1, length):
        bigger = batch[:, :i] > batch[:, i : i + 1]
        ext = np.where(bigger, dp[:, :i], 0).max(axis=1)
        dp[:, i] = np.maximum(1, ext + 1)
    return dp.max(axis=1)


def batch_longest_strict_inc(batch: np.ndarray) -> np.ndarray:
    return batch_longest_strict_dec(-batch)


def patience_piles(values: list[int]) -> list[list[int]]:
    """Greedy partition of ``values`` into non-decreasing runs, each a list
    of ascending positions, one element at a time.

    Each element goes on the pile whose tail is the largest value <= it;
    otherwise a new pile opens.  The pile tails stay strictly decreasing,
    so the eligible pile is found by bisection on the negated tails (Python
    ints, which do not wrap).  Non-increasing runs are the piles of the
    negated values.
    """
    piles: list[list[int]] = []
    neg_tails: list[int] = []  # strictly increasing
    for i, x in enumerate(values):
        pos = bisect.bisect_left(neg_tails, -x)
        if pos == len(piles):
            piles.append([i])
            neg_tails.append(-x)
        else:
            piles[pos].append(i)
            neg_tails[pos] = -x
    return piles


def min_monotone_parts(values, nondec: bool) -> int:
    """True minimum number of monotone parts covering the sequence, by
    subset dynamic programming.  Exponential; lengths <= ~6 only.

    A part is a subsequence (indices kept in order) whose values are
    non-decreasing (or non-increasing).  Only parts containing the lowest
    uncovered index need to be tried.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return 0
    full = (1 << n) - 1

    def ordered_ok(mask: int) -> bool:
        prev = None
        for i in range(n):
            if mask >> i & 1:
                if prev is not None:
                    if nondec and values[i] < prev:
                        return False
                    if not nondec and values[i] > prev:
                        return False
                prev = values[i]
        return True

    good = [m for m in range(1, full + 1) if ordered_ok(m)]
    best = {0: 0}
    frontier = {0}
    parts = 0
    while full not in best:
        parts += 1
        nxt = set()
        for state in frontier:
            rem = ~state & full
            lowest = rem & -rem
            for m in good:
                if m & state or not m & lowest:
                    continue
                s2 = state | m
                if s2 not in best:
                    best[s2] = parts
                    nxt.add(s2)
        frontier = nxt
        if not frontier and full not in best:
            raise AssertionError("search exhausted without covering")
    return best[full]


def checked_add(x: int, y: int) -> int:
    """Exact integer sum, refusing to produce a value outside 64 bits.

    Both operands are expected to be within the 64-bit range already; the
    guard is on the result, so pairs like 2**62 + 2**62 raise rather than
    silently wrapping in downstream int64 arithmetic.
    """
    s = int(x) + int(y)
    if s < INT64_MIN or s > INT64_MAX:
        raise OverflowError(f"{x} + {y} leaves the 64-bit range")
    return s


def values_satisfy(values, tag) -> bool:
    """Whether a value sequence keeps the (weak) order of ``tag``, compared
    as Python ints neighbour by neighbour."""
    xs = [int(x) for x in values]
    steps = list(zip(xs, xs[1:]))
    if tag is MonotoneTag.NON_DECREASING:
        return all(x <= y for x, y in steps)
    if tag is MonotoneTag.NON_INCREASING:
        return all(x >= y for x, y in steps)
    return all(x == y for x, y in steps)


def rows_monotone(M, tag) -> bool:
    """Whether every row of the IntMatrix M satisfies the tag's order."""
    return all(values_satisfy(M.entries[i], tag) for i in range(M.n))


def cols_monotone(M, tag) -> bool:
    """Whether every column of the IntMatrix M satisfies the tag's order."""
    return all(values_satisfy(M.entries[:, j], tag) for j in range(M.n))


def vector_monotone(v, tag) -> bool:
    """Whether the whole IntVector satisfies the tag's order."""
    return values_satisfy(v.coords, tag)


def padded(d: Decomposition, count: int) -> Decomposition:
    """``d`` with empty UNIFORM parts appended up to ``count`` parts."""
    extra = (Subsequence((), MonotoneTag.UNIFORM),) * (count - d.part_count)
    return Decomposition(d.host_length, d.parts + extra)


def char_vector(p: Subsequence, n: int) -> BoolVector:
    """Characteristic Boolean vector of a subsequence of a length-n host."""
    bits = np.zeros(n, dtype=bool)
    for i in p.indices:
        bits[i] = True
    return BoolVector(bits)


def validate_decomposition_loop(d, host) -> None:
    """Per-index reference for ``validate_decomposition`` on one
    decomposition: raise on its first violation, in the package's order
    (length, then range and overlap part by part, then coverage, then
    each part's own tag)."""
    values = np.asarray(host)
    n = values.shape[0]
    if d.host_length != n:
        raise LengthMismatch(
            f"decomposition is for length {d.host_length}, host has {n}"
        )
    owner = [-1] * n
    for p, part in enumerate(d.parts):
        for i in part.indices:
            if i >= n:
                raise IndexOutOfRange(f"part {p} index {i} outside [0, {n})")
            if owner[i] >= 0:
                raise OverlapError(i, owner[i], p)
            owner[i] = p
    if -1 in owner:
        raise CoverageGapError(owner.index(-1))
    for p, part in enumerate(d.parts):
        vals = [int(values[i]) for i in part.indices]
        for pos, (x, y) in enumerate(zip(vals, vals[1:])):
            if (
                (part.tag is MonotoneTag.NON_DECREASING and y < x)
                or (part.tag is MonotoneTag.NON_INCREASING and y > x)
                or (part.tag is MonotoneTag.UNIFORM and y != x)
            ):
                raise OrderViolation(p, pos)


_PART_TAGS = {tag.value: tag for tag in MonotoneTag}


def parse_parts_tokenwise(text: str, lineno: int, base: int, n: int) -> Decomposition:
    """Token-by-token reference for one line of parts in the text format:
    parts left to right, each part's tag before its indices, each index
    converted and bound-checked on its own; raise ParseError at the
    line's first fault."""
    subs = []
    for chunk in text.split("|"):
        toks = chunk.split()
        if not toks:
            raise ParseError("empty part needs its tag", lineno)
        if toks[0] not in _PART_TAGS:
            raise ParseError(f"unknown part tag {toks[0]!r}", lineno)
        idx = []
        for tok in toks[1:]:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad integer {tok!r}", lineno) from None
            if abs(v) > MAX_DIMENSION:
                raise ParseError(
                    f"value {v} exceeds magnitude bound {MAX_DIMENSION}", lineno
                )
            idx.append(v - base)
        try:
            subs.append(Subsequence(tuple(idx), _PART_TAGS[toks[0]]))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), lineno) from None
    return Decomposition(n, tuple(subs))
