"""Decompositions of integer sequences into monotone subsequences.

Provides exact minimum-cardinality decompositions for a single direction
(non-decreasing or non-increasing), a greedy mixed-direction heuristic, the
distinct-value (uniform) decomposition, and per-row/per-column
decompositions of a matrix.  Rows and columns keep their own part counts:
:func:`~minplus.core.validate_decomposition` lines them up for the solvers.

The single-direction decompositions are the piles of a greedy scan, as
many as the longest strictly decreasing (increasing) subsequence, so exact
minima.  Element i lands on pile L(i) - 1, L(i) the length of the longest
such subsequence ending at i: pile 0 is the weak prefix-maximum (minimum)
records, pile t the records after t peels; a bisect scan places the rest.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    Subsequence,
    _as_int64,
    values_satisfy,
)


def _host_values(s) -> np.ndarray:
    """``s`` as int64, refused as :class:`IntVector` refuses it if it holds
    anything but integers or an unsigned value past the int64 range."""
    if isinstance(s, IntVector):
        return s.coords
    arr = _as_int64(s, "sequence")
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    return arr


#: Peel while at least _PEEL_MIN are left and the last peel took 1/_PEEL_SHARE
#: of them: in a sweep of 16-64 x 4-16, fastest on planted, random, falling rows.
_PEEL_MIN, _PEEL_SHARE = 32, 8


def _monotone_parts(values: np.ndarray, tag: MonotoneTag) -> Decomposition:
    """The greedy piles of ``values`` as ``tag`` parts (module docstring):
    the peeled piles, then the bisect scan's piles of what peeling left."""
    acc = np.maximum if tag is MonotoneTag.NON_DECREASING else np.minimum
    left, vals, piles = np.arange(values.shape[0], dtype=np.int64), values, []
    while left.size >= _PEEL_MIN:
        rec = vals == acc.accumulate(vals)  # compared, never negated
        piles.append(left[rec])
        left, vals = left[~rec], vals[~rec]
        if _PEEL_SHARE * piles[-1].size < rec.size:
            break
    # Keys whose pile tails rise strictly: Python ints, which do not wrap.
    keys = [-x for x in vals.tolist()] if acc is np.maximum else vals.tolist()
    tails, tail = [], []  # per pile: its last key, its positions
    for i, x in zip(left.tolist(), keys):
        pos = bisect.bisect_left(tails, x)
        if pos == len(tail):
            tail.append([i])
            tails.append(x)
        else:
            tail[pos].append(i)
            tails[pos] = x
    order = np.concatenate([*piles, np.fromiter(itertools.chain(*tail), np.int64)])
    order.setflags(write=False)  # so no part's positions can be written
    sizes = [p.size for p in piles] + list(map(len, tail))
    bounds = itertools.pairwise(itertools.accumulate(sizes, initial=0))
    parts = [Subsequence._of(order[a:b], tag) for a, b in bounds]
    return Decomposition(values.shape[0], parts)


def decompose_nondecreasing(s) -> Decomposition:
    """Partition into the minimum number of non-decreasing subsequences.

    The part count equals the length of the longest strictly decreasing
    subsequence of ``s``.  Deterministic: ties in the greedy pile choice
    cannot occur because pile tails are pairwise distinct at all times.
    """
    return _monotone_parts(_host_values(s), MonotoneTag.NON_DECREASING)


def decompose_nonincreasing(s) -> Decomposition:
    """Partition into the minimum number of non-increasing subsequences.

    Mirror of :func:`decompose_nondecreasing`; the part count equals the
    length of the longest strictly increasing subsequence of ``s``.
    """
    return _monotone_parts(_host_values(s), MonotoneTag.NON_INCREASING)


def _value_tag(vals: np.ndarray) -> MonotoneTag:
    if values_satisfy(vals, MonotoneTag.UNIFORM):
        return MonotoneTag.UNIFORM
    if values_satisfy(vals, MonotoneTag.NON_DECREASING):
        return MonotoneTag.NON_DECREASING
    return MonotoneTag.NON_INCREASING


def _merge_monotone_parts(index_lists: list[list[int]], values: np.ndarray):
    """Repeatedly merge part pairs whose index-interleaving stays monotone
    (in either direction).  Quadratic in the part count per round; intended
    for the small part counts this package targets."""
    parts = [list(p) for p in index_lists]
    merged = True
    while merged:
        merged = False
        for x in range(len(parts)):
            for y in range(x + 1, len(parts)):
                cand = sorted(parts[x] + parts[y])
                vals = values[cand]
                if values_satisfy(vals, MonotoneTag.NON_DECREASING) or values_satisfy(
                    vals, MonotoneTag.NON_INCREASING
                ):
                    parts[x] = cand
                    del parts[y]
                    merged = True
                    break
            if merged:
                break
    return parts


def decompose_monotone_greedy(s) -> Decomposition:
    """Heuristic partition into monotone subsequences of mixed directions.

    Both exact single-direction decompositions are computed, each is
    improved by greedy pairwise merging of parts that interleave into a
    monotone sequence, and the smaller result wins (ties prefer the one
    derived from the non-decreasing decomposition).  The result never has
    more parts than the better single-direction minimum; no approximation
    guarantee is made relative to the true mixed-direction minimum.
    """
    values = _host_values(s)
    best = None
    for base in (decompose_nondecreasing(values), decompose_nonincreasing(values)):
        merged = _merge_monotone_parts([p.indices for p in base.parts], values)
        if best is None or len(merged) < len(best):
            best = merged
    parts = tuple(
        Subsequence(p, _value_tag(values[p])) for p in best
    )
    return Decomposition(values.shape[0], parts)


def decompose_uniform(s) -> Decomposition:
    """Partition into constant-valued subsequences, one per distinct value.

    Parts are ordered by first occurrence of their value; indices within a
    part ascend.  The part count is the number of distinct values, which is
    the minimum possible for constant parts.
    """
    values = _host_values(s)
    by_value: dict[int, list[int]] = {}
    for i, x in enumerate(values.tolist()):
        by_value.setdefault(x, []).append(i)
    parts = tuple(
        Subsequence(ix, MonotoneTag.UNIFORM) for ix in by_value.values()
    )
    return Decomposition(values.shape[0], parts)


#: Decomposition modes by name.  The CLI's ``--mode`` choices; lookups go
#: through this dict at call time.
DECOMPOSE_MODES = {
    "nondec": decompose_nondecreasing,
    "noninc": decompose_nonincreasing,
    "greedy": decompose_monotone_greedy,
    "uniform": decompose_uniform,
}


def decompose_rows(A: IntMatrix, mode: str) -> list[Decomposition]:
    """One decomposition per row of A.  Modes: the keys of
    :data:`DECOMPOSE_MODES`."""
    fn = DECOMPOSE_MODES[mode]
    return [fn(A.entries[i]) for i in range(A.n)]


def decompose_cols(B: IntMatrix, mode: str) -> list[Decomposition]:
    """One decomposition per column of B."""
    fn = DECOMPOSE_MODES[mode]
    return [fn(B.entries[:, j]) for j in range(B.n)]


def longest_strictly_increasing_length(s) -> int:
    """Length of the longest strictly increasing subsequence, O(n log n)."""
    tails: list[int] = []
    for x in _host_values(s).tolist():
        pos = bisect.bisect_left(tails, x)
        if pos == len(tails):
            tails.append(x)
        else:
            tails[pos] = x
    return len(tails)


def longest_strictly_decreasing_length(s) -> int:
    """Length of the longest strictly decreasing subsequence, O(n log n)."""
    return longest_strictly_increasing_length(_host_values(s)[::-1])


@dataclass(frozen=True)
class DecompositionStats:
    """Summary of a decomposition: part count, overall direction, and for
    the exact single-direction and uniform modes a matching lower-bound
    certificate (the extremal opposing subsequence length, respectively the
    distinct-value count)."""

    parts_count: int
    direction: str  # "nondec" | "noninc" | "uniform" | "mixed"
    lower_bound_certificate: int | None


def decomposition_stats(d: Decomposition, host) -> DecompositionStats:
    """Stats for a decomposition of ``host``; the certificate is computed
    independently of how ``d`` was produced."""
    values = _host_values(host)
    # A UNIFORM part satisfies either order, so it fits either direction.
    tags = {p.tag for p in d.parts} - {MonotoneTag.UNIFORM}
    if not tags:
        direction = "uniform"
        cert: int | None = len(set(values.tolist()))
    elif tags == {MonotoneTag.NON_DECREASING}:
        direction = "nondec"
        cert = longest_strictly_decreasing_length(values)
    elif tags == {MonotoneTag.NON_INCREASING}:
        direction = "noninc"
        cert = longest_strictly_increasing_length(values)
    else:
        direction = "mixed"
        cert = None
    return DecompositionStats(d.part_count, direction, cert)
