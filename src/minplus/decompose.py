"""Decompositions of integer sequences into monotone subsequences.

Provides exact minimum-cardinality decompositions for a single direction
(non-decreasing or non-increasing), a greedy mixed-direction heuristic, the
distinct-value (uniform) decomposition, and per-row/per-column
decompositions of a matrix.  Rows and columns keep their own part counts:
:func:`~minplus.core.validate_decomposition` lines them up for the solvers.

The single-direction decompositions use a patience-style greedy scan whose
part count provably equals the length of the longest strictly decreasing
(respectively increasing) subsequence, so they are exact minima.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .core import (
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    Subsequence,
    values_satisfy,
)


def _host_values(s) -> np.ndarray:
    if isinstance(s, IntVector):
        return s.coords
    arr = np.asarray(s)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional sequence")
    return arr.astype(np.int64, copy=False)


def _patience_piles(values: list[int]) -> list[np.ndarray]:
    """Greedy minimum partition of ``values`` into non-decreasing runs,
    each an ascending index array.

    Each element goes on the pile whose tail is the largest value <= it;
    otherwise a new pile opens.  The pile tails stay strictly decreasing
    (the chosen pile's left neighbour rejected the element, the right
    neighbour's tail was already smaller), so the eligible pile with the
    largest tail is found by bisection on the negated tails.  Each time a
    pile opens, the tails at those moments chain into a strictly decreasing
    subsequence, which certifies minimality.
    """
    piles: list[list[int]] = []
    neg_tails: list[int] = []  # strictly increasing
    find = bisect.bisect_left
    for i, x in enumerate(values):
        pos = find(neg_tails, -x)
        if pos == len(piles):
            piles.append([i])
            neg_tails.append(-x)
        else:
            piles[pos].append(i)
            neg_tails[pos] = -x
    return [np.array(p) for p in piles]


def decompose_nondecreasing(s) -> Decomposition:
    """Partition into the minimum number of non-decreasing subsequences.

    The part count equals the length of the longest strictly decreasing
    subsequence of ``s``.  Deterministic: ties in the greedy pile choice
    cannot occur because pile tails are pairwise distinct at all times.
    """
    values = _host_values(s)
    parts = tuple(
        Subsequence(p, MonotoneTag.NON_DECREASING)
        for p in _patience_piles(values.tolist())
    )
    return Decomposition(values.shape[0], parts)


def decompose_nonincreasing(s) -> Decomposition:
    """Partition into the minimum number of non-increasing subsequences.

    Mirror of :func:`decompose_nondecreasing`; the part count equals the
    length of the longest strictly increasing subsequence of ``s``.
    """
    values = _host_values(s)
    parts = tuple(
        Subsequence(p, MonotoneTag.NON_INCREASING)
        for p in _patience_piles([-x for x in values.tolist()])
    )
    return Decomposition(values.shape[0], parts)


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
