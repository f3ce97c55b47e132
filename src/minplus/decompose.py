"""Decompositions of integer sequences into monotone subsequences.

Provides exact minimum-cardinality decompositions for a single direction
(non-decreasing or non-increasing) or into constant values (uniform), of
a sequence or of each row or column of a matrix, each with its own part
count: :func:`~minplus.core.validate_decomposition` lines them up.
No mode mixes directions: a minimum mixed-direction partition is NP-hard.

The single-direction decompositions are the piles of a greedy scan, as
many as the longest strictly decreasing (increasing) subsequence, so exact
minima.  Element i lands on pile L(i) - 1, L(i) the length of the longest
such subsequence ending at i: pile 0 is the weak prefix-maximum (minimum)
records, pile t the records after t peels; a bisect scan places the rest.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np

from .core import (
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    Subsequence,
    _as_int64,
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
    "uniform": decompose_uniform,
}


def _decompose_each(vectors, mode: str) -> list[Decomposition]:
    """``mode``'s decomposition of each vector; ValueError for unknown modes."""
    if mode not in DECOMPOSE_MODES:
        raise ValueError(f"unknown mode {mode!r}; modes: {', '.join(DECOMPOSE_MODES)}")
    return list(map(DECOMPOSE_MODES[mode], vectors))


def decompose_rows(A: IntMatrix, mode: str) -> list[Decomposition]:
    """One decomposition per row of A.  Modes: the keys of
    :data:`DECOMPOSE_MODES`."""
    return _decompose_each(A.entries, mode)


def decompose_cols(B: IntMatrix, mode: str) -> list[Decomposition]:
    """One decomposition per column of B."""
    return _decompose_each(B.entries.T, mode)
