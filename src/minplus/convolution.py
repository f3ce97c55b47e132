"""(min,+) convolutions for vectors decomposable into few monotone or
few constant-valued subsequences, the quadratic oracle, and the
index-scaled shift that monotonizes arbitrary vector pairs.

Output indexing: for length-n inputs the convolution has length 2n-1 and
c_k = min over valid l of a_l + b_{k-l}, all 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    NO_WITNESS,
    SHIFTED_ENTRY_BOUND,
    BoolVector,
    Decomposition,
    DirectionViolation,
    IntVector,
    LengthMismatch,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    UniformViolation,
    checked_size,
    first_part_breaking,
    fold_min,
    parse_direction,
    validate_decomposition,
)
from .decompose import char_vector
from .fastconv import bool_convolution, conv_extreme_witness

PairHook = Callable[[int, int, np.ndarray, np.ndarray], None]


def _check_same_length(a: IntVector, b: IntVector) -> int:
    if a.n != b.n:
        raise LengthMismatch(f"lengths differ: {a.n} vs {b.n}")
    return a.n


def conv_naive(a: IntVector, b: IntVector) -> MinPlusOutput:
    """Quadratic (min,+) convolution via n shifted minimum passes."""
    n = _check_same_length(a, b)
    out = np.full(2 * n - 1, np.iinfo(np.int64).max, dtype=np.int64)
    for l in range(n):
        np.minimum(out[l : l + n], a.coords[l] + b.coords, out=out[l : l + n])
    return MinPlusOutput(out)


def conv_decomposed(
    a: IntVector,
    dec_a: Decomposition,
    b: IntVector,
    dec_b: Decomposition,
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
    pair_hook: PairHook | None = None,
) -> MinPlusOutput:
    """Exact (min,+) convolution when all parts of one vector are
    non-decreasing and all parts of the other are non-increasing
    (constant parts count as either).

    For a pair of parts, the candidate sums a_l + b_{k-l} over the common
    support are monotone in l: with a the non-decreasing side, b_{k-l}
    moves to earlier, no-smaller values as l grows, so the sum is
    non-decreasing and the minimum witness of the Boolean convolution
    attains the pair minimum.  With the directions swapped the sum is
    non-increasing and the maximum witness wins.  Folding all part pairs
    covers every l.

    ``pair_hook(i, j, values, finite)`` observes the running output after
    each pair.
    """
    n = _check_same_length(a, b)
    validate_decomposition(dec_a, a.coords)
    validate_decomposition(dec_b, b.coords)

    def holds(tag_a: MonotoneTag, tag_b: MonotoneTag) -> bool:
        return (
            first_part_breaking(dec_a, a.coords, tag_a) is None
            and first_part_breaking(dec_b, b.coords, tag_b) is None
        )

    if holds(MonotoneTag.NON_DECREASING, MonotoneTag.NON_INCREASING):
        kind = "min"
    elif holds(MonotoneTag.NON_INCREASING, MonotoneTag.NON_DECREASING):
        kind = "max"
    else:
        raise DirectionViolation(
            "need all parts of a non-decreasing with all parts of b "
            "non-increasing, or vice versa"
        )
    chars_a = [char_vector(p, n) for p in dec_a.parts]
    chars_b = [char_vector(p, n) for p in dec_b.parts]

    c = np.zeros(2 * n - 1, dtype=np.int64)
    finite = np.zeros(2 * n - 1, dtype=bool)
    for i, pa in enumerate(chars_a):
        for j, pb in enumerate(chars_b):
            W = conv_extreme_witness(
                pa, pb, kind, block_size=block_size, counters=counters
            )
            kk = np.flatnonzero(W.values != NO_WITNESS)
            ll = W.values[kk]
            fold_min(c, finite, kk, a.coords[ll] + b.coords[kk - ll])
            if pair_hook is not None:
                pair_hook(i, j, c.copy(), finite.copy())
    return MinPlusOutput(c, finite)


@dataclass(frozen=True)
class GroupPartition:
    """Stable value-sorted order of a vector, cut into consecutive groups
    of at most ``ell`` members each.  Groups are ascending by value; ties
    keep original index order."""

    order: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    ell: int

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @classmethod
    def build(cls, values: np.ndarray, ell: int | None) -> "GroupPartition":
        """Partition ``values``; ``ell`` None picks ceil(sqrt(n))."""
        values = np.asarray(values)
        ell = checked_size(values.size, ell, "group size")
        order = np.argsort(values, kind="stable")
        groups = tuple(
            tuple(int(x) for x in order[t : t + ell])
            for t in range(0, values.size, ell)
        )
        return cls(tuple(int(x) for x in order), groups, ell)


def conv_few_values(
    a: IntVector,
    b: IntVector,
    dec_b: Decomposition,
    *,
    ell: int | None = None,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Exact (min,+) convolution when b decomposes into few
    constant-valued parts; a is arbitrary.

    a's indices are stable-sorted by value and cut into ceil(n/ell)
    groups of at most ell.  For each b part and each group, one Boolean
    convolution marks the outputs reachable from that group; per output k
    the first (smallest-value) group with a hit is scanned for the member
    of smallest value (ties: smallest index) whose mate k-q lies in the
    part, and a_q + b_{k-q} enters the minimum fold.  Within a part the b
    value is constant, so the smallest reachable a value is optimal.
    """
    n = _check_same_length(a, b)
    validate_decomposition(dec_b, b.coords)
    p = first_part_breaking(dec_b, b.coords, MonotoneTag.UNIFORM)
    if p is not None:
        raise UniformViolation(f"part {p + 1} of b is not constant-valued")
    gp = GroupPartition.build(a.coords, ell)
    group_chars = [BoolVector.from_indices(g, n) for g in gp.groups]

    c = np.zeros(2 * n - 1, dtype=np.int64)
    finite = np.zeros(2 * n - 1, dtype=bool)
    for part in dec_b.parts:
        qv = char_vector(part, n)
        dstack = np.stack(
            [
                bool_convolution(gchar, qv, counters=counters).bits
                for gchar in group_chars
            ]
        )
        anyhit = dstack.any(axis=0)
        first = np.argmax(dstack, axis=0)
        for t in range(gp.group_count):
            kk = np.flatnonzero(anyhit & (first == t))
            if kk.size == 0:
                continue
            members = np.array(gp.groups[t])
            diff = kk[:, None] - members[None, :]
            ok = (diff >= 0) & (diff < n)
            hits = np.zeros(ok.shape, dtype=bool)
            hits[ok] = qv.bits[diff[ok]]
            qsel = members[np.argmax(hits, axis=1)]
            fold_min(c, finite, kk, a.coords[qsel] + b.coords[kk - qsel])
    return MinPlusOutput(c, finite)


def shift_transform_vectors(
    a: IntVector, b: IntVector, direction="nondec"
) -> tuple[IntVector, IntVector, int]:
    """Index-scaled shift making both vectors monotone in ``direction``
    while translating the convolution by a known per-index offset.

    With M the maximum absolute coordinate over both inputs, coordinate i
    of each vector gains 2*i*M (0-based; the non-increasing variant
    subtracts).  Every candidate sum a_l + b_{k-l} then moves by exactly
    2*k*M, so the shifted convolution c' satisfies c'_k = c_k + 2*k*M
    (minus for the non-increasing variant).  Returns (a', b', M)."""
    tag = parse_direction(direction)
    n = _check_same_length(a, b)
    M = max(int(np.abs(a.coords).max()), int(np.abs(b.coords).max()))
    if M + 2 * (n - 1) * M > SHIFTED_ENTRY_BOUND:
        raise OverflowError(
            f"shifted coordinates would exceed the magnitude bound "
            f"{SHIFTED_ENTRY_BOUND}"
        )
    shift = (2 * M) * np.arange(n, dtype=np.int64)
    sign = 1 if tag is MonotoneTag.NON_DECREASING else -1
    return (
        IntVector(a.coords + sign * shift, entry_bound=SHIFTED_ENTRY_BOUND),
        IntVector(b.coords + sign * shift, entry_bound=SHIFTED_ENTRY_BOUND),
        M,
    )


def conv_shift_offsets(n: int, M: int, direction="nondec") -> np.ndarray:
    """Per-output offsets 2*k*M (signed by direction) linking the shifted
    convolution to the original: c'_k = c_k + offset_k."""
    tag = parse_direction(direction)
    sign = 1 if tag is MonotoneTag.NON_DECREASING else -1
    return sign * (2 * M) * np.arange(2 * n - 1, dtype=np.int64)
