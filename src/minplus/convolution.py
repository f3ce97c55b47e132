"""(min,+) convolutions for vectors decomposable into few monotone or
few constant-valued subsequences, the quadratic oracle, and the
index-scaled shift that monotonizes arbitrary vector pairs.

Output indexing: for length-n inputs the convolution has length 2n-1 and
c_k = min over valid l of a_l + b_{k-l}, all 0-based.
"""

from __future__ import annotations

import numpy as np

from .core import (
    INT64_MAX,
    NO_WITNESS,
    SHIFTED_ENTRY_BOUND,
    Decomposition,
    DirectionViolation,
    IntVector,
    LengthMismatch,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    UniformViolation,
    checked_size,
    fold_min,
    folded_output,
    parse_direction,
    validate_decomposition,
)
from .fastconv import _CHUNK_ELEMENTS, _lead_ranks, bool_convolution, packed
from .fastconv import conv_extreme_witness, packed_groups, witness_packed


def _check_same_length(a: IntVector, b: IntVector) -> int:
    if a.n != b.n:
        raise LengthMismatch(f"lengths differ: {a.n} vs {b.n}")
    return a.n


def conv_naive(a: IntVector, b: IntVector) -> MinPlusOutput:
    """Quadratic (min,+) convolution via n shifted minimum passes."""
    n = _check_same_length(a, b)
    out = np.full(2 * n - 1, INT64_MAX, dtype=np.int64)
    for l in range(n):
        np.minimum(out[l : l + n], a.coords[l] + b.coords, out=out[l : l + n])
    return MinPlusOutput(out)


def conv_decomposed(
    a: IntVector,
    dec_a: Decomposition,
    b: IntVector,
    dec_b: Decomposition,
    *,
    counters: OpCounters | None = None,
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
    """
    n = _check_same_length(a, b)
    parts_a = validate_decomposition(dec_a, a.coords)
    parts_b = validate_decomposition(dec_b, b.coords)

    ND, NI = MonotoneTag.NON_DECREASING, MonotoneTag.NON_INCREASING
    for kind, tag_a, tag_b in (("min", ND, NI), ("max", NI, ND)):
        if parts_a.holds[tag_a].all() and parts_b.holds[tag_b].all():
            break
    else:
        raise DirectionViolation(
            "need all parts of a non-decreasing with all parts of b "
            "non-increasing, or vice versa"
        )

    ks = np.arange(2 * n - 1)
    c = np.full(2 * n - 1, INT64_MAX, dtype=np.int64)
    qs = [witness_packed(q, "q", kind) for q in parts_b.chars[:, 0]]
    for pv in (witness_packed(p, "p", kind) for p in parts_a.chars[:, 0]):
        for qv in qs:
            W = conv_extreme_witness(pv, qv, kind, counters=counters).values
            # Clipped reads stand in where W is NO_WITNESS; the fold skips them.
            cand = a.coords.take(W, mode="clip") + b.coords.take(ks - W, mode="clip")
            fold_min(c, W != NO_WITNESS, cand)
    return folded_output(c)


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
    groups of at most ell, all packed in one pass.  For each b part and
    each group, one Boolean convolution marks the outputs reachable from
    that group.  Per output k the first (smallest-value) group with a hit
    gives the member of smallest value (ties: smallest index) whose mate
    k-q lies in the part, and a_q + b_{k-q} enters the minimum fold.
    Within a part the b value is constant, so that a value is optimal.
    Group 0, first to reach most outputs, ranks them by its first 64
    members in one word-level pass; the rest gather their group and take
    its first member with a mate.  ``bool_convolution`` ORs a group's
    windows of a part's shift table while ell <= ~10 log2 n; a part with
    fewer than ell set bits is packed as its offsets (the sparser side).
    """
    n = _check_same_length(a, b)
    parts_b = validate_decomposition(dec_b, b.coords)
    bad = np.flatnonzero(~parts_b.holds[MonotoneTag.UNIFORM])
    if bad.size:
        raise UniformViolation(f"part {bad[0] + 1} of b is not constant-valued")
    ell = checked_size(n, ell, "group size")
    order = np.argsort(a.coords, kind="stable")
    groups = packed_groups(order, ell)
    members = np.pad(order, (0, -n % ell)).reshape(-1, ell)  # padding last
    rows = max(1, _CHUNK_ELEMENTS // (2 * ell))  # two int64 (rows, ell) arrays

    c = np.full(2 * n - 1, INT64_MAX, dtype=np.int64)
    qpad = np.zeros(3 * n - 2, dtype=bool)  # q at n-1.., zeros either side
    for q in parts_b.chars[:, 0]:
        part = packed(q, "offsets" if np.count_nonzero(q) < ell else "shifts")
        first = np.zeros(2 * n - 1, dtype=np.int64)
        unset = np.ones(2 * n - 1, dtype=bool)
        for t, group in enumerate(groups):
            new = bool_convolution(group, part, counters=counters).bits & unset
            first[new] = t
            unset ^= new
        rank = _lead_ranks(groups[0], part)
        qsel = members[0].take(rank, mode="clip")
        qpad[n - 1 : 2 * n - 1] = q
        later = np.flatnonzero((first > 0) | (rank == 64) & ~unset)
        for k in np.split(later, range(rows, later.size, rows)):
            m = members[first[k]]
            j = qpad[k[:, None] + (n - 1) - m].argmax(axis=1)
            qsel[k] = m[np.arange(k.size), j]
        fold_min(c, ~unset, a.coords[qsel] + b.coords[q.argmax()])
    return folded_output(c)


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
