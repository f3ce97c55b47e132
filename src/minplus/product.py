"""(min,+) matrix products for matrices whose rows/columns decompose into
few monotone or constant-valued subsequences, plus the naive cubic oracle
and the index-scaled shift that makes arbitrary instances monotone.

All algorithms take one decomposition per row of the first factor and one
per column of the second factor, reduce each pair of parts to an extreme
witness (or plain) Boolean matrix product, and fold the witnessed sums
into the output with a per-entry minimum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .boolmat import bool_matmul, mat_extreme_witness
from .core import (
    NO_WITNESS,
    SHIFTED_ENTRY_BOUND,
    AxisParts,
    BoolMatrix,
    Decomposition,
    DimensionMismatch,
    DirectionViolation,
    IntMatrix,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    UniformViolation,
    fold_min,
    parse_direction,
    validate_decomposition,
)


def _check_same_n(A: IntMatrix, B: IntMatrix) -> int:
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")
    return A.n


def _require_tag(parts: AxisParts, tag: MonotoneTag, axis: str, error) -> None:
    """Raise ``error`` naming the first row/column part that breaks ``tag``."""
    bad = np.argwhere(~parts.holds[tag].T)
    if bad.size:
        idx, p = bad[0]
        raise error(f"{axis[:-1]} {idx + 1} part {p + 1} is not {tag.value}")


def _witness_candidates(A: IntMatrix, B: IntMatrix, witvals: np.ndarray):
    """The cells with a witness, and every cell's sum a_{i,k} + b_{k,j} for
    its 1-based witness k (k = 1 where none): arguments for fold_min."""
    n = A.n
    row_starts = np.arange(n)[:, None] * n
    # One index buffer, i*n + k into A and then k*n + j into B: flat
    # gathers, about twice as fast as take_along_axis at n=512.
    flat = np.maximum(witvals, 1) + (row_starts - 1)
    sums = np.take(A.entries, flat)
    flat -= row_starts
    flat *= n
    flat += np.arange(n)
    sums += np.take(B.entries, flat)
    return witvals != NO_WITNESS, sums


def minplus_naive(A: IntMatrix, B: IntMatrix) -> MinPlusOutput:
    """Cubic-time (min,+) product c_{i,j} = min_k a_{i,k} + b_{k,j}."""
    n = _check_same_n(A, B)
    out = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        out[i] = (A.entries[i][:, None] + B.entries).min(axis=0)
    return MinPlusOutput(out)


def minplus_decomposed(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    direction,
    *,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Exact (min,+) product when all row parts of A and column parts of B
    share one direction (constant parts count as either).

    For each of the m_a * m_b (row part, column part) pairs, the extreme
    witnesses of the Boolean product of the characteristic matrices pick,
    per entry, the index achieving the pair-restricted minimum sum: with
    everything non-decreasing in k the sums over the common indices are
    non-decreasing too, so the minimum witness wins; non-increasing parts
    need the maximum witness.  Folding all pairs covers every k exactly
    once.
    """
    tag = parse_direction(direction)
    n = _check_same_n(A, B)
    rows = validate_decomposition(dec_rows, A.entries)
    cols = validate_decomposition(dec_cols, B.entries.T)
    _require_tag(rows, tag, "rows", DirectionViolation)
    _require_tag(cols, tag, "cols", DirectionViolation)
    kind = "min" if tag is MonotoneTag.NON_DECREASING else "max"

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for P in rows.chars:
        for Q in cols.chars:
            W = mat_extreme_witness(
                BoolMatrix(P), BoolMatrix(Q.T), kind, counters=counters
            )
            fold_min(c, finite, *_witness_candidates(A, B, W.values))
    return MinPlusOutput(c, finite)


def minplus_mixed_uniform(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    *,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Exact (min,+) product when A's row parts are monotone in mixed
    directions and B's column parts are constant-valued.

    Per pair both the minimum and the maximum witnesses are computed; each
    row then uses the minimum witness where its part is non-decreasing and
    the maximum witness where it is non-increasing (a constant column part
    contributes a fixed summand, so the extreme index of the row part
    attains the minimum).
    """
    n = _check_same_n(A, B)
    rows = validate_decomposition(dec_rows, A.entries)
    cols = validate_decomposition(dec_cols, B.entries.T)
    _require_tag(cols, MonotoneTag.UNIFORM, "cols", UniformViolation)
    use_min = rows.holds[MonotoneTag.NON_DECREASING]

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for o, Pbits in enumerate(rows.chars):
        for Qbits in cols.chars:
            P, Q = BoolMatrix(Pbits), BoolMatrix(Qbits.T)
            Wmin, Wmax = (
                mat_extreme_witness(P, Q, kind, counters=counters)
                for kind in ("min", "max")
            )
            witvals = np.where(use_min[o][:, None], Wmin.values, Wmax.values)
            fold_min(c, finite, *_witness_candidates(A, B, witvals))
    return MinPlusOutput(c, finite)


def minplus_uniform_mixed(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    *,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Symmetric case: A's row parts constant-valued, B's column parts
    monotone in mixed directions.  Uses the transpose identity: the
    transposed product equals the product of the transposes in reverse
    order, whose factors satisfy the mixed/uniform contract."""
    out = minplus_mixed_uniform(
        B.transpose(), dec_cols, A.transpose(), dec_rows, counters=counters
    )
    return MinPlusOutput(out.values.T, out.finite.T)


def minplus_few_values_product(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    *,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Exact (min,+) product when both A's row parts and B's column parts
    are constant-valued, via c_a * c_b plain Boolean products.

    For the pair (o, r), the Boolean product of the characteristic
    matrices marks the entries (i, j) where some k lies in both parts; the
    candidate value is then the sum of the two constants for that row and
    column."""
    n = _check_same_n(A, B)
    rows = validate_decomposition(dec_rows, A.entries)
    cols = validate_decomposition(dec_cols, B.entries.T)
    _require_tag(rows, MonotoneTag.UNIFORM, "rows", UniformViolation)
    _require_tag(cols, MonotoneTag.UNIFORM, "cols", UniformViolation)

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for o, P in enumerate(rows.chars):
        for r, Q in enumerate(cols.chars):
            D = bool_matmul(BoolMatrix(P), BoolMatrix(Q.T), counters)
            fold_min(c, finite, D.bits, rows.first[o][:, None] + cols.first[r])
    return MinPlusOutput(c, finite)


def shift_transform_matrices(
    A: IntMatrix, B: IntMatrix, direction="nondec"
) -> tuple[IntMatrix, IntMatrix, int]:
    """Index-scaled shift making every row of A' monotone in ``direction``
    and every column of B' monotone the opposite way, while preserving the
    (min,+) product exactly.

    With M the maximum absolute entry over both inputs, entry (i, k) of A
    gains 2*k*M and entry (k, j) of B loses it (k is the 1-based shared
    index), so each candidate sum a_{i,k} + b_{k,j} is unchanged.  Returns
    (A', B', M)."""
    tag = parse_direction(direction)
    n = _check_same_n(A, B)
    M = max(int(np.abs(A.entries).max()), int(np.abs(B.entries).max()))
    if M + 2 * n * M > SHIFTED_ENTRY_BOUND:
        raise OverflowError(
            f"shifted entries would exceed the magnitude bound {SHIFTED_ENTRY_BOUND}"
        )
    shift = (2 * M) * np.arange(1, n + 1, dtype=np.int64)
    sign = 1 if tag is MonotoneTag.NON_DECREASING else -1
    A2 = A.entries + sign * shift[None, :]
    B2 = B.entries - sign * shift[:, None]
    return (
        IntMatrix(A2, entry_bound=SHIFTED_ENTRY_BOUND),
        IntMatrix(B2, entry_bound=SHIFTED_ENTRY_BOUND),
        M,
    )
