"""(min,+) matrix products for matrices whose rows/columns decompose into
few monotone or constant-valued subsequences, plus the naive cubic oracle
and the index-scaled shift that makes arbitrary instances monotone.

All algorithms take one decomposition per row of the first factor and one
per column of the second factor, reduce each pair of parts to an extreme
witness (or plain) Boolean matrix product, and fold the witnessed sums
into the output with a per-entry minimum.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .boolmat import bool_matmul, mat_extreme_witness
from .core import (
    NO_WITNESS,
    SHIFTED_ENTRY_BOUND,
    BoolMatrix,
    Decomposition,
    DimensionMismatch,
    DirectionViolation,
    IntMatrix,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    UniformViolation,
    first_part_breaking,
    fold_min,
    parse_direction,
    validate_decomposition,
    values_satisfy,
)
from .decompose import pad_decompositions

PairHook = Callable[[int, int, np.ndarray, np.ndarray], None]


def _check_same_n(A: IntMatrix, B: IntMatrix) -> int:
    if A.n != B.n:
        raise DimensionMismatch(f"dimensions differ: {A.n} vs {B.n}")
    return A.n


def _axis_values(M: IntMatrix, axis: str, idx: int) -> np.ndarray:
    return M.entries[idx] if axis == "rows" else M.entries[:, idx]


def _validate_axis_decs(
    M: IntMatrix, decs: Sequence[Decomposition], axis: str
) -> None:
    if len(decs) != M.n:
        raise DimensionMismatch(
            f"need one decomposition per {axis[:-1]}, got {len(decs)} for n={M.n}"
        )
    for idx in range(M.n):
        validate_decomposition(decs[idx], _axis_values(M, axis, idx))


def _check_axis_parts(
    M: IntMatrix,
    decs: Sequence[Decomposition],
    axis: str,
    tag: MonotoneTag,
    error: type[Exception],
) -> None:
    """Raise ``error`` naming the first row/column part that breaks ``tag``."""
    for idx, d in enumerate(decs):
        p = first_part_breaking(d, _axis_values(M, axis, idx), tag)
        if p is not None:
            raise error(f"{axis[:-1]} {idx + 1} part {p + 1} is not {tag.value}")


def _char_stack_rows(decs: Sequence[Decomposition], n: int, m: int) -> np.ndarray:
    """(m, n, n) bool; slice o is the matrix whose row i is the
    characteristic vector of part o of row i's decomposition."""
    out = np.zeros((m, n, n), dtype=bool)
    for i, d in enumerate(decs):
        for o, part in enumerate(d.parts):
            if part.indices:
                out[o, i, list(part.indices)] = True
    return out


def _char_stack_cols(decs: Sequence[Decomposition], n: int, m: int) -> np.ndarray:
    """(m, n, n) bool; slice r is the matrix whose column j is the
    characteristic vector of part r of column j's decomposition."""
    out = np.zeros((m, n, n), dtype=bool)
    for j, d in enumerate(decs):
        for r, part in enumerate(d.parts):
            if part.indices:
                out[r, list(part.indices), j] = True
    return out


def _witnessed_sums(Ae: np.ndarray, Be: np.ndarray, witvals: np.ndarray):
    """The witnessed cells (i, j) and their sums a_{i,k} + b_{k,j}, with k
    the 1-based witness value; arguments for :func:`fold_min`."""
    ii, jj = np.nonzero(witvals != NO_WITNESS)
    kk = witvals[ii, jj] - 1
    return (ii, jj), Ae[ii, kk] + Be[kk, jj]


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
    block_size: int | None = None,
    counters: OpCounters | None = None,
    pair_hook: PairHook | None = None,
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

    ``pair_hook(o, r, values, finite)`` observes the running output after
    each pair.
    """
    tag = parse_direction(direction)
    n = _check_same_n(A, B)
    _validate_axis_decs(A, dec_rows, "rows")
    _validate_axis_decs(B, dec_cols, "cols")
    _check_axis_parts(A, dec_rows, "rows", tag, DirectionViolation)
    _check_axis_parts(B, dec_cols, "cols", tag, DirectionViolation)
    rows, m_a = pad_decompositions(dec_rows)
    cols, m_b = pad_decompositions(dec_cols)
    Ao = _char_stack_rows(rows, n, m_a)
    Br = _char_stack_cols(cols, n, m_b)
    kind = "min" if tag is MonotoneTag.NON_DECREASING else "max"

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for o in range(m_a):
        for r in range(m_b):
            W = mat_extreme_witness(
                BoolMatrix(Ao[o]),
                BoolMatrix(Br[r]),
                kind,
                block_size=block_size,
                counters=counters,
            )
            fold_min(c, finite, *_witnessed_sums(A.entries, B.entries, W.values))
            if pair_hook is not None:
                pair_hook(o, r, c.copy(), finite.copy())
    return MinPlusOutput(c, finite)


def minplus_mixed_uniform(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
    pair_hook: PairHook | None = None,
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
    _validate_axis_decs(A, dec_rows, "rows")
    _validate_axis_decs(B, dec_cols, "cols")
    _check_axis_parts(B, dec_cols, "cols", MonotoneTag.UNIFORM, UniformViolation)
    rows, m_a = pad_decompositions(dec_rows)
    cols, m_b = pad_decompositions(dec_cols)
    Ao = _char_stack_rows(rows, n, m_a)
    Br = _char_stack_cols(cols, n, m_b)

    use_min = np.zeros((m_a, n), dtype=bool)
    for i, d in enumerate(rows):
        for o, part in enumerate(d.parts):
            use_min[o, i] = values_satisfy(
                A.entries[i][list(part.indices)], MonotoneTag.NON_DECREASING
            )

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for o in range(m_a):
        for r in range(m_b):
            P, Q = BoolMatrix(Ao[o]), BoolMatrix(Br[r])
            Wmin, Wmax = (
                mat_extreme_witness(
                    P, Q, kind, block_size=block_size, counters=counters
                )
                for kind in ("min", "max")
            )
            witvals = np.where(use_min[o][:, None], Wmin.values, Wmax.values)
            fold_min(c, finite, *_witnessed_sums(A.entries, B.entries, witvals))
            if pair_hook is not None:
                pair_hook(o, r, c.copy(), finite.copy())
    return MinPlusOutput(c, finite)


def minplus_uniform_mixed(
    A: IntMatrix,
    dec_rows: Sequence[Decomposition],
    B: IntMatrix,
    dec_cols: Sequence[Decomposition],
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
) -> MinPlusOutput:
    """Symmetric case: A's row parts constant-valued, B's column parts
    monotone in mixed directions.  Uses the transpose identity: the
    transposed product equals the product of the transposes in reverse
    order, whose factors satisfy the mixed/uniform contract."""
    out = minplus_mixed_uniform(
        B.transpose(),
        dec_cols,
        A.transpose(),
        dec_rows,
        block_size=block_size,
        counters=counters,
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
    _validate_axis_decs(A, dec_rows, "rows")
    _validate_axis_decs(B, dec_cols, "cols")
    _check_axis_parts(A, dec_rows, "rows", MonotoneTag.UNIFORM, UniformViolation)
    _check_axis_parts(B, dec_cols, "cols", MonotoneTag.UNIFORM, UniformViolation)
    rows, c_a = pad_decompositions(dec_rows)
    cols, c_b = pad_decompositions(dec_cols)
    Ao = _char_stack_rows(rows, n, c_a)
    Br = _char_stack_cols(cols, n, c_b)

    uval = np.zeros((c_a, n), dtype=np.int64)
    for i, d in enumerate(rows):
        for o, part in enumerate(d.parts):
            if part.indices:
                uval[o, i] = A.entries[i, part.indices[0]]
    vval = np.zeros((c_b, n), dtype=np.int64)
    for j, d in enumerate(cols):
        for r, part in enumerate(d.parts):
            if part.indices:
                vval[r, j] = B.entries[part.indices[0], j]

    c = np.zeros((n, n), dtype=np.int64)
    finite = np.zeros((n, n), dtype=bool)
    for o in range(c_a):
        for r in range(c_b):
            D = bool_matmul(BoolMatrix(Ao[o]), BoolMatrix(Br[r]), counters)
            ii, jj = np.nonzero(D.bits)
            fold_min(c, finite, (ii, jj), uval[o, ii] + vval[r, jj])
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
