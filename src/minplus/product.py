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

from .boolmat import bool_matmul, mat_extreme_witness, packed
from .core import (
    INT64_MAX,
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
    folded_output,
    parse_direction,
    row_tiles,
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


class _WitnessSums:
    """Folds candidate sums a_{i,k} + b_{k,j} at each entry's 1-based
    witness k into the running minimum, one row tile at a time, through
    tile-sized index, part, sums and hit buffers made once per solve."""

    def __init__(self, A: IntMatrix, B: IntMatrix):
        n = A.n
        self.n, self.a, self.b = n, A.entries.ravel(), B.entries.ravel()
        self.tiles = row_tiles(n)
        h = self.tiles[0].stop
        # Flat gathers, about twice as fast as take_along_axis at n=512:
        # (k - 1)*n + j indexes b_{k,j}, and i*n + k - 1 indexes a_{i,k}
        # in the tile's rows of a, i counted from the tile's first row.
        # The bases are tile-sized: a broadcast add took twice as long.
        self.col_base = np.tile(np.arange(-n, 0), (h, 1))
        self.row_base = np.repeat(np.arange(-1, h * n - 1, n), n).reshape(h, n)
        self.bufs = np.empty((3, h, n), dtype=np.int64)  # index, part, sums
        self.hit = np.empty((h, n), dtype=bool)

    def __call__(self, wit: np.ndarray, c: np.ndarray) -> None:
        """Fold the sums for witnesses ``wit`` into ``c``.  An entry without
        one reads clipped indices, so its sum is of two in-range entries and
        masked off."""
        n = self.n
        for tile in self.tiles:
            k = tile.stop - tile.start
            w, (index, part, sums) = wit[tile], self.bufs[:, :k]
            np.multiply(w, n, out=index)
            index += self.col_base[:k]
            np.take(self.b, index, out=part, mode="clip")
            np.add(w, self.row_base[:k], out=index)
            a = self.a[tile.start * n : tile.stop * n]
            np.take(a, index, out=sums, mode="clip")
            sums += part
            fold_min(c[tile], np.not_equal(w, NO_WITNESS, out=self.hit[:k]), sums)


def _fold_pairs(n: int, rows: AxisParts, cols: AxisParts, pack, pair) -> MinPlusOutput:
    """The pair loop of every matrix solver.  Each row part's and each
    column part's characteristic matrix is built and packed once, as
    ``pack(M, "rows")`` or ``pack(M, "cols")``; for row part o and column
    part r, ``pair(o, P, r, Q, c)`` folds the pair's candidate sums into
    the running minimum ``c`` with fold_min.
    """
    Ps = [pack(P, "rows") for P in rows.chars]
    Qs = [pack(Q.T, "cols") for Q in cols.chars]
    c = np.full((n, n), INT64_MAX, dtype=np.int64)
    for o, P in enumerate(Ps):
        for r, Q in enumerate(Qs):
            pair(o, P, r, Q, c)
    return folded_output(c)


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
    witness_sums = _WitnessSums(A, B)

    def pair(o, P, r, Q, c):
        witness_sums(mat_extreme_witness(P, Q, kind, counters=counters).values, c)

    return _fold_pairs(n, rows, cols, lambda M, side: packed(M, side, kind), pair)


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
    witness_sums = _WitnessSums(A, B)
    wit = np.empty((n, n), dtype=np.int64)

    def pack(M, side):
        return {kind: packed(M, side, kind) for kind in ("min", "max")}

    def pair(o, P, r, Q, c):
        # Each row's min or max witnesses are gathered in ``wit``.
        for kind, picked in (("min", use_min[o]), ("max", ~use_min[o])):
            W = mat_extreme_witness(P[kind], Q[kind], kind, counters=counters)
            np.copyto(wit, W.values, where=picked[:, None])
            del W  # before the next engine call
        witness_sums(wit, c)

    return _fold_pairs(n, rows, cols, pack, pair)


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

    tiles = row_tiles(n)
    sums = np.empty((tiles[0].stop, n), dtype=np.int64)

    def pair(o, P, r, Q, c):
        D = bool_matmul(P, Q, counters)
        for tile in tiles:
            t_sums = sums[: tile.stop - tile.start]
            np.add(rows.first[o][tile, None], cols.first[r], out=t_sums)
            fold_min(c[tile], D.bits[tile], t_sums)

    return _fold_pairs(n, rows, cols, lambda M, side: BoolMatrix._adopt(M), pair)


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
