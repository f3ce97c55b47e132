"""Boolean matrix product and extreme-witness Boolean matrix product.

The Boolean product is one float32 GEMM of the 0/1 matrices: a sum of
non-negative terms is 0 only when every term is 0, so ``> 0`` is the OR
whatever the rounding (and counts below 2**24 are exact in float32).

Extreme witnesses use blocking (Alon, Galil, Margalit and Naor, FOCS
1992) in one pass over the index blocks, ascending for "min" and
descending for "max", with full 64-bit blocks by default; "min" blocks
start at index 1 and "max" blocks end at n, so either kind starts on a
full block.  Each row of P and column of Q packs its bits of a block (at
most 64 wide) into one uint64 word, the preferred end at bit 0: the
lowest set bit of ``p_i & q_j`` names the extreme witness of (i, j) in
the block.  A solver packs each operand once with :func:`packed` for all
the products it enters; other operands are packed per call.  The witness
array is handed over without a copy.  This runs on one core, not on BLAS
threads, which slowed several-fold while another process held a core.
The first block visited is read densely over all n x n entries, in
place; on planted inputs it settles almost all of them.  Later blocks
gather only the entries still unset, the pass stops once none is left,
and peak memory is a few n x n arrays.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NO_WITNESS,
    BoolMatrix,
    DimensionMismatch,
    OpCounters,
    Packed,
    WitnessArray,
    checked_size,
    lowest_set_bit,
    packed_words,
)

def bool_matmul(
    P: BoolMatrix, Q: BoolMatrix, counters: OpCounters | None = None
) -> BoolMatrix:
    """Boolean matrix product: bit (i, j) set iff some k has P[i,k] and
    Q[k,j] both set."""
    if P.n != Q.n:
        raise DimensionMismatch(f"dimensions differ: {P.n} vs {Q.n}")
    bits = P.bits.astype(np.float32) @ Q.bits.astype(np.float32) > 0
    if counters is not None:
        counters.bool_products += 1
    return BoolMatrix._adopt(bits)


def _block_words(bits: np.ndarray, kind: str, width: int) -> np.ndarray:
    """(blocks, n) uint64 words of the rows of ``bits`` read from the
    preferred end of ``kind``: bit t of word [b, i] is bit b*width + t of
    row i from that end, 0 past the other."""
    n = bits.shape[0]
    bits = bits[:, ::-1] if kind == "max" else bits
    blocks = np.pad(bits, ((0, 0), (0, -n % width))).reshape(n, -1, width)
    words = np.zeros((*blocks.shape[:2], 64), dtype=bool)
    words[:, :, :width] = blocks
    words = np.packbits(words, axis=-1, bitorder="little").view("<u8")
    return np.ascontiguousarray(words[:, :, 0].T)


def packed(bits: np.ndarray, side: str, kind: str) -> Packed:
    """``bits`` packed for :func:`mat_extreme_witness` of ``kind`` at the
    default 64-wide blocks: the words of its rows for the ``"rows"`` side
    (``P``), of its columns for the ``"cols"`` side (``Q``)."""
    words = _block_words(bits if side == "rows" else bits.T, kind, 64)
    return Packed(bits, (kind, 64), words)


def mat_extreme_witness(
    P: BoolMatrix | Packed,
    Q: BoolMatrix | Packed,
    kind: str,
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
) -> WitnessArray:
    """Extreme witnesses of the Boolean product of ``P`` and ``Q``.

    Returns, for each entry (i, j) with product bit 1, the least ("min") or
    greatest ("max") 1-based index k with P[i,k] and Q[k,j] both set;
    NO_WITNESS where the bit is 0.  ``block_size`` tunes the blocking
    (full 64-bit blocks by default, capped at 64); the output is independent
    of it.  The first block visited is read densely; later blocks gather
    only the entries still unset.  Either operand may be a
    :func:`packed` form.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"dimensions differ: {P.n} vs {Q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    n = P.n
    r = 64 if block_size is None else checked_size(n, block_size, "block size")
    r = min(r, 64)  # one uint64 word
    # "max" reads the indices from n down, so its blocks end at n and its
    # first block is full, the mirror of "min".
    rows = packed_words(P, (kind, r), lambda bits: _block_words(bits, kind, r))
    cols = packed_words(Q, (kind, r), lambda bits: _block_words(bits.T, kind, r))

    def named(b: int, bit: np.ndarray) -> np.ndarray:
        """Lowest set bits t of block-b words as the 1-based indices
        lo + 1 + t ("min") or n - lo - t ("max"), lo = b*r, in place."""
        if kind == "min":
            bit += b * r + 1
        else:
            np.subtract(n - b * r, bit, out=bit)
        return bit

    first, *rest = range(rows.shape[0])
    both = np.empty((n, n), dtype=np.uint64)
    np.bitwise_and(rows[first][:, None], cols[first], out=both)
    wit = named(first, lowest_set_bit(both))
    unset = both == 0
    wit[unset] = NO_WITNESS
    left = np.count_nonzero(unset)
    fresh = np.empty((n, n), dtype=bool)
    for b in rest:
        if not left:
            break
        np.bitwise_and(rows[b][:, None], cols[b], out=both)
        np.not_equal(both, 0, out=fresh)
        fresh &= unset
        bit = lowest_set_bit(both[fresh])
        wit[fresh] = named(b, bit)
        unset ^= fresh
        left -= bit.size
    if counters is not None:
        counters.witness_matrix_calls += 1
    return WitnessArray._adopt(wit)
