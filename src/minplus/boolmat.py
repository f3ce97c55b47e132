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
The engine works on row tiles of about ``core._TILE`` entries, so its
scratch stays in L2 and the witness array is its only n x n array.  In
a tile the first block visited is read densely; on planted inputs it
settles almost all entries.  Later blocks are read densely while more
than a quarter of the tile is unset, then only the entries left are
gathered, until none is.
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
    row_tiles,
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
    of it.  Either operand may be a :func:`packed` form.
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

    def named(b: int, bit: np.ndarray, out) -> np.ndarray:
        """Lowest set bits t of block-b words as the 1-based indices
        lo + 1 + t ("min") or n - lo - t ("max"), lo = b*r, into ``out``."""
        if kind == "min":
            return np.add(bit, b * r + 1, out=out)
        return np.subtract(n - b * r, bit, out=out)

    wit = np.empty((n, n), dtype=np.int64)
    flat = wit.reshape(-1)
    tiles = row_tiles(n)
    both = np.empty((tiles[0].stop, n), dtype=np.uint64)
    unset, fresh = np.empty((2, *both.shape), dtype=bool)
    for tile in tiles:
        k = tile.stop - tile.start
        t_both, t_unset, t_fresh, t_wit = both[:k], unset[:k], fresh[:k], wit[tile]
        np.bitwise_and(rows[0, tile, None], cols[0], out=t_both)
        named(0, lowest_set_bit(t_both), t_wit)
        left = np.count_nonzero(np.equal(t_both, 0, out=t_unset))
        b = 1
        # Dense passes while more than a quarter of the tile is unset (with
        # all witnesses in the last block, gathers alone took 4x as long) ...
        while b < len(rows) and 4 * left > k * n:
            np.bitwise_and(rows[b, tile, None], cols[b], out=t_both)
            np.not_equal(t_both, 0, out=t_fresh)
            t_fresh &= t_unset
            bit = lowest_set_bit(t_both[t_fresh])
            t_wit[t_fresh] = named(b, bit, bit)
            t_unset ^= t_fresh
            left -= bit.size
            b += 1
        # ... then gathers of only the entries left.
        at = np.flatnonzero(t_unset) + tile.start * n
        flat[at] = NO_WITNESS
        i, j = np.divmod(at, n)
        for b in range(b, len(rows)):
            if not at.size:
                break
            words = rows[b, i] & cols[b, j]
            hit = words != 0
            flat[at[hit]] = named(b, lowest_set_bit(words[hit]), None)
            at, i, j = at[~hit], i[~hit], j[~hit]
    if counters is not None:
        counters.witness_matrix_calls += 1
    return WitnessArray._adopt(wit)
