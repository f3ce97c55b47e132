"""Boolean matrix product and extreme-witness Boolean matrix product.

The product packs matrix rows into 64-bit words so the inner AND-OR runs
one machine word at a time.  Extreme witnesses reuse that kernel inside a
column-index blocking scheme: the index range is split into contiguous
blocks, block-restricted products locate the first (minimum) or last
(maximum) block holding a witness per entry, and that block's few indices
are then scanned directly.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NO_WITNESS,
    BoolMatrix,
    DimensionMismatch,
    OpCounters,
    WitnessArray,
    checked_size,
)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (m, n) bool array into (m, ceil(n/64)) little-endian words."""
    m, n = bits.shape
    words = max(1, -(-n // 64))
    padded = np.zeros((m, words * 64), dtype=bool)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8, axis=1, bitorder="little")[:, :n].astype(bool)


def _packed_product(p_bits: np.ndarray, q_words: np.ndarray, n: int) -> np.ndarray:
    """Rows of the Boolean product: OR of the packed q-rows selected by each
    p-row.  ``p_bits`` is (n, k) over the same k-range as ``q_words``."""
    out = np.zeros((p_bits.shape[0], q_words.shape[1]), dtype=np.uint64)
    for i in range(p_bits.shape[0]):
        sel = q_words[p_bits[i]]
        if sel.shape[0]:
            out[i] = np.bitwise_or.reduce(sel, axis=0)
    return _unpack_rows(out, n)


def bool_matmul(
    P: BoolMatrix, Q: BoolMatrix, counters: OpCounters | None = None
) -> BoolMatrix:
    """Boolean matrix product: bit (i, j) set iff some k has P[i,k] and
    Q[k,j] both set."""
    if P.n != Q.n:
        raise DimensionMismatch(f"dimensions differ: {P.n} vs {Q.n}")
    bits = _packed_product(P.bits, _pack_rows(Q.bits), P.n)
    if counters is not None:
        counters.bool_products += 1
    return BoolMatrix(bits)


def mat_extreme_witness(
    P: BoolMatrix,
    Q: BoolMatrix,
    kind: str,
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
) -> WitnessArray:
    """Extreme witnesses of the Boolean product of ``P`` and ``Q``.

    Returns, for each entry (i, j) with product bit 1, the least ("min") or
    greatest ("max") 1-based index k with P[i,k] and Q[k,j] both set;
    NO_WITNESS where the bit is 0.  ``block_size`` tunes the blocking
    (default ceil(sqrt(n))); the output is independent of it.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"dimensions differ: {P.n} vs {Q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    n = P.n
    r = checked_size(n, block_size, "block size")
    nblocks = -(-n // r)

    extreme_block = np.full((n, n), -1, dtype=np.int64)
    order = range(nblocks) if kind == "min" else range(nblocks - 1, -1, -1)
    for t in order:
        lo, hi = t * r, min(t * r + r, n)
        if hi - lo == 1:
            prod = P.bits[:, lo : lo + 1] & Q.bits[lo]
        else:
            prod = _packed_product(P.bits[:, lo:hi], _pack_rows(Q.bits[lo:hi]), n)
        fresh = prod & (extreme_block < 0)
        extreme_block[fresh] = t
        if not (extreme_block < 0).any():
            break

    wit = np.full((n, n), NO_WITNESS, dtype=np.int64)
    for t in range(nblocks):
        mask = extreme_block == t
        if not mask.any():
            continue
        lo, hi = t * r, min(t * r + r, n)
        ii, jj = np.nonzero(mask)
        ks = np.arange(lo, hi)
        hits = P.bits[ii[:, None], ks[None, :]] & Q.bits[ks[None, :], jj[:, None]]
        if kind == "min":
            off = np.argmax(hits, axis=1)
        else:
            off = hits.shape[1] - 1 - np.argmax(hits[:, ::-1], axis=1)
        wit[ii, jj] = ks[off] + 1  # witnesses are 1-based
    if counters is not None:
        counters.witness_matrix_calls += 1
    return WitnessArray(wit)
