"""Boolean matrix product and extreme-witness Boolean matrix product.

Both run on dense floating-point GEMMs whose results are exact.  The
Boolean product is one float32 GEMM of the 0/1 matrices: a sum of
non-negative terms is 0 only when every term is 0, so ``> 0`` is the OR
whatever the rounding (and counts below 2**24 are exact in float32).

Extreme witnesses use square-root blocking (Alon, Galil, Margalit and
Naor, FOCS 1992) in one pass: the column indices of P are split into
contiguous blocks, walked in ascending order for "min" and descending
order for "max".  Each block is one float64 GEMM ``(P[:, lo:hi] * w) @
Q[lo:hi]`` in which ``w`` gives each index of the block its own power of
two, the largest at the preferred end.  Entry (i, j) of the result is the
sum of the weights of the block's witnesses for (i, j).  Blocks are at
most 52 indices wide, so that is a sum of distinct powers of two below
2**52 < 2**53: every partial sum is an integer that float64 holds
exactly, in whatever order BLAS adds the terms.  A positive sum says the
block holds a witness, and its top bit (``np.frexp``) names the extreme
one.  Entries are set by the first block that hits them, and the pass
stops once none is left unset; peak memory is a few n x n arrays.
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

#: Widest block one weighted GEMM covers: its weights are 2**0 .. 2**51,
#: so every sum stays below 2**52 and is exact in float64.
_MAX_WIDTH = 52


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
    (default ceil(sqrt(n)), capped at 52); the output is independent of it.
    """
    if P.n != Q.n:
        raise DimensionMismatch(f"dimensions differ: {P.n} vs {Q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    n = P.n
    r = min(checked_size(n, block_size, "block size"), _MAX_WIDTH)
    starts = range(0, n, r)
    # Index lo + k of a block weighs 2**k for "max" and 2**(r-1-k) for
    # "min"; a sum with top bit 2**(e-1) then names index lo + e - 1 or
    # lo + r - e.
    weights = np.ldexp(1.0, np.arange(r))
    if kind == "min":
        weights = weights[::-1]

    wit = np.full((n, n), NO_WITNESS, dtype=np.int64)
    unset = n * n
    for lo in starts if kind == "min" else reversed(starts):
        hi = min(lo + r, n)
        weighted = P.bits[:, lo:hi] * weights[: hi - lo]
        sums = weighted @ Q.bits[lo:hi].astype(np.float64)
        fresh = (sums > 0) & (wit == NO_WITNESS)
        _, top = np.frexp(sums[fresh])
        wit[fresh] = lo + top if kind == "max" else lo + r + 1 - top
        unset -= top.size
        if not unset:
            break
    if counters is not None:
        counters.witness_matrix_calls += 1
    return WitnessArray(wit)
