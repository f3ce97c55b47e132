"""Exact integer convolution, Boolean convolution, and extreme-witness
computation for Boolean convolutions.

Large convolutions run on a float64 FFT (``numpy.fft.rfft``/``irfft``)
rounded with ``np.rint``; a direct summation kernel handles small ones,
where it is faster.  The rounding is exact inside the precision window
that ``_check_window`` enforces: inputs are non-negative and
``max(p) * max(q) * min(len(p), len(q)) < CONV_WINDOW < 2**30``.  Equal-length
inputs then have ``||p||_2 * ||q||_2 <= max(p) * max(q) * n < 2**30``, and
the 0/1 block slices of the witness search have ``||p||_2 * ||q||_2 <= n
<= 2**20``.  The error of a float64 FFT convolution of length N is at most
a small constant times ``2**-53 * log2(N) * ||p||_2 * ||q||_2``, here about
``2**30 * 2**-53 * 22 < 3e-6``, far below the 0.5 that rounding tolerates.

Extreme witnesses use square-root blocking (Alon, Galil, Margalit and Naor,
FOCS 1992): positions of the first vector are split into contiguous blocks
of size s, each block slice is convolved with the second vector to find,
per output position, the first (minimum) or last (maximum) block containing
a witness, and that block is then scanned directly.  The second vector is
transformed once per call and the blocks are transformed together, in row
chunks that keep the transform scratch near 1 MB.
"""

from __future__ import annotations

import numpy as np

from .core import (
    NO_WITNESS,
    BoolVector,
    IntVector,
    LengthMismatch,
    OpCounters,
    PrecisionWindowExceeded,
    WitnessArray,
    checked_size,
)

#: Inputs are accepted while max(p) * max(q) * min(len(p), len(q)) stays
#: below this bound, which keeps float64 FFT rounding exact (see above).
CONV_WINDOW = 998244353

#: Below this length the direct summation kernel beats the transform.
_DIRECT_CUTOFF = 512

#: float64 elements per chunk of block transforms in the witness search.
_CHUNK_ELEMENTS = 1 << 17


def _fft_size(out_len: int) -> int:
    return 1 << max(1, (out_len - 1).bit_length())


def _conv_fft(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    from numpy import fft

    out_len = pa.shape[0] + qa.shape[0] - 1
    size = _fft_size(out_len)
    spectrum = fft.rfft(pa, size) * fft.rfft(qa, size)
    return np.rint(fft.irfft(spectrum, size)[:out_len]).astype(np.int64)


def _check_window(pa: np.ndarray, qa: np.ndarray) -> None:
    if pa.size == 0 or qa.size == 0:
        return
    if np.any(pa < 0) or np.any(qa < 0):
        raise ValueError("convolution inputs must be non-negative")
    worst = int(pa.max()) * int(qa.max()) * min(pa.shape[0], qa.shape[0])
    if worst >= CONV_WINDOW:
        raise PrecisionWindowExceeded(
            f"coefficient bound {worst} reaches the exactness window {CONV_WINDOW}"
        )


def _conv_exact(pa: np.ndarray, qa: np.ndarray, method: str = "auto") -> np.ndarray:
    """Exact convolution of non-negative int64 arrays inside the window."""
    _check_window(pa, qa)
    if method == "auto":
        method = "direct" if max(pa.shape[0], qa.shape[0]) <= _DIRECT_CUTOFF else "fft"
    if method == "direct":
        return np.convolve(pa, qa)
    if method == "fft":
        return _conv_fft(pa, qa)
    raise ValueError(f"unknown convolution method {method!r}")


def int_convolution(p: IntVector, q: IntVector, *, method: str = "auto") -> IntVector:
    """Exact arithmetic convolution c_i = sum_l p_l * q_{i-l}, length 2n-1.

    Inputs must be non-negative and small enough that every coefficient
    stays inside the exactness window (raises PrecisionWindowExceeded
    otherwise).  ``method`` forces the "fft" or "direct" kernel; "auto"
    picks by size.
    """
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    return IntVector(_conv_exact(p.coords, q.coords, method))


def bool_convolution(
    p: BoolVector, q: BoolVector, counters: OpCounters | None = None
) -> BoolVector:
    """Boolean convolution: bit k set iff some l has p_l and q_{k-l} set."""
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    counts = _conv_exact(p.bits.astype(np.int64), q.bits.astype(np.int64))
    if counters is not None:
        counters.bool_convolutions += 1
    return BoolVector(counts > 0)


def conv_extreme_witness(
    p: BoolVector,
    q: BoolVector,
    kind: str,
    *,
    block_size: int | None = None,
    counters: OpCounters | None = None,
) -> WitnessArray:
    """Extreme witnesses of the Boolean convolution of ``p`` and ``q``.

    Returns, for each k in 0..2n-2 with convolution bit 1, the least
    ("min") or greatest ("max") l in the legal window with p_l and q_{k-l}
    both set; NO_WITNESS where the bit is 0.  ``block_size`` tunes the
    blocking (default ceil(sqrt(n))); the output is independent of it.
    """
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    from numpy import fft

    n = p.n
    s = checked_size(n, block_size, "block size")
    nblocks = -(-n // s)

    # Per output position, the extreme block holding a witness.  Row t of
    # ``blocks`` is the block slice of p; its convolution with q gives the
    # same counts as the full-length masked vector, shifted by t * s.
    size = _fft_size(s + n - 1)
    q_spectrum = fft.rfft(q.bits.astype(np.float64), size)
    blocks = np.zeros(nblocks * s)
    blocks[:n] = p.bits
    blocks = blocks.reshape(nblocks, s)
    rows = max(1, _CHUNK_ELEMENTS // size)
    starts = range(0, nblocks, rows)
    extreme_block = np.full(2 * n - 1, -1, dtype=np.int64)
    for r0 in starts if kind == "min" else reversed(starts):
        chunk = fft.irfft(fft.rfft(blocks[r0 : r0 + rows], size) * q_spectrum, size)
        hit = chunk[:, : s + n - 1] > 0.5
        in_chunk = range(r0, r0 + hit.shape[0])
        for t in in_chunk if kind == "min" else reversed(in_chunk):
            ks = t * s + np.flatnonzero(hit[t - r0])
            fresh = ks[extreme_block[ks] < 0]
            extreme_block[fresh] = t

    wit = np.full(2 * n - 1, NO_WITNESS, dtype=np.int64)
    for t in range(nblocks):
        kk = np.flatnonzero(extreme_block == t)
        if kk.size == 0:
            continue
        lo, hi = t * s, min(t * s + s, n)
        ls = np.arange(lo, hi)
        diff = kk[:, None] - ls[None, :]
        hits = np.zeros(diff.shape, dtype=bool)
        valid = (diff >= 0) & (diff < n)
        hits[valid] = q.bits[diff[valid]]
        hits &= p.bits[ls][None, :]
        if kind == "min":
            off = np.argmax(hits, axis=1)
        else:
            off = hits.shape[1] - 1 - np.argmax(hits[:, ::-1], axis=1)
        wit[kk] = ls[off]
    if counters is not None:
        counters.witness_conv_calls += 1
    return WitnessArray(wit)
