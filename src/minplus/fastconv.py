"""Exact integer convolution, Boolean convolution, and extreme-witness
computation for Boolean convolutions.

``bool_convolution`` ORs the denser operand's uint64 words shifted by each
of the k set positions of the other while k * 2n/64 <= _WORD_CUTOFF * n
log2 n (exact, no window); denser pairs run the transform below.

Extreme witnesses come from a capped word scan.  "max" is "min" on both
vectors reversed (l -> n-1-l, k -> 2n-2-k).  p is packed into uint64
words, and the reversed q behind n - 1 zero bits, so that for output k the
64 bits of q lined up with p word w hold q_{k-l} for l in 64w..64w+63 (0
outside the legal window).  Each step ANDs, per unresolved output, its
next p word with that window: the lowest set bit of a nonzero AND is the
least witness, and an output also leaves once past min(k, n - 1).  After
ceil(sqrt(n)) steps, O(n**1.5) word operations, the outputs left go to
square-root blocking (Alon, Galil, Margalit and Naor, FOCS 1992): block
slices of p, transformed in row chunks of about 1 MB, are convolved with q
to find per output the first block holding a witness, and the scan
restarts there, ending within s // 64 + 2 steps for blocks of size s.

The block search, ``int_convolution`` and dense ``bool_convolution`` run on
a float64 FFT of the least 5-smooth length holding the output, rounded with
``np.rint`` (small exact convolutions on a direct kernel), exact inside the
window that ``_check_window`` enforces: inputs are non-negative and
``max(p) * max(q) * min(len(p), len(q)) < CONV_WINDOW < 2**30``.
Equal-length inputs then have ``||p||_2 * ||q||_2 <= max(p) * max(q) * n
< 2**30`` (0/1 block slices ``<= n <= 2**20``), and the error of a float64
FFT convolution of length N is at most a small constant times ``2**-53 *
log2(N) * ||p||_2 * ||q||_2``, about ``2**30 * 2**-53 * 22 < 3e-6``, far
below the 0.5 that rounding tolerates.
"""

from __future__ import annotations

import math

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
    lowest_set_bit,
)

#: Inputs are accepted while max(p) * max(q) * min(len(p), len(q)) stays
#: below this bound, which keeps float64 FFT rounding exact (see above).
CONV_WINDOW = 998244353

#: Below this length the direct summation kernel beats the transform.
_DIRECT_CUTOFF = 512

#: Word kernel cutoff of ``bool_convolution``, fitted on measured times.
_WORD_CUTOFF = 0.3

#: float64 elements per chunk of block transforms in the block search.
_CHUNK_ELEMENTS = 1 << 17

#: The witness scan stops after ceil(_SCAN_CAP * sqrt(n)) steps and leaves
#: the outputs it has not resolved to the block search.
_SCAN_CAP = 1


def _fft_size(out_len: int) -> int:
    """The least 5-smooth length >= out_len; pocketfft is fast on these."""
    best, five = 1 << (out_len - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((out_len - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


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


def _conv_exact(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """Exact convolution of non-negative int64 arrays inside the window."""
    _check_window(pa, qa)
    if max(pa.shape[0], qa.shape[0]) <= _DIRECT_CUTOFF:
        return np.convolve(pa, qa)
    from numpy import fft

    out_len = pa.shape[0] + qa.shape[0] - 1
    size = _fft_size(out_len)
    spectrum = fft.rfft(pa, size) * fft.rfft(qa, size)
    return np.rint(fft.irfft(spectrum, size)[:out_len]).astype(np.int64)


def int_convolution(p: IntVector, q: IntVector) -> IntVector:
    """Exact arithmetic convolution c_i = sum_l p_l * q_{i-l}, length 2n-1.

    Inputs must be non-negative and small enough that every coefficient
    stays inside the exactness window (raises PrecisionWindowExceeded
    otherwise).
    """
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    return IntVector(_conv_exact(p.coords, q.coords))


def bool_convolution(
    p: BoolVector, q: BoolVector, counters: OpCounters | None = None
) -> BoolVector:
    """Boolean convolution: bit k set iff some l has p_l and q_{k-l} set."""
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    n, count = p.n, (2 * p.n + 62) // 64
    sparse, dense = sorted((p.bits, q.bits), key=np.count_nonzero)
    off = n - 1 - np.flatnonzero(sparse)  # copy l: windows as ``_scan`` reads q
    if off.size * count <= _WORD_CUTOFF * n * math.log2(n + 1):
        r = (off & 63).astype(np.uint64)[:, None]
        words = _words(dense, n - 1, (n - 1) // 64 + count + 1)
        g = np.lib.stride_tricks.sliding_window_view(words, count + 1)[off >> 6]
        lo = g[:, :-1] >> r
        lo |= np.left_shift(g[:, 1:], 64 - r, out=g[:, 1:])
        out = np.bitwise_or.reduce(lo, axis=0).view(np.uint8)
        hits = np.unpackbits(out, count=2 * n - 1, bitorder="little").view(bool)
    else:
        hits = _conv_exact(p.bits.astype(np.int64), q.bits.astype(np.int64)) > 0
    if counters is not None:
        counters.bool_convolutions += 1
    return BoolVector(hits)


def _words(bits: np.ndarray, lead: int, count: int) -> np.ndarray:
    """``count`` uint64 words holding ``bits`` from bit ``lead`` on."""
    buf = np.zeros(64 * count, dtype=bool)
    buf[lead : lead + bits.size] = bits
    return np.packbits(buf, bitorder="little").view("<u8")


def _scan(pw, qw, n, ks, pos, steps, wit):
    """Scan outputs ``ks`` from p word ``pos`` on for at most ``steps``
    steps; return the outputs left and the steps run.  A resolved output is
    parked on the zero words ending ``pw`` until the next compaction."""
    parked = pw.size - steps  # pw[parked - 1 - t + t'] is 0 for t' > t
    off = 2 * n - 2 - ks + 64 * pos  # window bit lined up with word pos
    jq, r = off >> 6, (off & 63).astype(np.uint64)
    rl = 64 - r  # numpy shifts by 64 or more give 0, so r = 0 needs no branch
    stop = (np.minimum(ks, n - 1) >> 6) - pos
    t = dead = 0  # dead: resolved since the last compaction
    while t < steps and ks.size:
        a = pw[t:][pos] & ((qw[t:][jq] >> r) | (qw[t + 1 :][jq] << rl))
        h = np.flatnonzero(a)
        wit[ks[h]] = 64 * (pos[h] + t) + lowest_set_bit(a[h])
        pos[h], stop[h] = parked - 1 - t, -1
        dead, t = dead + h.size, t + 1
        # Outputs past their end leave at most 16 steps later.
        if 8 * dead >= ks.size or t % 16 == 0:
            idx = np.flatnonzero(stop >= t)
            ks, pos, jq, r, rl, stop = (x[idx] for x in (ks, pos, jq, r, rl, stop))
            dead = 0
    return ks[stop >= t], t


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
    fallback block search (default ceil(sqrt(n))); the output is
    independent of it.
    """
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    n = p.n
    s = checked_size(n, block_size, "block size")
    pb, qb = (p.bits, q.bits) if kind == "min" else (p.bits[::-1], q.bits[::-1])
    cap, rest = math.ceil(_SCAN_CAP * math.sqrt(n)), s // 64 + 2
    pw = _words(pb, 0, (n + 63) // 64 + 2 * max(cap, rest))
    qw = _words(qb[::-1], n - 1, (2 * n + 126) // 64 + 2 * max(cap, rest))
    wit = np.full(2 * n - 1, NO_WITNESS, dtype=np.int64)
    ks = np.arange(2 * n - 1)
    ks, _ = _scan(pw, qw, n, ks, np.maximum(ks - n + 1, 0) >> 6, cap, wit)
    if ks.size:
        from numpy import fft

        # Block t's slice convolved with q counts the witnesses in block t,
        # shifted by t * s.  Outputs left have none below 64 * (start + cap)
        # (the least start is ks[0]'s), so the search starts at block b0.
        size = _fft_size(s + n - 1)
        q_spectrum = fft.rfft(qb.astype(np.float64), size)
        blocks = np.pad(pb.astype(np.float64), (0, -n % s)).reshape(-1, s)
        rows = max(1, _CHUNK_ELEMENTS // size)
        b0 = 64 * ((max(ks[0] - n + 1, 0) >> 6) + cap) // s
        first = np.full(2 * n - 1, -1, dtype=np.int64)
        for r0 in range(b0, blocks.shape[0], rows):
            chunk = fft.irfft(fft.rfft(blocks[r0 : r0 + rows], size) * q_spectrum, size)
            hit = chunk[:, : s + n - 1] > 0.5
            for t in range(r0, r0 + hit.shape[0]):
                kk = t * s + np.flatnonzero(hit[t - r0])
                first[kk[first[kk] < 0]] = t
        # No witness lies below an output's first block: restart there.
        ks = ks[first[ks] >= 0]
        _scan(pw, qw, n, ks, first[ks] * s >> 6, rest, wit)
    if kind == "max":
        wit = np.where(wit[::-1] >= 0, n - 1 - wit[::-1], NO_WITNESS)
    if counters is not None:
        counters.witness_conv_calls += 1
    return WitnessArray(wit)
