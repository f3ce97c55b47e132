"""Boolean convolution and extreme-witness computation for Boolean
convolutions.

``bool_convolution`` ORs, for each of the k set bits of the sparser operand,
a window of a table of the denser's words shifted by r = 0..63 while
k * 2n/64 <= _WORD_CUTOFF * n log2 n; denser pairs take the transform.  A
solver packs an operand once with :func:`packed` for all the calls it
enters, fig4's groups all at once; other operands are packed per call, the
table in the rows read.  ``_lead_ranks`` ORs such windows in rank order.

Extreme witnesses come from a capped scan.  "max" is "min" on both
vectors reversed (l -> n-1-l, k -> 2n-2-k).  Each operand is packed as
64-bit windows: p's at bits 0..n-1, and the reversed q's behind n - 1
zero bits, so that q's window at index i holds q_{i-j} at bit j (0 for
j > i).  A scan step of output k at bit x ANDs p's window at x with q's
at k - x; while lo = max(k - n + 1, 0) <= x <= min(k, n - 1) both
indices lie in [0, n - 1], every set bit j of the AND is a legal witness
x + j, and the lowest is the least.  The first step, at x = lo, needs no
gathers: for k < n it is p's first window with q's at k; for k >= n
p's at k-n+1 with q's last.  Only the outputs left with legal bits past
those 64 scan on from lo + 64, a handful per planted pair; an output
leaves once resolved or past min(k, n - 1).  After ceil(sqrt(n)) steps in
all, the first one included, O(n**1.5) word operations, the outputs left
go to square-root blocking (Alon, Galil, Margalit and Naor, FOCS 1992):
block slices of p, transformed in row chunks of about 1 MB, are convolved
with q to find per output the first block t holding a witness, and the
scan restarts at bit max(t s, lo), ending within ceil(s/64) steps for
blocks of size s.  A solver packs each operand's windows once with
:func:`witness_packed`, for any block size.

The block search and dense ``bool_convolution`` run on a float64 FFT of
the least 5-smooth length holding the output, rounded with ``np.rint``
(small convolutions on a direct kernel).  Both convolve 0/1 vectors of
length at most n <= 2**20, so ``||p||_2 * ||q||_2 <= n <= 2**20``, and the
error of a float64 FFT convolution of length N is at most a small constant
times ``2**-53 * log2(N) * ||p||_2 * ||q||_2``, about
``2**20 * 2**-53 * 22 < 3e-9``, far below the 0.5 that rounding tolerates.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    NO_WITNESS,
    BoolVector,
    LengthMismatch,
    OpCounters,
    Packed,
    WitnessArray,
    checked_size,
    lowest_set_bit,
    packed_words,
)

#: Up to this length the direct summation kernel beats the transform.  Two
#: sweeps over two random 0/1 vectors of length n (us per call, direct /
#: FFT, numpy 2.4.6 on one Xeon core): n=192 21-22 / 27, n=224 28-34 /
#: 30-39, n=240 31 / 29-42, n=256 36-37 / 28-30, n=512 137-141 / 38-61.
_DIRECT_CUTOFF = 224

#: Word kernel cutoff of ``bool_convolution``, fitted on measured times.
_WORD_CUTOFF = 0.3

#: Elements per chunk: block transforms, and fig4's rank passes and gathers.
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


def _conv_exact(pa: np.ndarray, qa: np.ndarray) -> np.ndarray:
    """Convolution of non-negative int64 arrays, rounded: exact for the
    0/1 arrays this module convolves (see above)."""
    if max(pa.shape[0], qa.shape[0]) <= _DIRECT_CUTOFF:
        return np.convolve(pa, qa)
    from numpy import fft

    out_len = pa.shape[0] + qa.shape[0] - 1
    size = _fft_size(out_len)
    spectrum = fft.rfft(pa, size) * fft.rfft(qa, size)
    return np.rint(fft.irfft(spectrum, size)[:out_len]).astype(np.int64)


def bool_convolution(
    p: BoolVector | Packed, q: BoolVector | Packed, counters: OpCounters | None = None
) -> BoolVector:
    """Boolean convolution: bit k set iff some l has p_l and q_{k-l} set.
    Either operand may be a :func:`packed` form."""
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    n, (kp, kq) = p.n, [  # an "offsets" form holds one column per set bit
        v.words.shape[1] if isinstance(v, Packed) and v.layout == "offsets"
        else np.count_nonzero(v.bits) for v in (p, q)
    ]
    if kp > kq:  # p: the sparser side, whose set bits pick q's windows
        p, q, kp = q, p, kq
    if kp * ((2 * n + 62) // 64) <= _WORD_CUTOFF * n * math.log2(n + 1):
        r, w = packed_words(p, "offsets", _offsets)
        table, r = _windows(q, r)
        out = np.bitwise_or.reduce(table[r, w], axis=0).view(np.uint8)
        hits = np.unpackbits(out, count=2 * n - 1, bitorder="little").view(bool)
    else:
        hits = _conv_exact(p.bits.astype(np.int64), q.bits.astype(np.int64)) > 0
    if counters is not None:
        counters.bool_convolutions += 1
    return BoolVector._adopt(hits)


def packed(bits: np.ndarray, layout: str) -> Packed:
    """``bits`` packed once for the ``bool_convolution`` calls it enters:
    its table of all 64 shifts (``"shifts"``, 24n bytes) as the denser
    operand, or its set-bit offsets (``"offsets"``) as the sparser one."""
    pack = _shift_table if layout == "shifts" else _offsets
    return Packed(bits, layout, pack(bits))


def packed_groups(order: np.ndarray, ell: int) -> list[Packed]:
    """One pass packs ``order``'s groups of ``ell`` as "offsets", in its order."""
    n, offsets = order.size, np.stack(np.divmod(order.size - 1 - order, 64)[::-1])
    bits = np.zeros((-(-n // ell), n), dtype=bool)
    bits[np.arange(n) // ell, order] = True
    return [Packed(row, "offsets", offsets[:, t * ell : (t + 1) * ell])
            for t, row in enumerate(bits)]


def _offsets(bits: np.ndarray) -> np.ndarray:
    """Shift-table rows (r, w) of each set bit l's window, from bit n - 1 - l."""
    return np.stack(np.divmod(bits.size - 1 - np.flatnonzero(bits), 64)[::-1])


def _lead_ranks(lead: Packed, part: BoolVector | Packed) -> np.ndarray:
    """Per output k, the least j < 64 with q_{k - m_j} set over the lead's
    members m_j in order, else min(len(lead), 64): the rows missing k in its
    windows ORed down the rank axis.  Uncounted; all rows cost ell n bits."""
    r, w = lead.words[:, :64]
    table, r = _windows(part, r)
    hits = np.empty(64 * table.shape[-1], dtype=np.min_scalar_type(r.size))
    cols = max(1, _CHUNK_ELEMENTS // (64 * r.size))
    for c in range(0, table.shape[-1], cols):
        acc = np.bitwise_or.accumulate(table[r, w, c : c + cols], axis=0)
        bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
        bits.sum(axis=0, dtype=hits.dtype, out=hits[64 * c : 64 * (c + cols)])
    return r.size - hits[: 2 * part.n - 1]


def _windows(q: BoolVector | Packed, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q's shift table and the rows of shifts ``r`` in it: held, or for ``r`` only."""
    if isinstance(q, Packed) and q.layout == "shifts":
        return q.words, r
    shifts, r = np.unique(r, return_inverse=True)
    return _shift_table(q.bits, shifts), r


def _shift_table(bits: np.ndarray, shifts=range(64)) -> np.ndarray:
    """A (len(shifts), windows, count) view: [i, w] holds the count =
    ceil((2n-1)/64) words from bit 64 w + shifts[i] on of ``bits`` behind
    n - 1 zero bits."""
    n, count = bits.size, (2 * bits.size + 62) // 64
    words = _words(bits, n - 1, (n - 1) // 64 + count + 1)
    r = np.asarray(shifts, dtype=np.uint64)[:, None]
    table = words[:-1] >> r | words[1:] << 64 - r  # a shift by 64 gives 0
    return np.lib.stride_tricks.sliding_window_view(table, count, axis=1)


def _words(bits: np.ndarray, lead: int, count: int) -> np.ndarray:
    """``count`` uint64 words holding ``bits`` from bit ``lead`` on."""
    buf = np.zeros(64 * count, dtype=bool)
    buf[lead : lead + bits.size] = bits
    return np.packbits(buf, bitorder="little").view("<u8")


def _scan(p_windows, q_windows, n, ks, x, steps, wit):
    """Scan outputs ``ks`` from bits ``x`` on, 64 bits a step for at most
    ``steps`` steps, writing their witnesses into ``wit``; return the
    outputs left.  Callers have shown that no witness of k lies below its
    x and that x <= min(k, n - 1); an output leaves once resolved or past
    that."""
    for _ in range(steps):
        if not ks.size:
            break
        d = ks - x
        a = p_windows[x] & q_windows[d]
        h = np.flatnonzero(a)
        wit[ks[h]] = x[h] + lowest_set_bit(a[h])
        keep = (a == 0) & (d >= 64) & (x < n - 64)  # legal bits past x + 63
        ks, x = ks[keep], x[keep] + 64
    return ks


def _bit_windows(words: np.ndarray, x0: int, x1: int) -> np.ndarray:
    """The 64-bit windows of ``words`` at bits x0..x1-1, in offset order:
    all 64 shifts of the words holding them, flattened."""
    j0, j1 = x0 >> 6, (x1 - 1) >> 6
    r = np.arange(64, dtype=np.uint64)
    table = words[j0 : j1 + 1, None] >> r | words[j0 + 1 : j1 + 2, None] << 64 - r
    return table.reshape(-1)[x0 - 64 * j0 : x1 - 64 * j0]


def _witness_pack(bits: np.ndarray, side: str, kind: str) -> np.ndarray:
    """``bits``' 64-bit windows as the witness engine reads side "p" or "q"
    of ``kind``.  p's windows start at bits 0..n-1; q's, reversed behind
    n - 1 zero bits, at bits 2n-2 down to n-1, so that q's window at index
    i holds q_{i-j} at bit j (0 for j > i)."""
    n = bits.size
    bits = bits[::-1] if kind == "max" else bits
    if side == "p":
        return _bit_windows(_words(bits, 0, (n + 127) // 64), 0, n)
    words = _words(bits[::-1], n - 1, (2 * n + 126) // 64)
    return _bit_windows(words, n - 1, 2 * n - 1)[::-1]


def witness_packed(bits: np.ndarray, side: str, kind: str) -> Packed:
    """``bits`` packed once for the :func:`conv_extreme_witness` calls of
    ``kind`` it enters as ``side`` "p" or "q", at any block size."""
    return Packed(bits, (side, kind), _witness_pack(bits, side, kind))


def conv_extreme_witness(
    p: BoolVector | Packed,
    q: BoolVector | Packed,
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
    independent of it.  Either operand may be a :func:`witness_packed`
    form of its side.
    """
    if p.n != q.n:
        raise LengthMismatch(f"vector lengths differ: {p.n} vs {q.n}")
    if kind not in ("min", "max"):
        raise ValueError(f"witness kind must be 'min' or 'max', got {kind!r}")
    n = p.n
    s = checked_size(n, block_size, "block size")
    cap = math.ceil(_SCAN_CAP * math.sqrt(n))
    lp, lq = ("p", kind), ("q", kind)
    p_windows = packed_words(p, lp, lambda bits: _witness_pack(bits, *lp))
    q_windows = packed_words(q, lq, lambda bits: _witness_pack(bits, *lq))
    lo = np.maximum(np.arange(1 - n, n), 0)  # each output's first legal l
    if cap:
        # First step: each output's 64 legal bits from lo on.
        a = np.concatenate((p_windows[0] & q_windows, p_windows[1:] & q_windows[-1]))
        wit = np.where(a != 0, lo + lowest_set_bit(a), NO_WITNESS)
        # Outputs 64..2n-66 have legal bits past those; the ones with no
        # witness yet scan on from lo + 64, within the cap.
        ks = 64 + np.flatnonzero(a[64 : 2 * n - 65] == 0)
        ks = _scan(p_windows, q_windows, n, ks, lo[ks] + 64, cap - 1, wit)
    else:
        wit = np.full(2 * n - 1, NO_WITNESS, dtype=np.int64)
        ks = np.arange(2 * n - 1)
    if ks.size:
        from numpy import fft

        pb, qb = (p.bits, q.bits) if kind == "min" else (p.bits[::-1], q.bits[::-1])
        # Block t's slice convolved with q counts the witnesses in block t,
        # shifted by t * s.  Outputs left have none below lo + 64 * cap
        # (the least lo is ks[0]'s), so the search starts at block b0.
        size = _fft_size(s + n - 1)
        q_spectrum = fft.rfft(qb.astype(np.float64), size)
        blocks = np.pad(pb.astype(np.float64), (0, -n % s)).reshape(-1, s)
        rows = max(1, _CHUNK_ELEMENTS // size)
        b0 = (lo[ks[0]] + 64 * cap) // s
        first = np.full(2 * n - 1, -1, dtype=np.int64)
        for r0 in range(b0, blocks.shape[0], rows):
            chunk = fft.irfft(fft.rfft(blocks[r0 : r0 + rows], size) * q_spectrum, size)
            hit = chunk[:, : s + n - 1] > 0.5
            for t in range(r0, r0 + hit.shape[0]):
                kk = t * s + np.flatnonzero(hit[t - r0])
                first[kk[first[kk] < 0]] = t
        # No witness lies below an output's first block, and its least one
        # lies in that block's s bits from max(first * s, lo) on.
        ks = ks[first[ks] >= 0]
        x = np.maximum(first[ks] * s, lo[ks])
        _scan(p_windows, q_windows, n, ks, x, -(-s // 64), wit)
    if kind == "max":
        wit = np.where(wit[::-1] >= 0, n - 1 - wit[::-1], NO_WITNESS)
    if counters is not None:
        counters.witness_conv_calls += 1
    return WitnessArray._adopt(wit)
