"""Shared domain types for (min,+) kernels: bounded integer matrices and
vectors, monotone-subsequence decompositions, Boolean characteristic
vectors, witness arrays, and outputs with an explicit +infinity sentinel.

Conventions used throughout the package:

* matrices are square and externally 1-based (entry(i, j) with i, j in 1..n);
  the backing numpy arrays are 0-based,
* vectors are 0-based (coordinates a_0 .. a_{n-1}),
* decomposition part indices are 0-based positions into their host sequence,
* witness indices are 1-based for matrix products and 0-based for
  convolutions, with -1 marking "no witness".

All types are immutable after construction (numpy buffers are marked
read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

#: Magnitude bound for entries of freshly constructed inputs.  Chosen so that
#: index-scaled shifts a + 2*k*M (k <= n <= MAX_DIMENSION, M <= ENTRY_BOUND)
#: stay far inside the 64-bit range.
ENTRY_BOUND = 2**31 - 1

#: Looser magnitude bound applied to shift-transformed matrices/vectors.
#: Any two values below this bound can be added without 64-bit overflow.
SHIFTED_ENTRY_BOUND = 2**62 - 1

#: Dimension cap backing the overflow argument above.
MAX_DIMENSION = 2**20

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Sentinel stored in witness arrays where no witness exists.
NO_WITNESS = -1


class MinPlusError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MinPlusError):
    """Two matrices (or a matrix and a decomposition set) disagree on n."""


class LengthMismatch(MinPlusError):
    """Two vectors (or a vector and a decomposition) disagree on length."""


class OverlapError(MinPlusError):
    """Two parts of a decomposition claim the same host index."""

    def __init__(self, index: int, first_part: int, second_part: int):
        super().__init__(
            f"index {index} appears in parts {first_part} and {second_part}"
        )
        self.index = index
        self.first_part = first_part
        self.second_part = second_part


class CoverageGapError(MinPlusError):
    """A decomposition does not cover every host index."""

    def __init__(self, index: int):
        super().__init__(f"index {index} is not covered by any part")
        self.index = index


class OrderViolation(MinPlusError):
    """A part's values do not satisfy its monotonicity tag."""

    def __init__(self, part: int, position: int, message: str = ""):
        super().__init__(
            message or f"part {part} breaks its order between positions "
            f"{position} and {position + 1}"
        )
        self.part = part
        self.position = position


class DirectionViolation(MinPlusError):
    """A decomposition part does not satisfy the direction an algorithm
    requires."""


class UniformViolation(MinPlusError):
    """A part that must be constant-valued is not."""


class IndexOutOfRange(MinPlusError, IndexError):
    """An index falls outside its sequence, vector or matrix."""


class MonotoneTag(enum.Enum):
    """Direction of a monotone subsequence.

    UNIFORM (all values equal) satisfies both the non-decreasing and the
    non-increasing order, and is accepted wherever either is required.
    """

    NON_DECREASING = "nondec"
    NON_INCREASING = "noninc"
    UNIFORM = "uniform"


def parse_direction(direction) -> MonotoneTag:
    """``"nondec"``/``"noninc"`` (or the tag itself) as a tag.  UNIFORM is
    refused: it fixes neither a witness kind nor a shift sign."""
    tag = direction if isinstance(direction, MonotoneTag) else MonotoneTag(direction)
    if tag is MonotoneTag.UNIFORM:
        raise ValueError("direction must be 'nondec' or 'noninc'")
    return tag


def checked_size(n: int, size: int | None, what: str) -> int:
    """A block or group size in [1, n]; None picks ceil(sqrt(n)).  Floats
    and bools are rejected, not truncated."""
    s = math.isqrt(n - 1) + 1 if size is None else _as_index(size)
    if not 1 <= s <= n:
        raise ValueError(f"{what} {s} outside [1, {n}]")
    return s


def check_dimension(n: int) -> None:
    """Reject a matrix dimension outside [1, MAX_DIMENSION]."""
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension {n} outside [1, {MAX_DIMENSION}]")


def fold_min(c: np.ndarray, hit, cand: np.ndarray) -> None:
    """Fold candidates into a running per-entry minimum, in place: each
    entry of ``c`` where ``hit`` is set becomes the smaller of itself and
    its candidate.  ``c`` starts at INT64_MAX, +infinity until a candidate
    arrives: a sum of two values inside SHIFTED_ENTRY_BOUND is at most
    2**63 - 2, so no candidate equals it, and :func:`folded_output` reads
    the finite mask off ``c`` once, at the end."""
    np.minimum(c, cand, out=c, where=hit)


def folded_output(c: np.ndarray) -> MinPlusOutput:
    """The output of a :func:`fold_min` run: INT64_MAX entries are
    +infinity."""
    finite = c != INT64_MAX
    return MinPlusOutput._adopt(np.where(finite, c, 0), finite)


def lowest_set_bit(words: np.ndarray) -> np.ndarray:
    """Position (0-63) of the lowest set bit of each nonzero uint64 word (63
    for a zero word), as int64; ``words`` is left unchanged.  ``w ^ (w - 1)``
    sets bits 0 up to that position and no other, so it is their count less
    one; the int64 result reuses the buffer of ``w - 1``."""
    mask = words - 1
    mask ^= words
    return np.subtract(np.bitwise_count(mask), 1, out=mask.view(np.int64))


#: Entries per row tile of the matrix pair loop (witness engine, candidate
#: fold): 2**15, so a tile's few uint64/int64 scratch arrays stay in L2.
#: Two fig1 solves at n=512 took 108.5, 105.7 and 110.0 ms at 2**14, 2**15
#: and 2**16 entries, against 134.8 ms with whole n x n arrays (medians of
#: 25, interleaved, on a loaded 2-core host).
_TILE = 2**15


def row_tiles(n: int) -> list[slice]:
    """Row slices of an n x n array, about ``_TILE`` entries (1 to n rows)."""
    h = max(1, min(n, _TILE // n))
    return [slice(lo, min(lo + h, n)) for lo in range(0, n, h)]


def _as_index(i) -> int:
    """``i`` as a Python int; floats and bools are rejected, not truncated."""
    if isinstance(i, bool):
        raise TypeError(f"index must be an integer, got {i!r}")
    return operator.index(i)


_PAST_INT32 = "subsequence index outside the int32 range"


def _index_array(indices) -> np.ndarray:
    """``indices`` as a fresh int64 array.  A 1-D numpy integer array is
    converted whole; anything else goes through ``tuple``, and unless it
    holds only exact ints, through :func:`_as_index` one index at a time,
    so bools and floats are refused, not truncated."""
    if (
        isinstance(indices, np.ndarray)
        and indices.ndim == 1
        and indices.dtype.kind in "iu"
    ):
        if indices.dtype == np.uint64 and indices.size and indices.max() > INT64_MAX:
            raise ValueError(_PAST_INT32)
        return indices.astype(np.int64)
    ix = tuple(indices)
    if not set(map(type, ix)) <= {int}:
        ix = tuple(map(_as_index, ix))
    try:
        return np.array(ix, dtype=np.int64)
    except OverflowError:
        raise ValueError(_PAST_INT32) from None


class _Frozen:
    """Base of the eight domain types below.  No field can be assigned:
    each type's ``__slots__`` are filled once, by ``_adopt``.  Two are
    equal when they have the same type and the same ``_key()``, in which
    an array field counts as its shape and bytes (each slot holds one
    dtype) and any other field as itself.  Copies and pickles go through
    ``_adopt``, so their arrays stay read-only."""

    __slots__ = ()

    @classmethod
    def _adopt(cls, *fields):
        """An instance holding ``fields``, one per slot, as built: arrays are
        made read-only, not copied.  For values the package has just built
        and hands over; the public constructors copy and check what callers
        pass."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self)._adopt, self._values()

    def _key(self) -> tuple:
        return tuple(
            (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in self._values()
        )

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Subsequence(_Frozen):
    """A tagged subsequence of a host sequence, stored as one read-only
    int32 array of 0-based positions, ``positions``: the parts a
    :class:`Decomposition` hands out are views of its ``indices``, made by
    ``_adopt`` from positions known to rise strictly from 0.

    The indices must be strictly increasing and below 2**31; they may come
    as a tuple, a list or a numpy integer array.  ``indices`` reads them
    back as a tuple of ints.  Empty subsequences are legal: a part with no
    positions constrains nothing.
    """

    __slots__ = ("positions", "tag")

    def __new__(cls, indices, tag: MonotoneTag):
        arr = _index_array(indices)
        if arr.size > 1:
            t = (arr[1:] <= arr[:-1]).argmax()  # 0 if every step rises
            if arr[t + 1] <= arr[t]:
                raise ValueError(
                    f"indices not strictly increasing: {arr[t]} !< {arr[t + 1]}"
                )
        if arr.size and arr[0] < 0:
            raise ValueError("negative subsequence index")
        if arr.size and arr[-1] > np.iinfo(np.int32).max:
            raise ValueError(_PAST_INT32)
        return cls._adopt(arr.astype(np.int32), tag)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.positions.tolist())

    def __len__(self) -> int:
        return self.positions.shape[0]

    def __repr__(self) -> str:
        return f"Subsequence(indices={self.indices!r}, tag={self.tag!r})"

    def values(self, host: np.ndarray) -> np.ndarray:
        """Host values read at this subsequence's positions."""
        return host[self.positions]


class Decomposition(_Frozen):
    """Tagged subsequences meant to partition ``{0..host_length-1}``, held
    as one CSR pair: part o is ``indices[indptr[o]:indptr[o + 1]]``
    (read-only int32, each part ascending) with tag ``tags[o]``.  Empty
    parts keep their slot.  ``parts`` hands the parts out as
    :class:`Subsequence` views of ``indices``.

    Construction performs only structural checks so that invalid candidates
    can still be built and then rejected by :func:`validate_decomposition`.
    """

    __slots__ = ("host_length", "indptr", "indices", "tags")

    def __new__(cls, host_length: int, parts):
        parts = tuple(parts)
        indptr = np.cumsum([0, *map(len, parts)], dtype=np.int32)
        indices = np.concatenate([p.positions for p in parts] or [indptr[:0]])
        return cls._adopt(host_length, indptr, indices, [p.tag for p in parts])

    @classmethod
    def _adopt(cls, host_length: int, indptr: np.ndarray, indices: np.ndarray, tags):
        """A decomposition over int32 ``indptr`` and ``indices`` as built,
        each part ascending from 0: made read-only, not copied."""
        host_length = _as_index(host_length)
        if host_length < 1:
            raise ValueError("host_length must be >= 1")
        return super()._adopt(host_length, indptr, indices, tuple(tags))

    @property
    def part_count(self) -> int:
        return len(self.tags)

    @property
    def parts(self) -> tuple[Subsequence, ...]:
        bounds = self.indptr.tolist()
        return tuple(
            Subsequence._adopt(self.indices[a:b], tag)
            for a, b, tag in zip(bounds, bounds[1:], self.tags)
        )

    def __repr__(self) -> str:
        return f"Decomposition(host_length={self.host_length!r}, parts={self.parts!r})"


IntSeq = Union[Sequence[int], np.ndarray]


def _as_int64(values: IntSeq, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    # An empty sequence reads as float64: its fault is its size, not dtype.
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"{what} must hold integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > INT64_MAX:
        raise ValueError(f"{what} holds unsigned values beyond the int64 range")
    return arr.astype(np.int64)


def _as_bits(values, what: str) -> np.ndarray:
    """``values`` as a fresh bool array: bools or 0/1 integers, no
    truthiness."""
    arr = np.asarray(values)
    if arr.size and arr.dtype != bool and (_as_int64(arr, what) & ~1).any():
        raise ValueError(f"{what} holds integers other than 0 and 1")
    return arr.astype(bool)


class _FrozenArrays(_Frozen):
    """Base of the value types below.  Each holds exactly the read-only
    numpy arrays named by its ``__slots__``, and nothing derived from
    them: solvers keep packed forms of their operands in local
    :class:`Packed` tuples.  The first slot is the main array: ``n`` is
    its length, and the accessors check their positions against it."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__slots__
        # The first slot's descriptor under one shared name, read as fast
        # as the subclass's own attribute (``BoolVector.n`` is per-call).
        cls._main = cls.__dict__[cls._fields[0]]

    @property
    def n(self) -> int:
        return self._main.shape[0]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        if len(self._fields) == 1:
            body = repr(self._main.astype(int).tolist())  # bits print as 0/1
        else:
            body = ", ".join(
                f"{name}={a.tolist()!r}"
                for name, a in zip(self._fields, self._values())
            )
        return f"{type(self).__name__}({body})"

    @staticmethod
    def _cell(n: int, first: int, *pos, what: str = "index") -> tuple[int, ...]:
        """0-based offsets of the ``first``-based indices ``pos``, one per
        axis of length n.  A bool or float index is a TypeError, and one
        outside the axis an IndexOutOfRange, never a wrap from the end."""
        pos = tuple(map(_as_index, pos))
        if all(first <= i < n + first for i in pos):
            return tuple(i - first for i in pos)
        span = f"[1, {n}]" if first else f"[0, {n})"
        if len(pos) == 2:
            raise IndexOutOfRange(f"{pos} outside {span}^2")
        raise IndexOutOfRange(f"{what} {pos[0]} outside {span}")


class IntVector(_FrozenArrays):
    """Dense vector of bounded signed integers, 0-based."""

    __slots__ = ("coords",)

    def __new__(cls, coords: IntSeq, *, entry_bound: int = ENTRY_BOUND):
        arr = _as_int64(coords, "vector").copy()
        if arr.ndim != 1:
            raise ValueError("vector input must be one-dimensional")
        n = arr.shape[0]
        if n < 1 or n > MAX_DIMENSION:
            raise ValueError(f"vector length {n} outside [1, {MAX_DIMENSION}]")
        if arr.min() < -entry_bound or arr.max() > entry_bound:
            raise ValueError(
                f"coordinate magnitude exceeds the bound {entry_bound}"
            )
        return cls._adopt(arr)

    def __getitem__(self, i: int) -> int:
        return int(self.coords[self._cell(self.n, 0, i, what="coordinate")])


class IntMatrix(_FrozenArrays):
    """Dense square matrix of bounded signed integers, externally 1-based."""

    __slots__ = ("entries",)

    def __new__(cls, entries: IntSeq, *, entry_bound: int = ENTRY_BOUND):
        arr = _as_int64(entries, "matrix").copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        check_dimension(arr.shape[0])
        if arr.min() < -entry_bound or arr.max() > entry_bound:
            raise ValueError(
                f"entry magnitude exceeds the bound {entry_bound}"
            )
        return cls._adopt(arr)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based row i, column j."""
        return int(self.entries[self._cell(self.n, 1, i, j)])

    def row(self, i: int) -> np.ndarray:
        """Row i (1-based) as a read-only array."""
        return self.entries[self._cell(self.n, 1, i, what="row")]

    def col(self, j: int) -> np.ndarray:
        """Column j (1-based) as a read-only array."""
        return self.entries.T[self._cell(self.n, 1, j, what="column")]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.entries.T, entry_bound=SHIFTED_ENTRY_BOUND)


class BoolVector(_FrozenArrays):
    """Characteristic Boolean vector (one bit per host position)."""

    __slots__ = ("bits",)

    def __new__(cls, bits):
        arr = _as_bits(bits, "bool vector")
        if arr.ndim != 1:
            raise ValueError("bool vector must be one-dimensional")
        return cls._adopt(arr)


class BoolMatrix(_FrozenArrays):
    """Square Boolean matrix."""

    __slots__ = ("bits",)

    def __new__(cls, bits):
        arr = _as_bits(bits, "bool matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"bool matrix must be square, got {arr.shape}")
        return cls._adopt(arr)


class Packed(NamedTuple):
    """A solver's Boolean operand with its ``bits`` packed once into
    ``words`` in one engine ``layout``.  An engine in any other layout
    packs ``bits`` per call, so no output depends on the form passed."""

    bits: np.ndarray
    layout: tuple | str
    words: np.ndarray | tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def packed_words(operand, layout, pack):
    """The words of ``operand`` in ``layout``: a Packed form's own if it was
    packed in that layout, else ``pack(operand.bits)`` for this call."""
    if isinstance(operand, Packed) and operand.layout == layout:
        return operand.words
    return pack(operand.bits)


class WitnessArray(_FrozenArrays):
    """Extreme witnesses for a Boolean product (2-D, 1-based witness values)
    or a Boolean convolution (1-D, 0-based witness values).

    Cells without a witness hold :data:`NO_WITNESS`.
    """

    __slots__ = ("values",)

    def __new__(cls, values: np.ndarray):
        arr = np.asarray(values)
        if arr.ndim not in (1, 2):
            raise ValueError("witness array must be 1-D or 2-D")
        return cls._adopt(_as_int64(arr, "witness array").copy())

    @property
    def defined(self) -> np.ndarray:
        """Boolean mask of cells that have a witness."""
        return self.values != NO_WITNESS

    def get(self, *pos: int):
        """Witness at (i, j) (1-based cell, matrix) or (k,) (convolution);
        None where the product/convolution bit is 0."""
        first = self.values.ndim - 1  # matrix cells are 1-based
        v = self.values[self._cell(self.n, first, *pos, what="coordinate")]
        return None if v == NO_WITNESS else int(v)


class MinPlusOutput(_FrozenArrays):
    """Result of a (min,+) product (2-D) or convolution (1-D).

    Entries are either finite 64-bit integers or +infinity; infinity is a
    mask bit, never an encoded large number, so no arithmetic is ever
    performed on it.  The values under the mask are 0, so equal outputs
    have equal arrays.
    """

    __slots__ = ("values", "finite")

    def __new__(cls, values: np.ndarray, finite: np.ndarray | None = None):
        arr = _as_int64(values, "output").copy()
        fin = np.ones(arr.shape, dtype=bool) if finite is None else finite
        fin = _as_bits(fin, "finiteness mask")
        if fin.shape != arr.shape:
            raise ValueError("values and finiteness mask shapes differ")
        arr[~fin] = 0  # canonical filler under the mask
        return cls._adopt(arr, fin)

    @property
    def is_matrix(self) -> bool:
        return self.values.ndim == 2

    @property
    def all_finite(self) -> bool:
        return bool(self.finite.all())

    def entry(self, i: int, j: int):
        """Matrix entry at 1-based (i, j); None encodes +infinity."""
        if not self.is_matrix:
            raise ValueError("entry() applies to matrix outputs")
        cell = self._cell(self.n, 1, i, j)
        return int(self.values[cell]) if self.finite[cell] else None

    def coord(self, k: int):
        """Convolution coordinate c_k (0-based); None encodes +infinity."""
        if self.is_matrix:
            raise ValueError("coord() applies to vector outputs")
        cell = self._cell(self.n, 0, k, what="coordinate")
        return int(self.values[cell]) if self.finite[cell] else None


@dataclass
class OpCounters:
    """Mutable tally of the expensive calls an algorithm run performs.

    Passed into the (min,+) algorithms by callers that want the cost
    structure (tests, CLI provenance, benchmarks).
    """

    witness_matrix_calls: int = 0
    witness_conv_calls: int = 0
    bool_products: int = 0
    bool_convolutions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class AxisParts:
    """The parts of k validated decompositions of k length-n hosts, each
    filled up with empty parts to the largest part count m, the one place
    part counts are made equal: ``chars[o, t]`` is the characteristic
    vector of part o of decomposition t, ``first[o, t]`` the host value at
    its first index (0 if empty), and ``holds[tag][o, t]`` whether its
    values satisfy ``tag`` (empty parts satisfy every tag)."""

    chars: np.ndarray  # (m, k, n) bool
    first: np.ndarray  # (m, k) int64
    holds: dict[MonotoneTag, np.ndarray]  # (m, k) bool each


#: Position of each tag in the per-tag order checks: nondec, noninc, uniform.
_TAG_ROW = {tag: row for row, tag in enumerate(MonotoneTag)}


def validate_decomposition(
    d: Decomposition | Sequence[Decomposition], host: IntVector | IntSeq
) -> AxisParts:
    """Check that each decomposition partitions its host's positions and
    that every part satisfies its own monotonicity tag; raise on the first
    violation of the first failing decomposition, else return the parts.

    ``d`` is one decomposition with a 1-D host (k = 1), or k decompositions
    with a (k, n) array whose row t is decomposition t's host; one
    vectorized pass checks all k.  n in-range indices per host that cover
    every position form a partition, and a part breaks its tag where a
    step between consecutive values goes the wrong way.

    Raises OverlapError, CoverageGapError, IndexOutOfRange, LengthMismatch,
    OrderViolation (naming the offending part and position), or
    DimensionMismatch for a host array without one row per decomposition.
    """
    if isinstance(d, Decomposition):
        values = host.coords if isinstance(host, IntVector) else _as_int64(host, "host")
        decs, hosts = (d,), values[None, :]
    else:
        decs, hosts = tuple(d), _as_int64(host, "host")
        if hosts.ndim != 2 or hosts.shape[0] != len(decs):
            raise DimensionMismatch(f"{len(decs)} decompositions, hosts {hosts.shape}")
    k, n = hosts.shape
    counts = np.array([dt.part_count for dt in decs], dtype=np.intp)
    m = max(1, int(counts.max(initial=0)))
    # Part o of decomposition t is cell (t, o) of the (k, m) tables.
    real = np.arange(m) < counts[:, None]
    lens, tags = np.zeros((2, k, m), dtype=np.intp)
    # Each decomposition's indptr differences, less the one across the
    # seam to the next decomposition's indptr.
    ends = np.diff(np.concatenate([dt.indptr for dt in decs] or [[0]]))
    lens[real] = np.delete(ends, np.cumsum(counts + 1)[:-1] - 1) if k > 1 else ends
    every_tag = itertools.chain.from_iterable(dt.tags for dt in decs)
    tags[real] = np.fromiter(map(_TAG_ROW.__getitem__, every_tag), np.intp)
    sizes, lens = lens.sum(axis=1), lens.ravel()
    starts = np.cumsum(lens) - lens
    # Index i of part o of decomposition t is cell t*n + i of the hosts
    # and cell (o*k + t)*n + i of the (m, k, n) stack, both int64.
    cells = np.repeat(np.arange(k, dtype=np.int64) * n, sizes)
    index = np.concatenate([dt.indices for dt in decs] or [cells[:0]], dtype=np.int64)
    # A wrong length or an index past the host marks its decomposition bad
    # like a partition or order fault below; such an index is clipped into
    # its row first, so the tables can still be built.
    off = np.array([dt.host_length != n for dt in decs], dtype=bool)
    off[cells[index >= n] // n] = True
    if off.any():
        np.minimum(index, n - 1, out=index)
    cells += index
    del index
    vals = np.take(hosts, cells)
    cells += np.repeat(np.tile(np.arange(m) * (k * n), k), lens)
    chars = np.zeros((m, k, n), dtype=bool)
    chars.reshape(-1)[cells] = True
    del cells

    nonempty = lens > 0
    heads = starts[nonempty]
    first = np.zeros(k * m, dtype=np.int64)
    first[nonempty] = vals[heads]
    # OR each nonempty part's wrong-way steps, minus the one out of its end.
    turns = np.zeros((2, k * m), dtype=bool)
    for w, wrong_way in enumerate((np.less, np.greater)):
        step = np.zeros(vals.size, dtype=bool)
        wrong_way(vals[1:], vals[:-1], out=step[:-1])
        step[heads + lens[nonempty] - 1] = False
        turns[w, nonempty] = np.logical_or.reduceat(step, heads)
    falls, rises = turns.reshape(2, k, m)
    wrong = (falls, rises, falls | rises)  # as in _TAG_ROW

    partition = (sizes == n) & chars.any(axis=0).all(axis=1)
    bad = np.flatnonzero(off | ~partition | np.choose(tags, wrong).any(axis=1))
    if bad.size:
        _raise_first_violation(decs[bad[0]], hosts[bad[0]])
    holds = {tag: ~w.T for tag, w in zip(_TAG_ROW, wrong)}
    return AxisParts(chars, first.reshape(k, m).T, holds)


def _raise_first_violation(d: Decomposition, values: np.ndarray) -> None:
    """Name the first violation of one decomposition known to have one:
    walking its parts in order, the first index out of range or claimed
    by an earlier part, else the first position no part covers, else the
    first part breaking its tag."""
    n = values.shape[0]
    if d.host_length != n:
        raise LengthMismatch(
            f"decomposition is for length {d.host_length}, host has {n}"
        )
    index = d.indices
    part = np.repeat(np.arange(d.part_count), np.diff(d.indptr))
    order = np.argsort(index, kind="stable")
    bad = index >= n
    bad[order[1:]] |= index[order[1:]] == index[order[:-1]]
    if bad.any():
        at = int(bad.argmax())
        i, p = int(index[at]), int(part[at])
        _FrozenArrays._cell(n, 0, i, what=f"part {p} index")
        raise OverlapError(i, int(part[(index == i).argmax()]), p)
    covered = np.zeros(n, dtype=bool)
    covered[index] = True
    if not covered.all():
        raise CoverageGapError(int(covered.argmin()))
    for p, sub in enumerate(d.parts):
        v = sub.values(values)  # neighbours compared, never subtracted
        falls, rises = v[1:] < v[:-1], v[1:] > v[:-1]
        wrong = (falls, rises, falls | rises)[_TAG_ROW[sub.tag]]
        if wrong.any():
            raise OrderViolation(p, int(np.argmax(wrong)))
