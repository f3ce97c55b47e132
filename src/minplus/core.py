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
from typing import Iterable, Sequence, Union

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


class PrecisionWindowExceeded(MinPlusError):
    """Convolution inputs too large for the exact transform window."""


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


def fold_min(c: np.ndarray, finite: np.ndarray, hit, cand: np.ndarray) -> None:
    """Fold full-shape candidates into a running per-entry minimum: each
    entry where ``hit`` is set becomes the smaller of its value and its
    candidate, or the candidate if it was still +infinity."""
    np.copyto(c, cand, where=hit & (~finite | (cand < c)))
    finite |= hit


def lowest_set_bit(words: np.ndarray) -> np.ndarray:
    """Position (0-63) of the lowest set bit of each nonzero uint64 word
    (-1023 for a zero word), overwriting ``words`` with that bit ``w & -w``.
    It is a power of two below 2**64, which float64 holds exactly, so the
    position is its exponent field less the bias; one int64 array is made."""
    pos = np.negative(words)
    words &= pos
    np.copyto(pos.view(np.float64), words, casting="unsafe")
    pos = pos.view(np.int64)
    pos >>= 52
    pos -= 1023
    return pos


def _wrong_steps(values: np.ndarray, tag: MonotoneTag) -> np.ndarray:
    """Whether each step between neighbouring values breaks ``tag``."""
    # Neighbours are compared, not subtracted, so no difference can wrap.
    values = np.asarray(values)
    before, after = values[:-1], values[1:]
    if tag is MonotoneTag.NON_DECREASING:
        return after < before
    if tag is MonotoneTag.NON_INCREASING:
        return after > before
    return after != before


def values_satisfy(values: np.ndarray, tag: MonotoneTag) -> bool:
    """Whether a value sequence satisfies the (weak) order of ``tag``."""
    return not _wrong_steps(values, tag).any()


def _as_index(i) -> int:
    """``i`` as a Python int; floats and bools are rejected, not truncated."""
    if isinstance(i, bool):
        raise TypeError(f"index must be an integer, got {i!r}")
    return operator.index(i)


@dataclass(frozen=True)
class Subsequence:
    """A tagged subsequence of a host sequence, stored as 0-based positions.

    ``indices`` must be strictly increasing.  Empty subsequences are legal;
    they are used to pad decompositions to a common part count.
    """

    indices: tuple[int, ...]
    tag: MonotoneTag

    def __post_init__(self):
        ix = tuple(self.indices)
        # Exact ints pass whole; anything else (bools, floats, numpy
        # scalars) is converted or refused one index at a time.
        if not set(map(type, ix)) <= {int}:
            ix = tuple(map(_as_index, ix))
        object.__setattr__(self, "indices", ix)
        if not all(map(operator.lt, ix, ix[1:])):
            a, b = next((a, b) for a, b in zip(ix, ix[1:]) if b <= a)
            raise ValueError(f"indices not strictly increasing: {a} !< {b}")
        if ix and ix[0] < 0:
            raise ValueError("negative subsequence index")

    def __len__(self) -> int:
        return len(self.indices)

    def values(self, host: np.ndarray) -> np.ndarray:
        """Host values read at this subsequence's positions."""
        return host[list(self.indices)]


@dataclass(frozen=True)
class Decomposition:
    """A list of tagged subsequences meant to partition ``{0..host_length-1}``.

    Construction performs only structural checks so that invalid candidates
    can still be built and then rejected by :func:`validate_decomposition`.
    """

    host_length: int
    parts: tuple[Subsequence, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.host_length < 1:
            raise ValueError("host_length must be >= 1")

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def padded(self, count: int) -> "Decomposition":
        """Copy with empty UNIFORM parts appended up to ``count`` parts."""
        if count < self.part_count:
            raise ValueError(
                f"cannot pad {self.part_count} parts down to {count}"
            )
        extra = tuple(
            Subsequence((), MonotoneTag.UNIFORM)
            for _ in range(count - self.part_count)
        )
        return Decomposition(self.host_length, self.parts + extra)


IntSeq = Union[Sequence[int], np.ndarray]


def _as_int64(values: IntSeq, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype == np.int64:
        return arr
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{what} must hold integers, got dtype {arr.dtype}")
    if arr.dtype.kind == "u" and arr.size and arr.max() > INT64_MAX:
        raise ValueError(f"{what} holds unsigned values beyond the int64 range")
    return arr.astype(np.int64)


class _FrozenArrays:
    """Base of the value types below.  Each holds the read-only numpy
    arrays named by its ``__slots__`` and nothing else, so two of them are
    equal when they have the same type and equal arrays.  The first slot
    is the main array: ``n`` is its length, and the accessors check their
    positions against it."""

    __slots__ = ()

    def __init_subclass__(cls):
        # The first slot's descriptor under one shared name, read as fast
        # as the subclass's own attribute (``BoolVector.n`` is per-call).
        cls._main = cls.__dict__[cls.__slots__[0]]

    @property
    def n(self) -> int:
        return self._main.shape[0]

    def __len__(self) -> int:
        return self.n

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            map(np.array_equal, self._arrays(), other._arrays())
        )

    def __hash__(self):
        return hash(tuple((a.shape, a.tobytes()) for a in self._arrays()))

    def __repr__(self) -> str:
        if len(self.__slots__) == 1:
            body = repr(self._main.astype(int).tolist())  # bits print as 0/1
        else:
            body = ", ".join(
                f"{name}={a.tolist()!r}"
                for name, a in zip(self.__slots__, self._arrays())
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

    def __init__(self, coords: IntSeq, *, entry_bound: int = ENTRY_BOUND):
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
        arr.setflags(write=False)
        self.coords = arr

    def __getitem__(self, i: int) -> int:
        return int(self.coords[self._cell(self.n, 0, i, what="coordinate")])


class IntMatrix(_FrozenArrays):
    """Dense square matrix of bounded signed integers, externally 1-based."""

    __slots__ = ("entries",)

    def __init__(self, entries: IntSeq, *, entry_bound: int = ENTRY_BOUND):
        arr = _as_int64(entries, "matrix").copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        check_dimension(arr.shape[0])
        if arr.min() < -entry_bound or arr.max() > entry_bound:
            raise ValueError(
                f"entry magnitude exceeds the bound {entry_bound}"
            )
        arr.setflags(write=False)
        self.entries = arr

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

    def __init__(self, bits):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("bool vector must be one-dimensional")
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def from_indices(cls, indices: Iterable[int], n: int) -> "BoolVector":
        bits = np.zeros(n, dtype=bool)
        for i in indices:
            bits[cls._cell(n, 0, i)] = True
        return cls(bits)

    def indices(self) -> tuple[int, ...]:
        """Positions of the set bits, ascending."""
        return tuple(int(i) for i in np.flatnonzero(self.bits))


class BoolMatrix(_FrozenArrays):
    """Square Boolean matrix."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"bool matrix must be square, got {arr.shape}")
        arr.setflags(write=False)
        self.bits = arr


class WitnessArray(_FrozenArrays):
    """Extreme witnesses for a Boolean product (2-D, 1-based witness values)
    or a Boolean convolution (1-D, 0-based witness values).

    Cells without a witness hold :data:`NO_WITNESS`.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=np.int64).copy()
        if arr.ndim not in (1, 2):
            raise ValueError("witness array must be 1-D or 2-D")
        arr.setflags(write=False)
        self.values = arr

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

    def __init__(self, values: np.ndarray, finite: np.ndarray | None = None):
        arr = np.asarray(values, dtype=np.int64).copy()
        if finite is None:
            fin = np.ones(arr.shape, dtype=bool)
        else:
            fin = np.asarray(finite, dtype=bool).copy()
        if fin.shape != arr.shape:
            raise ValueError("values and finiteness mask shapes differ")
        arr[~fin] = 0  # canonical filler under the mask
        arr.setflags(write=False)
        fin.setflags(write=False)
        self.values = arr
        self.finite = fin

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
    """The parts of k validated decompositions of k length-n hosts, padded
    to the largest part count m: ``chars[o, t]`` is the characteristic
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
    # Length and range are per-part checks (a part's last index is its
    # largest); the decompositions before such a failure are checked first.
    for t, dt in enumerate(decs):
        if dt.host_length != n or any(
            p.indices and p.indices[-1] >= n for p in dt.parts
        ):
            validate_decomposition(decs[:t], hosts[:t])
            _raise_first_violation(dt, hosts[t])

    m = max([1, *(dt.part_count for dt in decs)])
    lens, tags = np.zeros((2, k, m), dtype=np.intp)
    for t, dt in enumerate(decs):
        lens[t, : dt.part_count] = [len(p) for p in dt.parts]
        tags[t, : dt.part_count] = [_TAG_ROW[p.tag] for p in dt.parts]
    sizes, lens = lens.sum(axis=1), lens.ravel()
    starts = np.cumsum(lens) - lens
    # Index i of part o of decomposition t is cell t*n + i of the hosts
    # and cell (o*k + t)*n + i of the (m, k, n) stack.
    cells = np.repeat(np.arange(k) * n, sizes)
    cells += np.fromiter(
        itertools.chain.from_iterable(p.indices for dt in decs for p in dt.parts),
        dtype=np.int32,
        count=cells.size,
    )
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
    bad = np.flatnonzero(~partition | np.choose(tags, wrong).any(axis=1))
    if bad.size:
        _raise_first_violation(decs[bad[0]], hosts[bad[0]])
    holds = {tag: ~w.T for tag, w in zip(_TAG_ROW, wrong)}
    return AxisParts(chars, first.reshape(k, m).T, holds)


def _raise_first_violation(d: Decomposition, values: np.ndarray) -> None:
    """Name the first violation of one decomposition known to have one."""
    n = values.shape[0]
    if d.host_length != n:
        raise LengthMismatch(
            f"decomposition is for length {d.host_length}, host has {n}"
        )
    owner = [-1] * n
    for p, part in enumerate(d.parts):
        for i in part.indices:
            _FrozenArrays._cell(n, 0, i, what=f"part {p} index")
            if owner[i] >= 0:
                raise OverlapError(i, owner[i], p)
            owner[i] = p
    if -1 in owner:
        raise CoverageGapError(owner.index(-1))
    for p, part in enumerate(d.parts):
        wrong = _wrong_steps(part.values(values), part.tag)
        if wrong.any():
            raise OrderViolation(p, int(np.argmax(wrong)))
