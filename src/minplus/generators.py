"""Seeded random instances with planted decompositions.

Planted parts may be empty, so the part count handed back is exactly the
count requested; operation-count tests rely on that.  Values are drawn
from [-10^6, 10^6], far inside the construction entry bound, so the
planted generators hand their fresh value blocks to ``_adopt`` uncopied.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    check_dimension,
    parse_direction,
)

DEFAULT_VALUE_BOUND = 10**6


def as_generator(seed) -> np.random.Generator:
    """Pass numpy Generators through; anything else seeds a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw_values(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(-DEFAULT_VALUE_BOUND, DEFAULT_VALUE_BOUND + 1, size=size)


def random_vector(seed, n: int) -> IntVector:
    return IntVector(_draw_values(as_generator(seed), n))


def random_matrix(seed, n: int) -> IntMatrix:
    return IntMatrix(_draw_values(as_generator(seed), (n, n)))


#: The directions a part of a mixed-direction row is drawn from.
_DIRECTIONS = (MonotoneTag.NON_DECREASING, MonotoneTag.NON_INCREASING)


def _planted_axis(rng, k: int, n: int, parts: int, tag: MonotoneTag | None):
    """k hosts of length n, as (k, n) values, and their planted ``parts``-part
    decompositions, each a view of one int32 block of positions and one of
    indptr.  ``n`` is checked first.  Each host's positions are dealt to the
    parts uniformly in one draw, so parts may be empty.  UNIFORM parts take
    distinct values, drawn before the deal; the others take sorted draws in
    ``tag``'s direction, or with ``tag`` None in a direction each part draws
    just before its values."""
    check_dimension(n)
    uniform = tag is MonotoneTag.UNIFORM
    if parts < 1:
        raise ValueError(f"need at least one {'value class' if uniform else 'part'}")
    if uniform and parts > 2 * DEFAULT_VALUE_BOUND + 1:
        raise ValueError("not enough distinct values in range")
    values = np.zeros((k, n), dtype=np.int64)
    positions = np.empty((k, n), dtype=np.int32)
    indptr = np.zeros((k, parts + 1), dtype=np.int32)
    tags = [(tag,) * parts] * k  # one tuple for every row, unless tag is None
    for r, (row, pos, ptr) in enumerate(zip(values, positions, indptr)):
        if uniform:
            pool = rng.choice(2 * DEFAULT_VALUE_BOUND + 1, size=parts, replace=False)
        assign = rng.integers(0, parts, size=n)
        pos[:] = np.argsort(assign, kind="stable")  # part p is pos[ptr[p]:ptr[p + 1]]
        ptr[1:] = np.cumsum(np.bincount(assign, minlength=parts))
        if uniform:
            row[pos] = np.repeat(pool - DEFAULT_VALUE_BOUND, np.diff(ptr))
            continue
        drawn = []
        for a, b in itertools.pairwise(ptr.tolist()):
            drawn.append(_DIRECTIONS[rng.integers(0, 2)] if tag is None else tag)
            v = np.sort(_draw_values(rng, b - a))
            row[pos[a:b]] = v[::-1] if drawn[-1] is MonotoneTag.NON_INCREASING else v
        if tag is None:
            tags[r] = tuple(drawn)
    positions.setflags(write=False)  # so no part's positions can be written
    indptr.setflags(write=False)
    return values, [Decomposition._adopt(n, *rows) for rows in zip(indptr, positions, tags)]


def planted_monotone_vector(
    seed, n: int, parts: int, direction="nondec"
) -> tuple[IntVector, Decomposition]:
    """Vector whose planted decomposition has exactly ``parts`` parts, all
    monotone in ``direction``."""
    tag = parse_direction(direction)
    values, (dec,) = _planted_axis(as_generator(seed), 1, n, parts, tag)
    return IntVector._adopt(values[0]), dec


def planted_uniform_vector(
    seed, n: int, classes: int
) -> tuple[IntVector, Decomposition]:
    """Vector taking at most ``classes`` distinct values, with the planted
    constant-valued decomposition (one part per class, possibly empty)."""
    values, (dec,) = _planted_axis(as_generator(seed), 1, n, classes, MonotoneTag.UNIFORM)
    return IntVector._adopt(values[0]), dec


def planted_matrix_rows(
    seed, n: int, parts: int, direction="nondec"
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix whose every row carries a planted ``parts``-part monotone
    decomposition in ``direction``."""
    values, decs = _planted_axis(as_generator(seed), n, n, parts, parse_direction(direction))
    return IntMatrix._adopt(values), decs


def planted_matrix_cols(
    seed, n: int, parts: int, direction="nondec"
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix whose every column carries a planted monotone decomposition;
    the list is indexed by column."""
    M, decs = planted_matrix_rows(seed, n, parts, direction)
    return M.transpose(), decs


def planted_mixed_matrix_rows(
    seed, n: int, parts: int
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix rows with planted parts of independently random directions."""
    values, decs = _planted_axis(as_generator(seed), n, n, parts, None)
    return IntMatrix._adopt(values), decs


def planted_uniform_matrix_rows(
    seed, n: int, classes: int
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix whose every row takes at most ``classes`` distinct values,
    with planted constant-valued row decompositions."""
    values, decs = _planted_axis(as_generator(seed), n, n, classes, MonotoneTag.UNIFORM)
    return IntMatrix._adopt(values), decs


def planted_uniform_matrix_cols(
    seed, n: int, classes: int
) -> tuple[IntMatrix, list[Decomposition]]:
    """Column flavor of planted_uniform_matrix_rows; list indexed by
    column."""
    M, decs = planted_uniform_matrix_rows(seed, n, classes)
    return M.transpose(), decs
