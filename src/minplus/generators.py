"""Seeded random instances with planted decompositions.

Planted parts may be empty, so the part count handed back is exactly the
count requested; operation-count tests rely on that.  Values are drawn
from [-10^6, 10^6], far inside the construction entry bound.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    Subsequence,
    check_dimension,
    parse_direction,
)

DEFAULT_VALUE_BOUND = 10**6


def as_generator(seed) -> np.random.Generator:
    """Pass numpy Generators through; anything else seeds a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_index_partition(
    rng: np.random.Generator, n: int, parts: int
) -> list[np.ndarray]:
    """Assign each of 0..n-1 to one of ``parts`` classes uniformly;
    classes may come back empty.  Each class is an ascending index array."""
    if parts < 1:
        raise ValueError("need at least one part")
    assign = rng.integers(0, parts, size=n)
    return [np.flatnonzero(assign == p) for p in range(parts)]


def _draw_values(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(-DEFAULT_VALUE_BOUND, DEFAULT_VALUE_BOUND + 1, size=size)


def random_vector(seed, n: int) -> IntVector:
    return IntVector(_draw_values(as_generator(seed), n))


def random_matrix(seed, n: int) -> IntMatrix:
    return IntMatrix(_draw_values(as_generator(seed), (n, n)))


#: The directions a part of a mixed-direction row is drawn from.
_DIRECTIONS = (MonotoneTag.NON_DECREASING, MonotoneTag.NON_INCREASING)


def _plant_monotone_values(
    rng: np.random.Generator, n: int, parts: int, tag: MonotoneTag | None
) -> tuple[np.ndarray, Decomposition]:
    """Values with a planted ``parts``-part decomposition whose parts all
    take ``tag``; with ``tag`` None each part draws its own direction just
    before its values."""
    idx_parts = random_index_partition(rng, n, parts)
    values = np.zeros(n, dtype=np.int64)
    subs = []
    for indices in idx_parts:
        part_tag = _DIRECTIONS[rng.integers(0, 2)] if tag is None else tag
        v = np.sort(_draw_values(rng, len(indices)))
        if part_tag is MonotoneTag.NON_INCREASING:
            v = v[::-1]
        values[indices] = v
        subs.append(Subsequence(indices, part_tag))
    return values, Decomposition(n, tuple(subs))


def planted_monotone_vector(
    seed, n: int, parts: int, direction="nondec"
) -> tuple[IntVector, Decomposition]:
    """Vector whose planted decomposition has exactly ``parts`` parts, all
    monotone in ``direction``."""
    rng = as_generator(seed)
    tag = parse_direction(direction)
    values, dec = _plant_monotone_values(rng, n, parts, tag)
    return IntVector(values), dec


def _plant_uniform_values(
    rng: np.random.Generator, n: int, classes: int
) -> tuple[np.ndarray, Decomposition]:
    if classes < 1:
        raise ValueError("need at least one value class")
    if classes > 2 * DEFAULT_VALUE_BOUND + 1:
        raise ValueError("not enough distinct values in range")
    pool = rng.choice(2 * DEFAULT_VALUE_BOUND + 1, size=classes, replace=False)
    values = np.zeros(n, dtype=np.int64)
    subs = []
    for value, indices in zip(pool.tolist(), random_index_partition(rng, n, classes)):
        values[indices] = value - DEFAULT_VALUE_BOUND
        subs.append(Subsequence(indices, MonotoneTag.UNIFORM))
    return values, Decomposition(n, tuple(subs))


def planted_uniform_vector(
    seed, n: int, classes: int
) -> tuple[IntVector, Decomposition]:
    """Vector taking at most ``classes`` distinct values, with the planted
    constant-valued decomposition (one part per class, possibly empty)."""
    rng = as_generator(seed)
    values, dec = _plant_uniform_values(rng, n, classes)
    return IntVector(values), dec


def _stack_rows(n: int, plant) -> tuple[IntMatrix, list[Decomposition]]:
    """A matrix of ``n`` rows, each drawn by ``plant()`` as (values,
    decomposition), and its row decompositions; ``n`` is checked first."""
    check_dimension(n)
    rows, decs = zip(*(plant() for _ in range(n)))
    return IntMatrix(np.stack(rows)), list(decs)


def planted_matrix_rows(
    seed, n: int, parts: int, direction="nondec"
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix whose every row carries a planted ``parts``-part monotone
    decomposition in ``direction``."""
    rng = as_generator(seed)
    tag = parse_direction(direction)
    return _stack_rows(n, lambda: _plant_monotone_values(rng, n, parts, tag))


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
    rng = as_generator(seed)
    return _stack_rows(n, lambda: _plant_monotone_values(rng, n, parts, None))


def planted_uniform_matrix_rows(
    seed, n: int, classes: int
) -> tuple[IntMatrix, list[Decomposition]]:
    """Matrix whose every row takes at most ``classes`` distinct values,
    with planted constant-valued row decompositions."""
    rng = as_generator(seed)
    return _stack_rows(n, lambda: _plant_uniform_values(rng, n, classes))


def planted_uniform_matrix_cols(
    seed, n: int, classes: int
) -> tuple[IntMatrix, list[Decomposition]]:
    """Column flavor of planted_uniform_matrix_rows; list indexed by
    column."""
    M, decs = planted_uniform_matrix_rows(seed, n, classes)
    return M.transpose(), decs
