"""Every structured algorithm against the naive oracles on edge cases:
n = 1, empty and padded parts, all-equal inputs, entries at
+-ENTRY_BOUND, and shift-transformed inputs whose entries reach
SHIFTED_ENTRY_BOUND.  The dense folds add two int64 entries for every
output cell, so the shifted cases pin that no such sum wraps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    ENTRY_BOUND,
    SHIFTED_ENTRY_BOUND,
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    Subsequence,
    conv_decomposed,
    conv_few_values,
    conv_naive,
    decompose_cols,
    decompose_rows,
    minplus_decomposed,
    minplus_few_values_product,
    minplus_mixed_uniform,
    minplus_naive,
    minplus_uniform_mixed,
    shift_transform_matrices,
    shift_transform_vectors,
)
from minplus.decompose import DECOMPOSE_MODES

FLAVORS = ("small", "equal", "bound", "shifted")
DIRECTIONS = ("nondec", "noninc")
OPPOSITE = {"nondec": "noninc", "noninc": "nondec"}


def _entries(rng, flavor, shape, bound):
    if flavor == "small":
        return rng.integers(-3, 4, shape)
    if flavor == "equal":
        return np.full(shape, rng.choice([-bound, 0, bound]))
    return rng.choice([-bound, -bound + 1, 0, bound - 1, bound], shape)


def with_empty_parts(rng, decs):
    """Each decomposition with up to two empty parts of random tags at
    random places, so part counts differ and padding is exercised."""
    out = []
    for d in decs:
        parts = list(d.parts)
        for _ in range(rng.integers(0, 3)):
            tag = rng.choice(list(MonotoneTag))
            parts.insert(rng.integers(0, len(parts) + 1), Subsequence((), tag))
        out.append(Decomposition(d.host_length, tuple(parts)))
    return out


@st.composite
def matrix_cases(draw):
    n = draw(st.integers(1, 6))
    flavor = draw(st.sampled_from(FLAVORS))
    direction = draw(st.sampled_from(DIRECTIONS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if flavor == "shifted":
        # Entries within M + 2nM <= SHIFTED_ENTRY_BOUND after the shift.
        M = SHIFTED_ENTRY_BOUND // (2 * n + 1)
        A, B = (
            IntMatrix(_entries(rng, "bound", (n, n), M), entry_bound=M)
            for _ in range(2)
        )
        A, B, _ = shift_transform_matrices(A, B, direction)
    else:
        A, B = (
            IntMatrix(_entries(rng, flavor, (n, n), ENTRY_BOUND)) for _ in range(2)
        )
    return A, B, seed


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
def test_matrix_algorithms_equal_naive(case):
    A, B, seed = case
    rng = np.random.default_rng(seed)
    want = minplus_naive(A, B)

    def rows(mode):
        return with_empty_parts(rng, decompose_rows(A, mode))

    def cols(mode):
        return with_empty_parts(rng, decompose_cols(B, mode))

    for d in DIRECTIONS:
        assert minplus_decomposed(A, rows(d), B, cols(d), d) == want
        # Single-direction parts are valid mixed ones, so fig2 runs both
        # witness kinds.
        assert minplus_mixed_uniform(A, rows(d), B, cols("uniform")) == want
        assert minplus_uniform_mixed(A, rows("uniform"), B, cols(d)) == want
    assert minplus_few_values_product(A, rows("uniform"), B, cols("uniform")) == want


@st.composite
def vector_cases(draw):
    n = draw(st.integers(1, 8))
    flavor = draw(st.sampled_from(FLAVORS))
    direction = draw(st.sampled_from(DIRECTIONS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if flavor == "shifted":
        # Entries within M + 2(n-1)M <= SHIFTED_ENTRY_BOUND after the shift.
        M = SHIFTED_ENTRY_BOUND // (2 * n - 1)
        a, b = (
            IntVector(_entries(rng, "bound", n, M), entry_bound=M)
            for _ in range(2)
        )
        a, b, _ = shift_transform_vectors(a, b, direction)
    else:
        a, b = (IntVector(_entries(rng, flavor, n, ENTRY_BOUND)) for _ in range(2))
    return a, b, draw(st.integers(1, n)), seed


@settings(max_examples=150, deadline=None)
@given(vector_cases())
def test_convolution_algorithms_equal_naive(case):
    a, b, ell, seed = case
    rng = np.random.default_rng(seed)
    want = conv_naive(a, b)

    def split(v, mode):
        return with_empty_parts(rng, [DECOMPOSE_MODES[mode](v.coords)])[0]

    for d in DIRECTIONS:
        e = OPPOSITE[d]
        assert conv_decomposed(a, split(a, d), b, split(b, e)) == want
    assert conv_few_values(a, b, split(b, "uniform"), ell=ell) == want
