"""(min,+) convolution algorithms against the naive oracle."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minplus import (
    Decomposition,
    DirectionViolation,
    IntVector,
    MonotoneTag,
    OpCounters,
    Subsequence,
    UniformViolation,
    conv_decomposed,
    conv_extreme_witness,
    conv_few_values,
    conv_naive,
    conv_shift_offsets,
    convolution,
    decompose_nondecreasing,
    decompose_nonincreasing,
    decompose_uniform,
    shift_transform_vectors,
)
from minplus.core import fold_min
from oracles import vector_monotone
from minplus.generators import (
    planted_monotone_vector,
    planted_uniform_vector,
    random_vector,
)

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING
UN = MonotoneTag.UNIFORM

A6 = IntVector([1, 7, 3, 9, 8, 4])
B6 = IntVector([13, 7, 11, 5, 10, 12])


def dec(n, tag, *parts):
    return Decomposition(n, tuple(Subsequence(tuple(ix), tag) for ix in parts))


class TestNaive:
    def test_singletons(self):
        out = conv_naive(IntVector([0]), IntVector([0]))
        assert out.coord(0) == 0 and len(out.values) == 1

    def test_worked_coordinate(self):
        out = conv_naive(A6, B6)
        assert out.coord(4) == 11  # attained by a_0 + b_4 = 1 + 10
        assert len(out.values) == 11

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-200, 200, 16)
        b = rng.integers(-200, 200, 16)
        out = conv_naive(IntVector(a), IntVector(b))
        assert np.array_equal(out.values, oracles.minplus_conv(a, b))
        assert out.all_finite


class TestDecomposed:
    def test_sorted_single_parts_one_call(self):
        rng = np.random.default_rng(3)
        a = IntVector(np.sort(rng.integers(-50, 50, 10)))
        b = IntVector(np.sort(rng.integers(-50, 50, 10))[::-1].copy())
        da = dec(10, ND, tuple(range(10)))
        db = dec(10, NI, tuple(range(10)))
        c = OpCounters()
        out = conv_decomposed(a, da, b, db, counters=c)
        assert out == conv_naive(a, b)
        assert c.witness_conv_calls == 1

    def test_opposite_orientation(self):
        rng = np.random.default_rng(4)
        a = IntVector(np.sort(rng.integers(-50, 50, 9))[::-1].copy())
        b = IntVector(np.sort(rng.integers(-50, 50, 9)))
        da = dec(9, NI, tuple(range(9)))
        db = dec(9, ND, tuple(range(9)))
        assert conv_decomposed(a, da, b, db) == conv_naive(a, b)

    def test_planted_instances_match_naive(self):
        for seed in range(100):
            n = (8, 16, 32, 64)[seed % 4]
            a, da = planted_monotone_vector(seed, n, 1 + seed % 3, "nondec")
            b, db = planted_monotone_vector(seed + 999, n, 1 + seed % 2, "noninc")
            got = conv_decomposed(a, da, b, db)
            assert got == conv_naive(a, b), seed

    def test_swapped_sides_agree(self):
        a, da = planted_monotone_vector(11, 20, 2, "nondec")
        b, db = planted_monotone_vector(12, 20, 3, "noninc")
        assert conv_decomposed(a, da, b, db) == conv_decomposed(b, db, a, da)

    def test_same_direction_rejected(self):
        a, da = planted_monotone_vector(5, 8, 2, "nondec")
        b, db = planted_monotone_vector(6, 8, 2, "nondec")
        with pytest.raises(DirectionViolation):
            conv_decomposed(a, da, b, db)

    def test_call_count_is_pair_product(self):
        for m_a, m_b in [(1, 1), (2, 3), (3, 4)]:
            a, da = planted_monotone_vector(7, 24, m_a, "nondec")
            b, db = planted_monotone_vector(8, 24, m_b, "noninc")
            c = OpCounters()
            conv_decomposed(a, da, b, db, counters=c)
            assert c.witness_conv_calls == m_a * m_b

    def test_running_values_never_below_final(self, monkeypatch):
        a, da = planted_monotone_vector(9, 15, 3, "nondec")
        b, db = planted_monotone_vector(10, 15, 2, "noninc")
        final = conv_naive(a, b)
        folds = []

        def spy(c, finite, *candidates):
            fold_min(c, finite, *candidates)
            assert np.all(c[finite] >= final.values[finite])
            folds.append(1)

        monkeypatch.setattr(convolution, "fold_min", spy)
        out = conv_decomposed(a, da, b, db)
        assert out == final
        assert len(folds) == da.part_count * db.part_count == 3 * 2

    def test_block_size_invariant(self, monkeypatch):
        a, da = planted_monotone_vector(13, 30, 3, "noninc")
        b, db = planted_monotone_vector(14, 30, 3, "nondec")
        base = conv_decomposed(a, da, b, db)
        assert base == conv_naive(a, b)
        for bs in (1, 6, 30):
            engine = functools.partial(conv_extreme_witness, block_size=bs)
            monkeypatch.setattr(convolution, "conv_extreme_witness", engine)
            assert conv_decomposed(a, da, b, db) == base


class TestFewValues:
    def test_constant_b_window_minimum(self):
        rng = np.random.default_rng(7)
        a = IntVector(rng.integers(-30, 30, 8))
        b = IntVector(np.full(8, 4))
        db = decompose_uniform(b.coords)
        out = conv_few_values(a, b, db)
        assert out == conv_naive(a, b)
        # each coordinate is 4 plus the minimum of a over the overlap window
        av = a.coords
        for k in range(15):
            lo, hi = max(0, k - 7), min(7, k)
            assert out.coord(k) == 4 + av[lo : hi + 1].min()

    def test_worked_instance_singleton_classes(self):
        db = decompose_uniform(B6.coords)
        assert db.part_count == 6
        out = conv_few_values(A6, B6, db, ell=3)
        assert out.coord(4) == 11
        assert out == conv_naive(A6, B6)

    def test_random_small_alphabets(self):
        for seed in range(100):
            n = (8, 16, 32, 64)[seed % 4]
            b, db = planted_uniform_vector(seed, n, 1 + seed % 4)
            a = random_vector(seed + 555, n)
            ell = (1, math.isqrt(n - 1) + 1, n)[seed % 3]
            got = conv_few_values(a, b, db, ell=ell)
            assert got == conv_naive(a, b), seed

    def test_group_size_must_be_an_integer(self):
        db = decompose_uniform(B6.coords)
        for bad in (2.5, 3.0, True, np.float64(3.0)):
            with pytest.raises(TypeError):
                conv_few_values(A6, B6, db, ell=bad)
        with pytest.raises(ValueError, match=r"^group size 7 outside \[1, 6\]$"):
            conv_few_values(A6, B6, db, ell=7)
        assert conv_few_values(A6, B6, db, ell=np.int64(3)) == conv_naive(A6, B6)

    def test_rejects_nonconstant_parts(self):
        a = random_vector(1, 6)
        b, db = planted_monotone_vector(2, 6, 2, "nondec")
        with pytest.raises(UniformViolation):
            conv_few_values(a, b, db)

    def test_boolean_convolution_count(self):
        for n, ell, h in [(12, 3, 2), (10, 3, 3), (16, 4, 1), (9, 9, 4)]:
            b, db = planted_uniform_vector(n + ell + h, n, h)
            h_real = db.part_count
            a = random_vector(n, n)
            c = OpCounters()
            conv_few_values(a, b, db, ell=ell, counters=c)
            assert c.bool_convolutions == h_real * math.ceil(n / ell)

    @staticmethod
    def _sparse_part_input(n):
        # h = 4: two planted values, one more on 5 positions (fewer than a
        # group's ell set bits), and an empty part.
        b, _ = planted_uniform_vector(1, n, 2)
        coords = b.coords.copy()
        coords[np.random.default_rng(2).choice(n, 5, replace=False)] = 10**6
        return IntVector(coords), oracles.padded(decompose_uniform(coords), 4)

    @pytest.mark.parametrize("sparse_parts", [0, 2])
    def test_each_part_and_group_is_packed_once_per_solve(
        self, sparse_parts, monkeypatch
    ):
        # The benchmark's shape: n = 4096, h = 3, ell = 64, and h = 4 with
        # two parts sparser than a group.  The solve packs all groups'
        # offsets in one pass, in value order, and each b part once: a
        # dense part into its 64-shift table, a part sparser than a group
        # into its own offsets, since it is the sparser side of its calls.
        # Those calls read only the rows of the group's words that the
        # part's offsets need; the lead group's ranks read one more table
        # of such a part, with the rows for the lead's shifts.
        from minplus import fastconv

        tables, offsets, group_packs = [], [], []
        table, offs = fastconv._shift_table, fastconv._offsets
        pack_groups = convolution.packed_groups

        def table_spy(bits, shifts=range(64)):
            tables.append(len(shifts))
            return table(bits, shifts)

        def offsets_spy(bits):
            offsets.append(np.count_nonzero(bits))
            return offs(bits)

        def groups_spy(order, ell):
            group_packs.append(ell)
            return pack_groups(order, ell)

        monkeypatch.setattr(fastconv, "_shift_table", table_spy)
        monkeypatch.setattr(fastconv, "_offsets", offsets_spy)
        monkeypatch.setattr(convolution, "packed_groups", groups_spy)
        n, ell = 4096, 64
        if sparse_parts:
            b, db = self._sparse_part_input(n)
        else:
            b, db = planted_uniform_vector(1, n, 3)
        a = random_vector(0, n)
        c = OpCounters()
        got = conv_few_values(a, b, db, ell=ell, counters=c)
        h, groups = db.part_count, math.ceil(n / ell)
        assert c.bool_convolutions == h * groups
        assert group_packs == [ell]
        assert sorted(offsets) == [0, 5][:sparse_parts]
        lead = np.argsort(a.coords, kind="stable")[:ell]
        lead_shifts = np.unique((n - 1 - lead) % 64).size
        assert lead_shifts > 5
        assert sum(k <= 5 for k in tables) == sparse_parts * groups
        big = [64] * (h - sparse_parts) + [lead_shifts] * sparse_parts
        assert sorted(k for k in tables if k > 5) == sorted(big)
        assert got == conv_naive(a, b)

    def test_peak_memory_of_a_benchmark_sized_solve(self):
        # n = 4096, h = 3, ell = 64: the benchmark's conv_fewvalues shape.
        # Stacking every group's hit row per part and the per-group
        # |outputs| x ell gathers measured an 8.5 MB peak.
        n = 4096
        b, db = planted_uniform_vector(1, n, 3)
        a = random_vector(0, n)
        tracemalloc.start()
        try:
            got = conv_few_values(a, b, db, ell=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20
        assert got == conv_naive(a, b)

    def test_peak_memory_with_parts_sparser_than_a_group(self):
        # With the table on whichever operand had more set bits, each of
        # the 64 groups kept a 96 KB shift table for the solve: 6 MB.
        n = 4096
        b, db = self._sparse_part_input(n)
        a = random_vector(0, n)
        tracemalloc.start()
        try:
            got = conv_few_values(a, b, db, ell=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20
        assert got == conv_naive(a, b)

    def test_default_group_size(self):
        b, db = planted_uniform_vector(3, 20, 2)
        a = random_vector(4, 20)
        assert conv_few_values(a, b, db) == conv_naive(a, b)

    def test_later_groups_in_row_chunks(self, monkeypatch):
        # One output per chunk of the later groups' gather, and one word
        # column per chunk of the lead group's ranks.  Groups of more than
        # 64 send group 0's outputs past rank 63 to the gather too.
        from minplus import fastconv

        monkeypatch.setattr(convolution, "_CHUNK_ELEMENTS", 1)
        monkeypatch.setattr(fastconv, "_CHUNK_ELEMENTS", 1)
        for seed, n, ell in [(0, 200, 7), (1, 130, 64), (2, 97, 2), (3, 300, 300)]:
            b, db = planted_uniform_vector(seed, n, 3)
            a = IntVector(np.random.default_rng(seed).integers(-5, 5, n))
            assert conv_few_values(a, b, db, ell=ell) == conv_naive(a, b)


@st.composite
def few_values_cases(draw):
    """a with ties; b with one common value, a few rare ones (parts
    sparser than a group) and empty parts; ell 1, 2, n or a non-divisor."""
    n = draw(st.integers(1, 160))
    a = IntVector(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    coords = np.full(n, draw(st.integers(-9, 9)), dtype=np.int64)
    rare = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-9, 9)), max_size=6))
    for i, v in rare:
        coords[i] = v
    dec = decompose_uniform(coords)
    dec = oracles.padded(dec, dec.part_count + draw(st.integers(0, 2)))
    choices = [1, min(2, n), n]
    nondiv = [e for e in range(2, n) if n % e]
    if nondiv:
        choices.append(draw(st.sampled_from(nondiv)))
    ell = draw(st.sampled_from(choices))
    return a, IntVector(coords), dec, ell


@settings(max_examples=150, deadline=None)
@given(few_values_cases())
def test_few_values_edge_cases_equal_naive(case):
    a, b, dec, ell = case
    assert conv_few_values(a, b, dec, ell=ell) == conv_naive(a, b)


class TestShiftVectors:
    def test_worked_pair(self):
        a2, b2, M = shift_transform_vectors(IntVector([3, -1]), IntVector([-2, 4]))
        assert M == 4
        assert a2.coords.tolist() == [3, 7]
        assert b2.coords.tolist() == [-2, 12]
        shifted = conv_naive(a2, b2)
        plain = conv_naive(IntVector([3, -1]), IntVector([-2, 4]))
        off = conv_shift_offsets(2, M)
        assert plain.values.tolist() == [1, -3, 3]
        assert shifted.values.tolist() == (plain.values + off).tolist()
        assert shifted.coord(1) == 5

    def test_zero_inputs_unchanged(self):
        z = IntVector([0, 0])
        a2, b2, M = shift_transform_vectors(z, z)
        assert M == 0 and a2 == z and b2 == z

    @pytest.mark.parametrize("direction", ["nondec", "noninc"])
    def test_random_identity(self, direction):
        tag = ND if direction == "nondec" else NI
        for seed in range(50):
            n = 3 + seed % 14
            a = random_vector(seed, n)
            b = random_vector(seed + 321, n)
            a2, b2, M = shift_transform_vectors(a, b, direction)
            assert vector_monotone(a2, tag) and vector_monotone(b2, tag)
            off = conv_shift_offsets(n, M, direction)
            got = conv_naive(a2, b2).values - off
            assert np.array_equal(got, conv_naive(a, b).values)

    def test_overflow_guard(self):
        from minplus import SHIFTED_ENTRY_BOUND

        big = IntVector([0, 2**61], entry_bound=SHIFTED_ENTRY_BOUND)
        with pytest.raises(OverflowError):
            shift_transform_vectors(big, big)

    def test_offsets_reject_uniform_direction(self):
        # the offsets refuse exactly the directions the transform refuses
        with pytest.raises(ValueError):
            shift_transform_vectors(IntVector([1]), IntVector([2]), "uniform")
        with pytest.raises(ValueError):
            conv_shift_offsets(3, 5, "uniform")


class TestDirectionalDecomposeRoundTrip:
    def test_nondec_parts_feed_decomposed_product(self):
        a = A6
        da = decompose_nondecreasing(a.coords)
        b = IntVector([13, 7, 11, 5, 10, 2])
        db = decompose_nonincreasing(b.coords)
        out = conv_decomposed(a, da, b, db)
        assert out == conv_naive(a, b)
        assert out.coord(4) == 11
