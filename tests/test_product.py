"""(min,+) matrix product algorithms against the naive oracle."""

import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from minplus import (
    SHIFTED_ENTRY_BOUND,
    Decomposition,
    DirectionViolation,
    IntMatrix,
    MonotoneTag,
    OpCounters,
    OverlapError,
    Subsequence,
    UniformViolation,
    boolmat,
    decompose_cols,
    decompose_rows,
    mat_extreme_witness,
    minplus_decomposed,
    minplus_few_values_product,
    minplus_mixed_uniform,
    minplus_naive,
    minplus_uniform_mixed,
    product,
    shift_transform_matrices,
)
from minplus.core import fold_min
from oracles import cols_monotone, rows_monotone
from minplus.generators import (
    planted_matrix_cols,
    planted_matrix_rows,
    planted_mixed_matrix_rows,
    planted_uniform_matrix_cols,
    planted_uniform_matrix_rows,
    random_matrix,
)

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING


def dec(n, tag, *parts):
    return Decomposition(n, tuple(Subsequence(tuple(ix), tag) for ix in parts))


def worked_instance():
    """6x6 pair in which every row of A is (1,7,3,9,8,4) and every column
    of B is (5,11,2,7,13,10), with the matching 3/2-part splits."""
    a_row = [1, 7, 3, 9, 8, 4]
    b_col = [5, 11, 2, 7, 13, 10]
    A = IntMatrix(np.tile(a_row, (6, 1)))
    B = IntMatrix(np.tile(np.array(b_col)[:, None], (1, 6)))
    rows = [dec(6, ND, (0, 2, 5), (1, 4), (3,))] * 6
    cols = [dec(6, ND, (0, 1, 4), (2, 3, 5))] * 6
    return A, B, rows, cols


class TestNaive:
    def test_1x1(self):
        out = minplus_naive(IntMatrix([[2]]), IntMatrix([[3]]))
        assert out.entry(1, 1) == 5

    def test_worked_entry(self):
        A, B, _, _ = worked_instance()
        out = minplus_naive(A, B)
        assert out.entry(4, 5) == 5

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(1)
        A = rng.integers(-100, 100, (8, 8))
        B = rng.integers(-100, 100, (8, 8))
        out = minplus_naive(IntMatrix(A), IntMatrix(B))
        assert np.array_equal(out.values, oracles.minplus_matrix(A, B))
        assert out.all_finite


class TestDecomposed:
    def test_worked_instance(self):
        A, B, rows, cols = worked_instance()
        out = minplus_decomposed(A, rows, B, cols, "nondec")
        assert out.entry(4, 5) == 5  # min{1+5, 3+2, 7+11, 9+7}
        assert out == minplus_naive(A, B)

    def test_single_sorted_parts_equal_naive_with_one_call(self):
        rng = np.random.default_rng(4)
        A = IntMatrix(np.sort(rng.integers(-50, 50, (9, 9)), axis=1))
        B = IntMatrix(np.sort(rng.integers(-50, 50, (9, 9)), axis=0))
        rows = [dec(9, ND, tuple(range(9)))] * 9
        cols = [dec(9, ND, tuple(range(9)))] * 9
        c = OpCounters()
        out = minplus_decomposed(A, rows, B, cols, "nondec", counters=c)
        assert out == minplus_naive(A, B)
        assert c.witness_matrix_calls == 1

    @pytest.mark.parametrize("direction", ["nondec", "noninc"])
    def test_planted_instances_match_naive(self, direction):
        for seed in range(50):
            A, rows = planted_matrix_rows(seed, 16, 1 + seed % 3, direction)
            B, cols = planted_matrix_cols(seed + 1000, 16, 1 + seed % 2, direction)
            got = minplus_decomposed(A, rows, B, cols, direction)
            assert got == minplus_naive(A, B), (seed, direction)

    def test_direction_must_match_values(self):
        A, B, rows, cols = worked_instance()
        with pytest.raises(DirectionViolation):
            minplus_decomposed(A, rows, B, cols, "noninc")

    def test_uniform_parts_pass_either_direction(self):
        A = IntMatrix(np.full((4, 4), 3))
        B = IntMatrix(np.full((4, 4), 4))
        parts = [dec(4, MonotoneTag.UNIFORM, (0, 1, 2, 3))] * 4
        for direction in ("nondec", "noninc"):
            out = minplus_decomposed(A, parts, B, parts, direction)
            assert out == minplus_naive(A, B)

    def test_invalid_decomposition_rejected(self):
        A, B, rows, cols = worked_instance()
        bad = [dec(6, ND, (0, 2, 5), (1, 2, 4), (3,))] * 6
        with pytest.raises(OverlapError):
            minplus_decomposed(A, bad, B, cols, "nondec")

    def test_call_count_is_pair_product(self):
        for m_a, m_b in [(1, 1), (2, 3), (3, 4), (4, 2)]:
            A, rows = planted_matrix_rows(7, 12, m_a, "nondec")
            B, cols = planted_matrix_cols(8, 12, m_b, "nondec")
            c = OpCounters()
            minplus_decomposed(A, rows, B, cols, "nondec", counters=c)
            assert c.witness_matrix_calls == m_a * m_b

    def test_running_values_never_below_final(self, monkeypatch):
        A, rows = planted_matrix_rows(5, 10, 3, "nondec")
        B, cols = planted_matrix_cols(6, 10, 2, "nondec")
        final = minplus_naive(A, B)
        folds = []

        def spy(c, finite, *candidates):
            fold_min(c, finite, *candidates)
            assert np.all(c[finite] >= final.values[finite])
            folds.append(1)

        monkeypatch.setattr(product, "fold_min", spy)
        out = minplus_decomposed(A, rows, B, cols, "nondec")
        assert out == final
        assert len(folds) == 3 * 2

    def test_pair_order_independence(self):
        A, rows = planted_matrix_rows(9, 11, 3, "nondec")
        B, cols = planted_matrix_cols(10, 11, 3, "nondec")
        fwd = minplus_decomposed(A, rows, B, cols, "nondec")
        rows_r = [Decomposition(d.host_length, d.parts[::-1]) for d in rows]
        cols_r = [Decomposition(d.host_length, d.parts[::-1]) for d in cols]
        rev = minplus_decomposed(A, rows_r, B, cols_r, "nondec")
        assert fwd == rev

    def test_block_size_invariant(self, monkeypatch):
        A, rows = planted_matrix_rows(12, 17, 2, "noninc")
        B, cols = planted_matrix_cols(13, 17, 3, "noninc")
        outs = []
        for bs in (1, 5, 17):
            engine = functools.partial(mat_extreme_witness, block_size=bs)
            monkeypatch.setattr(product, "mat_extreme_witness", engine)
            outs.append(minplus_decomposed(A, rows, B, cols, "noninc"))
        assert outs[0] == outs[1] == outs[2] == minplus_naive(A, B)

    def test_peak_memory_is_a_few_n_squared_arrays(self):
        # n = 512, m = 3, nondec: the benchmark's product_monotone instance
        # size.  Keeping per-element int64 row, part and segment arrays
        # alive through validation and the fold measured 19.9 * 8n^2; n x n
        # engine scratch and fold buffers 7.3, row tiles 3.8.
        n = 512
        A, rows = planted_matrix_rows(0, n, 3, "nondec")
        B, cols = planted_matrix_cols(1, n, 3, "nondec")
        tracemalloc.start()
        try:
            minplus_decomposed(A, rows, B, cols, "nondec")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * n * n, peak / (8 * n * n)


    def test_each_part_is_packed_once(self, monkeypatch):
        # m_a + m_b operands are packed into block words, not 2 * m_a * m_b:
        # a part's matrix keeps its words for every product it enters.
        A, rows = planted_matrix_rows(3, 70, 3, "nondec")
        B, cols = planted_matrix_cols(4, 70, 2, "nondec")
        packed, validated = [], []
        pack, validate = boolmat._block_words, product.validate_decomposition
        monkeypatch.setattr(
            boolmat, "_block_words", lambda *a: packed.append(1) or pack(*a)
        )
        monkeypatch.setattr(
            product, "validate_decomposition",
            lambda *a: validated.append(1) or validate(*a),
        )
        c = OpCounters()
        out = minplus_decomposed(A, rows, B, cols, "nondec", counters=c)
        assert out == minplus_naive(A, B)
        assert len(packed) == 3 + 2
        assert c.witness_matrix_calls == 3 * 2
        assert len(validated) == 2


class TestMixedUniform:
    def test_constant_columns(self):
        rng = np.random.default_rng(20)
        A = IntMatrix(rng.integers(-40, 40, (7, 7)))
        col_vals = rng.integers(-40, 40, 7)
        B = IntMatrix(np.tile(col_vals, (7, 1)))
        cols = [dec(7, MonotoneTag.UNIFORM, tuple(range(7)))] * 7
        # Rows of either direction, so both witness kinds run.
        for mode in ("nondec", "noninc"):
            out = minplus_mixed_uniform(A, decompose_rows(A, mode), B, cols)
            assert out == minplus_naive(A, B)

    def test_worked_rows_against_two_value_columns(self):
        A = IntMatrix(np.tile([1, 7, 3, 9, 8, 4], (6, 1)))
        rows = [dec(6, ND, (0, 2, 5), (1, 4), (3,))] * 6
        rng = np.random.default_rng(22)
        B = IntMatrix(rng.choice([2, 9], size=(6, 6)))
        cols = decompose_cols(B, "uniform")
        out = minplus_mixed_uniform(A, rows, B, cols)
        assert out == minplus_naive(A, B)

    def test_n1(self):
        A = IntMatrix([[5]])
        B = IntMatrix([[7]])
        one = [dec(1, ND, (0,))]
        uni = [dec(1, MonotoneTag.UNIFORM, (0,))]
        assert minplus_mixed_uniform(A, one, B, uni).entry(1, 1) == 12

    def test_rejects_nonconstant_column_parts(self):
        A, rows = planted_mixed_matrix_rows(1, 5, 2)
        B, cols = planted_matrix_cols(2, 5, 2, "nondec")
        with pytest.raises(UniformViolation):
            minplus_mixed_uniform(A, rows, B, cols)

    def test_planted_instances_match_naive(self):
        for seed in range(40):
            A, rows = planted_mixed_matrix_rows(seed, 14, 1 + seed % 3)
            B, cols = planted_uniform_matrix_cols(seed + 500, 14, 1 + seed % 4)
            got = minplus_mixed_uniform(A, rows, B, cols)
            assert got == minplus_naive(A, B), seed

    def test_call_count_doubles_pairs(self):
        A, rows = planted_mixed_matrix_rows(3, 10, 3)
        B, cols = planted_uniform_matrix_cols(4, 10, 2)
        c = OpCounters()
        minplus_mixed_uniform(A, rows, B, cols, counters=c)
        assert c.witness_matrix_calls == 2 * 3 * 2

    def test_each_part_is_packed_once_per_kind(self, monkeypatch):
        A, rows = planted_mixed_matrix_rows(3, 70, 3)
        B, cols = planted_uniform_matrix_cols(4, 70, 2)
        packed = []
        pack = boolmat._block_words
        monkeypatch.setattr(
            boolmat, "_block_words", lambda *a: packed.append(1) or pack(*a)
        )
        c = OpCounters()
        out = minplus_mixed_uniform(A, rows, B, cols, counters=c)
        assert out == minplus_naive(A, B)
        assert len(packed) == 2 * (3 + 2)
        assert c.witness_matrix_calls == 2 * 3 * 2

    def test_peak_memory_is_a_few_n_squared_arrays(self):
        # Each pair's witnesses land in the solve's witness buffer one
        # kind at a time, so at most one engine witness array is alive.
        n = 256
        A, rows = planted_mixed_matrix_rows(0, n, 3)
        B, cols = planted_uniform_matrix_cols(1, n, 3)
        tracemalloc.start()
        try:
            minplus_mixed_uniform(A, rows, B, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * 8 * n * n, peak / (8 * n * n)

    def test_uniform_rows_mixed_cols_wrapper(self):
        for seed in range(20):
            A, rows = planted_uniform_matrix_rows(seed, 12, 2)
            Bt, colst = planted_mixed_matrix_rows(seed + 90, 12, 3)
            B, cols = Bt.transpose(), colst
            got = minplus_uniform_mixed(A, rows, B, cols)
            assert got == minplus_naive(A, B), seed


class TestFewValues:
    def test_all_zero_single_product(self):
        Z = IntMatrix(np.zeros((8, 8), dtype=np.int64))
        rows = decompose_rows(Z, "uniform")
        cols = decompose_cols(Z, "uniform")
        c = OpCounters()
        out = minplus_few_values_product(Z, rows, Z, cols, counters=c)
        assert c.bool_products == 1
        assert out == minplus_naive(Z, Z)

    def test_two_by_two_value_classes_use_four_products(self):
        rng = np.random.default_rng(30)
        A_raw = rng.choice([0, 1], size=(8, 8))
        B_raw = rng.choice([0, 2], size=(8, 8))
        A_raw[0, :2] = [0, 1]  # force both classes into row 1 / column 1
        B_raw[:2, 0] = [0, 2]
        A, B = IntMatrix(A_raw), IntMatrix(B_raw)
        rows = decompose_rows(A, "uniform")
        cols = decompose_cols(B, "uniform")
        c = OpCounters()
        out = minplus_few_values_product(A, rows, B, cols, counters=c)
        assert c.bool_products == 4
        assert out == minplus_naive(A, B)

    def test_all_distinct_rows_degenerate(self):
        rng = np.random.default_rng(31)
        A = IntMatrix(np.stack([rng.permutation(4) for _ in range(4)]))
        B = IntMatrix(np.stack([rng.permutation(4) for _ in range(4)], axis=1))
        out = minplus_few_values_product(
            A, decompose_rows(A, "uniform"), B, decompose_cols(B, "uniform")
        )
        assert out == minplus_naive(A, B)

    def test_rejects_nonuniform_parts(self):
        A, rows = planted_matrix_rows(2, 6, 2, "nondec")
        B, cols = planted_uniform_matrix_cols(3, 6, 2)
        with pytest.raises(UniformViolation):
            minplus_few_values_product(A, rows, B, cols)

    def test_planted_instances_match_naive(self):
        for seed in range(40):
            A, rows = planted_uniform_matrix_rows(seed, 12, 1 + seed % 3)
            B, cols = planted_uniform_matrix_cols(seed + 77, 12, 1 + seed % 4)
            got = minplus_few_values_product(A, rows, B, cols)
            assert got == minplus_naive(A, B), seed


    def test_peak_memory_is_a_few_n_squared_arrays(self):
        # An n x n sums buffer held through each Boolean product measured
        # 4.3 * 8n^2; rank-one candidates folded per row tile 3.8.
        n = 256
        A, rows = planted_uniform_matrix_rows(0, n, 3)
        B, cols = planted_uniform_matrix_cols(1, n, 3)
        tracemalloc.start()
        try:
            minplus_few_values_product(A, rows, B, cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n * n, peak / (8 * n * n)


#: Sizes around the 64-index witness blocks, and n = 1.
PAIR_SIZES = (1, 63, 64, 65, 130)


def spy_folds(monkeypatch):
    """Record, for each fold of a solve, whether its hit mask is set
    anywhere and everywhere."""
    folds = []

    def spy(c, hit, cand):
        folds.append((bool(hit.any()), bool(hit.all())))
        fold_min(c, hit, cand)

    monkeypatch.setattr(product, "fold_min", spy)
    return folds


def with_empty_part(decs):
    """Each decomposition with one empty part more: every pair it enters
    has no witness at all."""
    return [oracles.padded(d, d.part_count + 1) for d in decs]


class TestPairLoop:
    """fig1, fig2 and the few-values product share one pair loop; each is
    checked against minplus_naive around the block size, with empty parts
    and entries some pairs cannot reach (5 or more parts a side leave a
    few such entries even at n = 130)."""

    def check(self, monkeypatch, solve, A, rows, B, cols):
        folds = spy_folds(monkeypatch)
        got = solve(A, with_empty_part(rows), B, with_empty_part(cols))
        assert got == minplus_naive(A, B)
        assert (False, False) in folds  # pairs with no witness anywhere
        if A.n > 1:  # some pair reaches some entries only
            assert any(hit and not full for hit, full in folds)

    @pytest.mark.parametrize("n", PAIR_SIZES)
    @pytest.mark.parametrize("direction", ["nondec", "noninc"])
    def test_fig1(self, monkeypatch, n, direction):
        A, rows = planted_matrix_rows(n, n, 5, direction)
        B, cols = planted_matrix_cols(n + 1, n, 5, direction)

        def solve(*args):
            return minplus_decomposed(*args, direction)

        self.check(monkeypatch, solve, A, rows, B, cols)

    @pytest.mark.parametrize("n", PAIR_SIZES)
    @pytest.mark.parametrize("direction", ["nondec", "noninc", "mixed"])
    def test_fig2(self, monkeypatch, n, direction):
        if direction == "mixed":
            A, rows = planted_mixed_matrix_rows(n, n, 5)
        else:
            A, rows = planted_matrix_rows(n, n, 5, direction)
        B, cols = planted_uniform_matrix_cols(n + 1, n, 5)
        self.check(monkeypatch, minplus_mixed_uniform, A, rows, B, cols)

    @pytest.mark.parametrize("n", PAIR_SIZES)
    def test_fig2_transposed(self, n):
        A, rows = planted_uniform_matrix_rows(n, n, 2)
        Bt, cols = planted_mixed_matrix_rows(n + 1, n, 3)
        B = Bt.transpose()
        got = minplus_uniform_mixed(A, with_empty_part(rows), B, with_empty_part(cols))
        assert got == minplus_naive(A, B)

    @pytest.mark.parametrize("n", PAIR_SIZES)
    def test_few_values(self, monkeypatch, n):
        A, rows = planted_uniform_matrix_rows(n, n, 5)
        B, cols = planted_uniform_matrix_cols(n + 1, n, 6)
        self.check(monkeypatch, minplus_few_values_product, A, rows, B, cols)


TOP = 2 * SHIFTED_ENTRY_BOUND  # 2**63 - 2, the largest sum of shifted entries


def shifted_pair(n):
    """shift_transform_matrices("noninc") of inputs whose largest magnitude
    M just fits the bound: rows of A' fall to about -SHIFTED_ENTRY_BOUND
    and columns of B' rise to about +SHIFTED_ENTRY_BOUND (both reach it
    exactly at n = 1)."""
    M = SHIFTED_ENTRY_BOUND // (2 * n + 1)
    A0, B0 = np.random.default_rng(n).integers(-M, M, size=(2, n, n), endpoint=True)
    A0[0, 0], B0[0, 0] = -M, M
    A2, B2, _ = shift_transform_matrices(
        *(IntMatrix(X, entry_bound=SHIFTED_ENTRY_BOUND) for X in (A0, B0)), "noninc"
    )
    return A2, B2


def late_split(n, tag):
    """Every index but the last, then the last: the second pair of parts
    meets only at k = n, where a monotone row holds its extreme value."""
    return [dec(n, tag, tuple(range(n - 1)), (n - 1,))] * n


class TestSentinelFold:
    """While the fold runs, +infinity is INT64_MAX: one above TOP, so sums
    at either end of int64 still fold as finite values."""

    @staticmethod
    def self_product(X, tag):
        """X times its transpose, whose late pair sums X's extreme values."""
        split = late_split(X.n, tag)
        got = minplus_decomposed(X, split, X.transpose(), split, tag)
        assert got == minplus_naive(X, X.transpose())
        return got

    @pytest.mark.parametrize("n", [1, 65])
    def test_fig1_at_both_ends(self, n):
        A2, B2 = shifted_pair(n)
        low = self.self_product(A2, NI)
        high = self.self_product(B2.transpose(), ND)
        assert low.values.min() < -0.98 * TOP and 2 * B2.entries.max() > 0.98 * TOP
        if n == 1:
            assert (low.values.min(), high.values.max()) == (-TOP, TOP)

    @pytest.mark.parametrize("n", [1, 65])
    def test_fig2_at_both_ends(self, n):
        A2, B2 = shifted_pair(n)
        rng = np.random.default_rng(n)
        bound = SHIFTED_ENTRY_BOUND
        for X, top in ((A2, -bound), (B2.transpose(), bound)):
            # Constant columns at the same end as X's extreme values.
            C = IntMatrix(
                np.tile(rng.choice([top, top - np.sign(top)], size=n), (n, 1)),
                entry_bound=SHIFTED_ENTRY_BOUND,
            )
            rows = late_split(n, ND if top > 0 else NI)
            cols = decompose_cols(C, "uniform")
            assert minplus_mixed_uniform(X, rows, C, cols) == minplus_naive(X, C)

    @pytest.mark.parametrize("n", [1, 65])
    @pytest.mark.parametrize("end", [-1, 1])
    def test_few_values_at_both_ends(self, n, end):
        rng = np.random.default_rng(n)
        values = end * np.array([SHIFTED_ENTRY_BOUND, SHIFTED_ENTRY_BOUND - 1])
        A, B = (
            IntMatrix(rng.choice(values, size=(n, n)), entry_bound=SHIFTED_ENTRY_BOUND)
            for _ in range(2)
        )
        got = minplus_few_values_product(
            A, decompose_rows(A, "uniform"), B, decompose_cols(B, "uniform")
        )
        want = minplus_naive(A, B)
        assert got == want and want.all_finite
        assert abs(want.values).max() >= TOP - 2


class TestShiftMatrices:
    def test_zero_shift(self):
        Z = IntMatrix(np.zeros((2, 2), dtype=np.int64))
        A2, B2, M = shift_transform_matrices(Z, Z)
        assert M == 0 and A2 == Z and B2 == Z

    def test_worked_2x2(self):
        A = IntMatrix([[1, -3], [2, 0]])
        B = IntMatrix([[4, 1], [-2, 5]])
        A2, B2, M = shift_transform_matrices(A, B)
        assert M == 5
        assert A2.entries.tolist() == [[11, 17], [12, 20]]
        assert B2.entries.tolist() == [[-6, -9], [-22, -15]]
        assert rows_monotone(A2, ND) and cols_monotone(B2, NI)
        assert minplus_naive(A2, B2) == minplus_naive(A, B)

    def test_mirrored_direction(self):
        rng = np.random.default_rng(40)
        A = IntMatrix(rng.integers(-30, 30, (9, 9)))
        B = IntMatrix(rng.integers(-30, 30, (9, 9)))
        A2, B2, _ = shift_transform_matrices(A, B, "noninc")
        assert rows_monotone(A2, NI) and cols_monotone(B2, ND)
        assert minplus_naive(A2, B2) == minplus_naive(A, B)

    def test_random_instances(self):
        for seed in range(25):
            A = random_matrix(seed, 12)
            B = random_matrix(seed + 1, 12)
            A2, B2, M = shift_transform_matrices(A, B)
            assert M == max(
                int(np.abs(A.entries).max()), int(np.abs(B.entries).max())
            )
            assert rows_monotone(A2, ND) and cols_monotone(B2, NI)
            assert minplus_naive(A2, B2) == minplus_naive(A, B)

    def test_overflow_guard(self):
        from minplus import SHIFTED_ENTRY_BOUND

        big = IntMatrix([[2**61]], entry_bound=SHIFTED_ENTRY_BOUND)
        with pytest.raises(OverflowError):
            shift_transform_matrices(big, big)


class TestHelpers:
    def test_decompose_rows_modes(self):
        M = IntMatrix(np.array([[3, 1, 2], [5, 5, 5], [9, 4, 4]]))
        by_rows = decompose_rows(M, "nondec")
        assert [d.part_count for d in by_rows] == [2, 1, 2]  # each row its own
        uni = decompose_rows(M, "uniform")
        assert uni[1].parts[0].indices == (0, 1, 2)

    def test_decompose_cols_reads_columns(self):
        M = IntMatrix(np.array([[1, 9], [2, 8]]))
        cols = decompose_cols(M, "nondec")
        assert cols[0].parts[0].indices == (0, 1)
