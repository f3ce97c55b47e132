"""Boolean products on an exact float GEMM, and blocked extreme-witness
products on packed uint64 words."""

import math
import tracemalloc

import numpy as np
import pytest
from minplus import (
    NO_WITNESS,
    BoolMatrix,
    DimensionMismatch,
    OpCounters,
    bool_matmul,
    mat_extreme_witness,
)

from minplus import boolmat

import oracles


def bm(bits):
    return BoolMatrix(np.array(bits, dtype=bool))


def witness_reference(P, Q, kind):
    """The loop oracle; at n = 520, where it is slow, the tensor oracle
    64 rows at a time."""
    if len(P) <= 200:
        return oracles.mat_witness_loops(P.tolist(), Q.tolist(), kind)
    blocks = [P[i : i + 64] for i in range(0, len(P), 64)]
    return np.concatenate([oracles.mat_witness_tensor(b, Q, kind) for b in blocks])


def tile_row_col(row, col, n=6):
    """Matrix pair where P repeats ``row`` and Q repeats ``col``, so every
    entry of the product shares one witness."""
    P = bm(np.tile(np.array(row, dtype=bool), (n, 1)))
    Q = bm(np.tile(np.array(col, dtype=bool)[:, None], (1, n)))
    return P, Q


class TestBoolMatmul:
    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        Q = bm(rng.random((9, 9)) < 0.4)
        assert bool_matmul(bm(np.eye(9, dtype=bool)), Q) == Q

    def test_single_overlap_row_col(self):
        P, Q = tile_row_col([1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 1, 0])
        assert bool_matmul(P, Q).bits.all()

    def test_zero_annihilates(self):
        Z = bm(np.zeros((5, 5), dtype=bool))
        Q = bm(np.ones((5, 5), dtype=bool))
        assert not bool_matmul(Z, Q).bits.any()
        assert not bool_matmul(Q, Z).bits.any()

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 7, 31, 64, 65, 100):
            P = rng.random((n, n)) < 0.25
            Q = rng.random((n, n)) < 0.25
            got = bool_matmul(bm(P), bm(Q))
            assert np.array_equal(got.bits, oracles.bool_matmul(P, Q)), n

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bool_matmul(bm(np.ones((2, 2))), bm(np.ones((3, 3))))

    def test_counter_bumps(self):
        c = OpCounters()
        I2 = bm(np.eye(2, dtype=bool))
        bool_matmul(I2, I2, counters=c)
        assert c.bool_products == 1


class TestMatExtremeWitness:
    def test_min_witness_goldens(self):
        P, Q = tile_row_col([1, 0, 1, 0, 0, 1], [1, 1, 0, 0, 1, 0])
        assert mat_extreme_witness(P, Q, "min").get(4, 5) == 1
        P, Q = tile_row_col([1, 0, 1, 0, 0, 1], [0, 0, 1, 1, 0, 1])
        assert mat_extreme_witness(P, Q, "min").get(4, 5) == 3
        P, Q = tile_row_col([0, 0, 0, 1, 0, 0], [0, 0, 1, 1, 0, 1])
        assert mat_extreme_witness(P, Q, "min").get(4, 5) == 4

    def test_max_witness_picks_other_end(self):
        P, Q = tile_row_col([1, 0, 1, 0, 0, 1], [1, 1, 1, 0, 0, 1])
        assert mat_extreme_witness(P, Q, "min").get(1, 1) == 1
        assert mat_extreme_witness(P, Q, "max").get(1, 1) == 6

    def test_none_where_product_bit_zero(self):
        P, Q = tile_row_col([1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 1, 1])
        W = mat_extreme_witness(P, Q, "min")
        assert not W.defined.any()
        assert W.get(2, 3) is None

    def test_matches_oracle_all_block_sizes(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5, 9, 16, 33, 64):
            root = math.isqrt(n - 1) + 1 if n > 1 else 1
            for density in (0.05, 0.3, 0.8):
                P = rng.random((n, n)) < density
                Q = rng.random((n, n)) < density
                for kind in ("min", "max"):
                    if n <= 16:
                        want = oracles.mat_witness_loops(P, Q, kind)
                    else:
                        want = oracles.mat_witness_tensor(P, Q, kind)
                    for bs in {1, root, n}:
                        got = mat_extreme_witness(
                            bm(P), bm(Q), kind, block_size=bs
                        ).values
                        assert np.array_equal(got, want), (n, kind, bs)

    def test_weight_sums_at_saturation(self):
        # All-ones inputs set every bit of every block's words: a 64-wide
        # block's word is 2**64 - 1, the largest value the engine forms.
        n = 120
        ones = bm(np.ones((n, n), dtype=bool))
        for bs in (1, 52, 53, 64, 65, 120):
            got = mat_extreme_witness(ones, ones, "min", block_size=bs)
            assert (got.values == 1).all(), bs
            got = mat_extreme_witness(ones, ones, "max", block_size=bs)
            assert (got.values == n).all(), bs

    def test_witness_on_last_column_of_a_full_block(self):
        # P and Q share only index 52, the last column of the first
        # 52-wide block: other indices are set in P or in Q, never both.
        n = 120
        rng = np.random.default_rng(5)
        P = rng.random((n, n)) < 0.5
        Q = rng.random((n, n)) < 0.5
        P[:, 1::2] = False
        Q[0::2, :] = False
        P[:, 51], Q[51, :] = True, True
        for kind in ("min", "max"):
            want = oracles.mat_witness_tensor(P, Q, kind)
            assert (want == 52).all()
            for bs in (11, 52, 53, 120):
                got = mat_extreme_witness(bm(P), bm(Q), kind, block_size=bs)
                assert np.array_equal(got.values, want), (kind, bs)

    def test_witness_on_either_end_of_a_full_word(self):
        # P and Q share only index k + 1.  Index 64 is bit 2**63 of the
        # first 64-wide block's word for "min", index 1 for "max".
        n = 130
        rng = np.random.default_rng(6)
        idx = np.arange(n)
        for k in (0, 63, 64, 127):
            P = (rng.random((n, n)) < 0.5) & (idx % 2 == 0)
            Q = (rng.random((n, n)) < 0.5) & (idx[:, None] % 2 == 1)
            P[:, k], Q[k, :] = True, True
            for kind in ("min", "max"):
                for bs in (63, 64, 65, 130):
                    got = mat_extreme_witness(bm(P), bm(Q), kind, block_size=bs)
                    assert (got.values == k + 1).all(), (k, kind, bs)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 200, 520])
    def test_default_block_matches_loops(self, n):
        # The default block is a full 64-bit word.  Density 0.5 ends in the
        # first block; sparser inputs leave entries for the later blocks.
        rng = np.random.default_rng(n)
        for density in (0.03, 0.15, 0.5):
            P = rng.random((n, n)) < density
            Q = rng.random((n, n)) < density
            for kind in ("min", "max"):
                want = witness_reference(P, Q, kind)
                got = mat_extreme_witness(bm(P), bm(Q), kind).values
                assert np.array_equal(got, want), (n, density, kind)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 200, 520])
    def test_default_block_visits_every_block(self, n):
        # An all-zero P leaves every entry unset in every block.
        P = np.zeros((n, n), dtype=bool)
        Q = np.ones((n, n), dtype=bool)
        for kind in ("min", "max"):
            want = witness_reference(P, Q, kind)
            assert (want == NO_WITNESS).all()
            got = mat_extreme_witness(bm(P), bm(Q), kind).values
            assert np.array_equal(got, want), (n, kind)

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130, 200, 520])
    def test_default_block_witnesses_only_in_one_block(self, n):
        # P and Q share indices only inside [lo, hi): the block each kind
        # visits last ("min" blocks start at index 1, "max" blocks end at
        # n), and, for "max", the top indices, which it visits first.
        # Elsewhere an index is set in P or in Q, never both.
        last = (n - 1) // 64 * 64
        idx = np.arange(n)
        rng = np.random.default_rng(100 + n)
        spans = {"min": [(last, n)], "max": [(0, n - last), (last, n)]}
        for kind, pairs in spans.items():
            for lo, hi in pairs:
                inside = (idx >= lo) & (idx < hi)
                P = (rng.random((n, n)) < 0.5) & ((idx % 2 == 0) | inside)
                Q = (rng.random((n, n)) < 0.5) & ((idx % 2 == 1) | inside)[:, None]
                P[0, lo:hi], Q[lo:hi, 0] = True, True
                want = witness_reference(P, Q, kind)
                defined = want != NO_WITNESS
                assert defined.any() and (want[defined] > lo).all()
                assert (want[defined] <= hi).all()
                got = mat_extreme_witness(bm(P), bm(Q), kind).values
                assert np.array_equal(got, want), (n, kind, lo)

    def test_max_starts_on_a_full_top_block(self, monkeypatch):
        # Every entry has a witness among the top 64 indices, and some
        # only below the top n mod 64 = 2: the first "max" block holds all
        # 64, so its dense pass settles every entry and the mask pass never
        # runs.
        n = 130
        rng = np.random.default_rng(5)
        top = np.arange(n) >= n - 64
        P = (rng.random((n, n)) < 0.5) & top
        Q = (rng.random((n, n)) < 0.5) & top[:, None]
        P[:, 100], Q[100, :] = True, True
        P[0, n - 2 :] = False
        calls = []
        real = boolmat.lowest_set_bit
        monkeypatch.setattr(
            boolmat, "lowest_set_bit", lambda w: calls.append(w.size) or real(w)
        )
        got = mat_extreme_witness(bm(P), bm(Q), "max").values
        assert np.array_equal(got, witness_reference(P, Q, "max"))
        assert calls == [n * n]

    def test_peak_memory_is_a_few_n_squared_arrays(self):
        n = 512
        rng = np.random.default_rng(9)
        P = bm(rng.random((n, n)) < 0.3)
        Q = bm(rng.random((n, n)) < 0.3)
        for kind in ("min", "max"):
            tracemalloc.start()
            try:
                mat_extreme_witness(P, Q, kind)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 6 * 8 * n * n, (kind, peak / (8 * n * n))

    def test_min_max_duality_under_index_reversal(self):
        rng = np.random.default_rng(21)
        for n in (1, 4, 13, 40):
            P = rng.random((n, n)) < 0.3
            Q = rng.random((n, n)) < 0.3
            wmax = mat_extreme_witness(bm(P), bm(Q), "max").values
            wmin_rev = mat_extreme_witness(
                bm(P[:, ::-1]), bm(Q[::-1, :]), "min"
            ).values
            expect = np.where(wmin_rev >= 0, n + 1 - wmin_rev, -1)
            assert np.array_equal(wmax, expect)

    def test_undefined_iff_product_zero(self):
        rng = np.random.default_rng(13)
        P = rng.random((20, 20)) < 0.15
        Q = rng.random((20, 20)) < 0.15
        prod = bool_matmul(bm(P), bm(Q))
        W = mat_extreme_witness(bm(P), bm(Q), "min")
        assert np.array_equal(W.defined, prod.bits)

    def test_consistency_across_kinds(self):
        # min and max witnesses are defined at exactly the same cells
        rng = np.random.default_rng(17)
        P = rng.random((18, 18)) < 0.2
        Q = rng.random((18, 18)) < 0.2
        wmin = mat_extreme_witness(bm(P), bm(Q), "min")
        wmax = mat_extreme_witness(bm(P), bm(Q), "max")
        assert np.array_equal(wmin.defined, wmax.defined)
        # and the min witness never exceeds the max witness
        both = wmin.defined
        assert np.all(wmin.values[both] <= wmax.values[both])

    def test_block_size_validation(self):
        P = bm(np.ones((3, 3)))
        for bad in (0, 4, -2):
            with pytest.raises(ValueError):
                mat_extreme_witness(P, P, "min", block_size=bad)

    def test_block_size_rejects_floats_and_bools(self):
        P = bm(np.ones((3, 3)))
        for bad in (2.5, 2.0, True, np.float64(2.0)):
            with pytest.raises(TypeError):
                mat_extreme_witness(P, P, "min", block_size=bad)
        want = mat_extreme_witness(P, P, "min", block_size=2)
        assert mat_extreme_witness(P, P, "min", block_size=np.int64(2)) == want

    def test_unknown_kind_rejected(self):
        P = bm(np.ones((2, 2)))
        with pytest.raises(ValueError):
            mat_extreme_witness(P, P, "median")

    def test_counter_bumps(self):
        c = OpCounters()
        P = bm(np.ones((2, 2)))
        mat_extreme_witness(P, P, "min", counters=c)
        mat_extreme_witness(P, P, "max", counters=c)
        assert c.witness_matrix_calls == 2
