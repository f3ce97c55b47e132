"""Exact counting convolutions, Boolean convolutions, and extreme
convolution witnesses: the capped word scan and the block search that
takes the outputs it leaves."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from minplus import fastconv
from minplus import (
    BoolVector,
    IntVector,
    LengthMismatch,
    OpCounters,
    PrecisionWindowExceeded,
    bool_convolution,
    conv_extreme_witness,
    int_convolution,
)


def bv(bits):
    return BoolVector(np.array(bits, dtype=bool))


def int_convolution_on(kernel, p, q, monkeypatch):
    """``int_convolution`` on the "direct" or the "fft" kernel at any size."""
    with monkeypatch.context() as m:
        m.setattr(fastconv, "_DIRECT_CUTOFF", math.inf if kernel == "direct" else 0)
        return int_convolution(p, q)


class TestIntConvolution:
    def test_unit_pair(self):
        out = int_convolution(IntVector([1, 1]), IntVector([1, 1]))
        assert out.coords.tolist() == [1, 2, 1]

    def test_characteristic_count_example(self):
        p = IntVector([1, 0, 1, 0, 0, 1])
        q = IntVector([1, 0, 1, 0, 1, 0])
        out = int_convolution(p, q)
        assert out[4] == 2  # index pairs (0,4) and (2,2)
        assert np.array_equal(out.coords, oracles.int_conv(p.coords, q.coords))

    def test_methods_agree_across_the_cutoff(self, monkeypatch):
        rng = np.random.default_rng(7)
        for n in (5, 64, 511, 512, 513, 700):
            p = IntVector(rng.integers(0, 31, n))
            q = IntVector(rng.integers(0, 31, n))
            direct = int_convolution_on("direct", p, q, monkeypatch)
            fft = int_convolution_on("fft", p, q, monkeypatch)
            auto = int_convolution(p, q)
            assert direct == fft == auto

    def test_small_sizes_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 9):
            p = rng.integers(0, 50, n)
            q = rng.integers(0, 50, n)
            out = int_convolution_on("fft", IntVector(p), IntVector(q), monkeypatch)
            assert np.array_equal(out.coords, oracles.int_conv(p, q))

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=80)
    def test_matches_oracle(self, ps, data):
        qs = data.draw(
            st.lists(st.integers(0, 9), min_size=len(ps), max_size=len(ps))
        )
        out = int_convolution(IntVector(ps), IntVector(qs))
        assert np.array_equal(out.coords, oracles.int_conv(ps, qs))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            int_convolution(IntVector([1]), IntVector([1, 2]))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            int_convolution(IntVector([-1, 0]), IntVector([0, 0]))

    def test_precision_window(self):
        big = IntVector(np.full(200, 10**5))
        with pytest.raises(PrecisionWindowExceeded):
            int_convolution(big, big)

    def test_exact_at_the_window_edge(self, monkeypatch):
        # 1289**2 * 600 = 996,912,600 is just inside the window; 1290 is not.
        n, top = 600, 1289
        rng = np.random.default_rng(13)
        full = np.full(n, top)
        pairs = [(full, full), (rng.integers(0, top + 1, n), full)]
        for p, q in pairs:
            out = int_convolution_on("fft", IntVector(p), IntVector(q), monkeypatch)
            assert np.array_equal(out.coords, oracles.int_conv(p, q))
        assert int_convolution(IntVector(full), IntVector(full))[n - 1] == 996_912_600
        over = IntVector(np.full(n, top + 1))
        with pytest.raises(PrecisionWindowExceeded):
            int_convolution_on("fft", over, over, monkeypatch)


class TestBoolConvolution:
    def test_golden(self):
        out = bool_convolution(bv([1, 0, 1, 0, 0, 1]), bv([1, 0, 1, 0, 1, 0]))
        assert out.bits.astype(int).tolist() == [1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0]

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 17, 64):
            for density in (0.1, 0.5, 0.9):
                p = rng.random(n) < density
                q = rng.random(n) < density
                got = bool_convolution(bv(p), bv(q))
                assert np.array_equal(got.bits, oracles.bool_conv(p, q))

    def test_counter_bumps(self):
        c = OpCounters()
        bool_convolution(bv([1]), bv([1]), counters=c)
        bool_convolution(bv([1]), bv([0]), counters=c)
        assert c.bool_convolutions == 2

    @staticmethod
    def _word_limit(n):
        # The largest sparse popcount the word kernel takes at length n.
        words = (2 * n + 62) // 64
        return int(fastconv._WORD_CUTOFF * n * math.log2(n + 1) // words)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 1000])
    def test_both_kernels_match_numpy_around_the_cutoff(self, n, monkeypatch):
        transforms = []
        exact = fastconv._conv_exact

        def spy(*args):
            transforms.append(1)
            return exact(*args)

        monkeypatch.setattr(fastconv, "_conv_exact", spy)
        rng = np.random.default_rng(n)
        limit = self._word_limit(n)
        cases = [(np.zeros(n, bool), np.zeros(n, bool), False)]
        cases.append((np.ones(n, bool), np.ones(n, bool), n > limit))
        for k in sorted({max(limit - 1, 0), limit, min(limit + 1, n)}):
            sparse = np.zeros(n, bool)
            sparse[rng.choice(n, k, replace=False)] = True
            dense = np.ones(n, bool)
            dense[rng.choice(n, (n - k) // 2, replace=False)] = False
            cases += [(sparse, dense, k > limit), (dense, sparse, k > limit)]
        for p, q, transformed in cases:
            c = OpCounters()
            transforms.clear()
            got = bool_convolution(bv(p), bv(q), counters=c)
            want = np.convolve(p.astype(int), q.astype(int)) > 0
            assert np.array_equal(got.bits, want), (n, p.sum(), q.sum())
            assert len(transforms) == transformed, (n, p.sum(), q.sum())
            assert c.bool_convolutions == 1


    @staticmethod
    def _spy_tables(monkeypatch):
        """The row count of every shift table built from now on."""
        rows, build = [], fastconv._shift_table

        def spy(bits, shifts=range(64)):
            rows.append(len(shifts))
            return build(bits, shifts)

        monkeypatch.setattr(fastconv, "_shift_table", spy)
        return rows

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 1000])
    def test_one_held_table_serves_many_sparse_partners(self, n, monkeypatch):
        # A dense vector given its 64-shift table by hold_shift_table is
        # read, never rebuilt, against every sparser partner the word
        # kernel takes, in either argument order.
        rows = self._spy_tables(monkeypatch)
        rng = np.random.default_rng(n)
        limit = self._word_limit(n)
        dense_bits = rng.random(n) < 0.6
        dense_bits[: limit + 1] = True  # more set bits than any partner
        dense = bv(dense_bits)
        fastconv.hold_shift_table(dense)
        assert rows == [64]
        # Offsets n - 1 - l with l at a multiple of 64 from n - 1 read
        # their window from bit 0 of a word (a shift by 0).
        aligned = np.arange(n - 1, -1, -64)
        for trial in range(12):
            k = int(rng.integers(0, limit + 1))
            sparse_bits = np.zeros(n, bool)
            if trial % 3 == 0:
                sparse_bits[aligned[:k]] = True
            else:
                sparse_bits[rng.choice(n, k, replace=False)] = True
            sparse = bv(sparse_bits)
            want = np.convolve(sparse_bits.astype(int), dense_bits.astype(int)) > 0
            for p, q in ((sparse, dense), (dense, sparse)):
                c = OpCounters()
                assert np.array_equal(bool_convolution(p, q, counters=c).bits, want)
                assert c.bool_convolutions == 1
        assert rows == [64]

    @pytest.mark.parametrize("n", [64, 1000])
    def test_no_table_is_held_unless_asked(self, n, monkeypatch):
        # Without a held table on the denser side (none at all, or one on
        # the sparser side) a call builds only the rows for the shifts its
        # offsets read, and drops them; the sparser side keeps its offsets.
        rows = self._spy_tables(monkeypatch)
        rng = np.random.default_rng(4)
        dense_bits = rng.random(n) < 0.7
        for k in (0, 1, 5):
            sparse_bits = np.zeros(n, bool)
            sparse_bits[rng.choice(n, k, replace=False)] = True
            dense, sparse = bv(dense_bits), bv(sparse_bits)
            fastconv.hold_shift_table(sparse)
            rows.clear()
            want = np.convolve(sparse_bits.astype(int), dense_bits.astype(int)) > 0
            for p, q in ((sparse, dense), (dense, sparse)):
                assert np.array_equal(bool_convolution(p, q).bits, want)
            assert len(rows) == 2 and max(rows) <= k
            assert getattr(dense, "_derived", None) is None
            assert set(sparse._derived) == {"shifts", "offsets"}

    def test_result_is_read_only_and_owns_its_bits(self):
        rng = np.random.default_rng(5)
        dense, sparse = bv(rng.random(300) < 0.7), bv(rng.random(300) < 0.02)
        for held in (False, True):  # a table for the call, then a held one
            if held:
                fastconv.hold_shift_table(dense)
            out = bool_convolution(sparse, dense)
            assert not out.bits.flags.writeable
            with pytest.raises(ValueError):
                out.bits[0] = True
            for cached in getattr(dense, "_derived", {}).values():
                assert not np.shares_memory(out.bits, cached)
            for v in (dense, sparse):
                assert not np.shares_memory(out.bits, v.bits)

    def test_cache_leaves_equality_hash_and_copies_alone(self):
        rng = np.random.default_rng(6)
        bits = rng.random(200) < 0.5
        v, fresh = bv(bits), bv(bits)
        before = hash(v), repr(v)
        fastconv.hold_shift_table(v)
        bool_convolution(bv(np.eye(1, 200, 7, dtype=bool)[0]), v)
        assert "shifts" in v._derived
        assert v == fresh and fresh == v
        assert (hash(v), repr(v)) == before == (hash(fresh), repr(fresh))
        assert bv(bits[::-1]) != v
        # Copies and pickles carry the bits only, never the (64, windows,
        # count) view, which a copy would make n**2 / 4 bytes.
        for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert c == v and not c.bits.flags.writeable
            assert getattr(c, "_derived", None) is None
        assert len(pickle.dumps(v)) < 1000


class TestFftSize:
    def test_least_five_smooth_length(self):
        def smooth(x):
            for f in (2, 3, 5):
                while x % f == 0:
                    x //= f
            return x == 1

        for m in range(1, 5001):
            size = fastconv._fft_size(m)
            assert m <= size <= 1 << (m - 1).bit_length(), m
            assert smooth(size), m
            assert not any(smooth(x) for x in range(m, size)), m
        assert fastconv._fft_size(32949) == 33750


class TestConvExtremeWitness:
    def test_min_witness_goldens(self):
        q = bv([1, 0, 1, 0, 1, 0])
        assert conv_extreme_witness(bv([1, 0, 1, 0, 0, 1]), q, "min").get(4) == 0
        assert conv_extreme_witness(bv([0, 1, 0, 0, 1, 0]), q, "min").get(4) == 4
        w = conv_extreme_witness(bv([0, 0, 0, 1, 0, 0]), bv([0, 1, 0, 1, 0, 1]), "min")
        assert w.get(4) == 3

    def test_max_witness_at_same_coordinate(self):
        w = conv_extreme_witness(
            bv([1, 0, 1, 0, 0, 1]), bv([1, 0, 1, 0, 1, 0]), "max"
        )
        assert w.get(4) == 2  # pairs (0,4) and (2,2); the largest l wins

    def test_undefined_where_bit_is_zero(self):
        w = conv_extreme_witness(bv([1, 0]), bv([1, 0]), "min")
        assert w.get(0) == 0 and w.get(1) is None and w.get(2) is None

    def test_matches_oracle_all_block_sizes(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 8, 16, 33, 64, 128):
            root = math.isqrt(n - 1) + 1 if n > 1 else 1
            for density in (0.05, 0.4, 0.9):
                p = rng.random(n) < density
                q = rng.random(n) < density
                for kind in ("min", "max"):
                    want = oracles.conv_witness_loops(p, q, kind)
                    results = [
                        conv_extreme_witness(
                            bv(p), bv(q), kind, block_size=bs
                        ).values
                        for bs in (1, root, n)
                    ]
                    for got in results:
                        assert np.array_equal(got, want), (n, kind, density)

    def test_matches_oracle_across_transform_chunks(self):
        # Block size 1 makes n transform rows, more than one chunk holds.
        rng = np.random.default_rng(17)
        for n in (600, 1000):
            p = rng.random(n) < 0.2
            q = rng.random(n) < 0.2
            for kind in ("min", "max"):
                want = oracles.conv_witness_loops(p, q, kind)
                for bs in (1, 7, None):
                    got = conv_extreme_witness(bv(p), bv(q), kind, block_size=bs)
                    assert np.array_equal(got.values, want), (n, kind, bs)

    def test_fallback_matches_oracle_all_block_sizes(self, monkeypatch):
        # With no scan steps every output goes to the block search.
        monkeypatch.setattr(fastconv, "_SCAN_CAP", 0)
        self.test_matches_oracle_all_block_sizes()

    def test_fallback_matches_oracle_across_transform_chunks(self, monkeypatch):
        monkeypatch.setattr(fastconv, "_SCAN_CAP", 0)
        self.test_matches_oracle_across_transform_chunks()

    def test_fallback_matches_oracle_on_acceptance_block_sizes(self, monkeypatch):
        # The convolution half of acceptance criterion 4, scan switched off.
        monkeypatch.setattr(fastconv, "_SCAN_CAP", 0)
        rng = np.random.default_rng(123)
        for n in (5, 17, 64, 128):
            for density in (0.15, 0.5, 0.9):
                p = rng.random(n) < density
                q = rng.random(n) < density
                hits = oracles.bool_conv(p, q)
                for kind in ("min", "max"):
                    want = oracles.conv_witness_loops(p, q, kind)
                    for bs in (1, math.isqrt(n - 1) + 1, n):
                        got = conv_extreme_witness(bv(p), bv(q), kind, block_size=bs)
                        assert np.array_equal(got.values, want), (n, kind, bs)
                        assert np.array_equal(got.defined, hits), (n, kind, bs)

    @pytest.mark.parametrize("pattern", ["last_only", "halves", "sparse"])
    def test_adversarial_inputs_reach_the_cap(self, pattern, monkeypatch):
        # n = 5000: a scan may need 79 words, the cap is ceil(sqrt n) = 71.
        # The halves stay within it (at most 48 steps); the others do not.
        n, cap = 5000, 71
        p, q = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        if pattern == "last_only":
            p[n - 1], q[:] = True, True
        elif pattern == "halves":
            p[: n // 2], q[n // 2 :] = True, True
        else:
            rng = np.random.default_rng(29)
            p, q = rng.random(n) < 0.02, rng.random(n) < 0.02
        scans = []
        scan = fastconv._scan

        def spy(*args):
            left, steps = scan(*args)
            scans.append((steps, left.size))
            return left, steps

        monkeypatch.setattr(fastconv, "_scan", spy)
        for kind in ("min", "max"):
            scans.clear()
            want = oracles.conv_witness_loops(p.tolist(), q.tolist(), kind)
            got = conv_extreme_witness(bv(p), bv(q), kind)
            assert np.array_equal(got.values, want), (pattern, kind)
            # The first scan never runs past the cap.  Where it stops there,
            # the block search's restarted scan resolves every output left.
            if pattern == "halves":
                assert len(scans) == 1 and scans[0][0] <= cap, scans
            else:
                assert len(scans) == 2 and scans[0][0] == cap, scans
                assert scans[1][1] == 0, scans

    def test_word_shift_by_64_is_zero(self):
        # The scan reads a window at bit offset r as (w >> r) | (v << 64 - r)
        # and relies on numpy giving 0 for r = 0, where C leaves it undefined.
        words = np.array([1, 2**63 + 5], dtype=np.uint64)
        assert not (words << np.uint64(64)).any()
        assert not (words >> np.uint64(64)).any()

    def test_planted_solve_does_not_load_the_transform(self):
        # Planted fig3 parts resolve in the scan, so numpy.fft stays unloaded.
        code = (
            "import sys\n"
            "from minplus import convolution, generators as g\n"
            "a, da = g.planted_monotone_vector(0, 2048, 3, 'nondec')\n"
            "b, db = g.planted_monotone_vector(1, 2048, 3, 'noninc')\n"
            "convolution.conv_decomposed(a, da, b, db)\n"
            "print('numpy.fft' in sys.modules)\n"
        )
        src = str(Path(fastconv.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert done.stdout.strip() == "False"

    def test_planted_few_values_solve_does_not_load_the_transform(self):
        # 64-member groups at n = 4096 take the word kernel of
        # bool_convolution, so numpy.fft stays unloaded.
        code = (
            "import sys\n"
            "from minplus import convolution, generators as g\n"
            "a = g.random_vector(0, 4096)\n"
            "b, db = g.planted_uniform_vector(1, 4096, 3)\n"
            "convolution.conv_few_values(a, b, db, ell=64)\n"
            "print('numpy.fft' in sys.modules)\n"
        )
        src = str(Path(fastconv.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True,
        )
        assert done.stdout.strip() == "False"

    def test_all_zero_side_has_no_witnesses(self):
        w = conv_extreme_witness(bv([0, 0, 0]), bv([1, 1, 1]), "min")
        assert not w.defined.any()

    def test_block_size_validation(self):
        p = bv([1, 0, 1])
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                conv_extreme_witness(p, p, "min", block_size=bad)

    def test_block_size_rejects_floats_and_bools(self):
        p = bv([1, 0, 1])
        for bad in (2.5, 2.0, True, np.float64(2.0)):
            with pytest.raises(TypeError):
                conv_extreme_witness(p, p, "min", block_size=bad)
        want = conv_extreme_witness(p, p, "min", block_size=2)
        assert conv_extreme_witness(p, p, "min", block_size=np.int64(2)) == want

    def test_unknown_kind_rejected(self):
        p = bv([1, 0, 1])
        with pytest.raises(ValueError, match="'min' or 'max'"):
            conv_extreme_witness(p, p, "median")

    def test_counter_bumps(self):
        c = OpCounters()
        conv_extreme_witness(bv([1, 0]), bv([1, 1]), "min", counters=c)
        assert c.witness_conv_calls == 1
