"""Exact counting convolutions on the package's transform, Boolean
convolutions, and extreme convolution witnesses: the capped scan and
the block search that takes the outputs it leaves."""

import itertools
import math
import os
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
    bool_convolution,
    conv_extreme_witness,
)
from oracles import PrecisionWindowExceeded, int_convolution


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
        for n in (5, 64, 223, 224, 225, 511, 512, 513, 700):
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
        # A dense operand packed with its 64-shift table is read, never
        # rebuilt, against every sparser partner the word kernel takes, plain
        # or packed with its offsets, in either argument order.
        rows = self._spy_tables(monkeypatch)
        rng = np.random.default_rng(n)
        limit = self._word_limit(n)
        dense_bits = rng.random(n) < 0.6
        dense_bits[: limit + 1] = True  # more set bits than any partner
        dense = fastconv.packed(dense_bits, "shifts")
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
            want = np.convolve(sparse_bits.astype(int), dense_bits.astype(int)) > 0
            for sparse in (bv(sparse_bits), fastconv.packed(sparse_bits, "offsets")):
                for p, q in ((sparse, dense), (dense, sparse)):
                    c = OpCounters()
                    got = bool_convolution(p, q, counters=c)
                    assert np.array_equal(got.bits, want)
                    assert c.bool_convolutions == 1
        assert rows == [64]

    @pytest.mark.parametrize("n", [64, 1000])
    def test_no_table_is_held_unless_asked(self, n, monkeypatch):
        # Without a packed table on the denser side (plain vectors, or a
        # table packed for the sparser side) a call builds only the rows
        # for the shifts its offsets read.
        rows = self._spy_tables(monkeypatch)
        rng = np.random.default_rng(4)
        dense_bits = rng.random(n) < 0.7
        for k in (0, 1, 5):
            sparse_bits = np.zeros(n, bool)
            sparse_bits[rng.choice(n, k, replace=False)] = True
            want = np.convolve(sparse_bits.astype(int), dense_bits.astype(int)) > 0
            for sparse in (bv(sparse_bits), fastconv.packed(sparse_bits, "shifts")):
                dense = bv(dense_bits)
                rows.clear()
                for p, q in ((sparse, dense), (dense, sparse)):
                    assert np.array_equal(bool_convolution(p, q).bits, want)
                assert len(rows) == 2 and max(rows) <= k

    @pytest.mark.parametrize("n", [64, 129, 1000])
    def test_forms_packed_for_the_other_side_are_repacked(self, n):
        # An "offsets" form on the denser side and a "shifts" form on the
        # sparser side are packed again from their bits for the call.
        rng = np.random.default_rng(n + 7)
        dense_bits = rng.random(n) < 0.7
        sparse_bits = np.zeros(n, bool)
        sparse_bits[rng.choice(n, 3, replace=False)] = True
        want = np.convolve(sparse_bits.astype(int), dense_bits.astype(int)) > 0
        dense = fastconv.packed(dense_bits, "offsets")
        sparse = fastconv.packed(sparse_bits, "shifts")
        for p, q in ((sparse, dense), (dense, sparse)):
            assert np.array_equal(bool_convolution(p, q).bits, want)

    def test_result_is_read_only_and_owns_its_bits(self):
        rng = np.random.default_rng(5)
        dense_bits, sparse_bits = rng.random(300) < 0.7, rng.random(300) < 0.02
        table = fastconv.packed(dense_bits, "shifts")
        offsets = fastconv.packed(sparse_bits, "offsets")
        # Plain vectors (a table for the call), then the packed forms.
        for p, q in ((bv(sparse_bits), bv(dense_bits)), (offsets, table)):
            out = bool_convolution(p, q)
            assert not out.bits.flags.writeable
            with pytest.raises(ValueError):
                out.bits[0] = True
            for held in (p.bits, q.bits, table.words, *offsets.words):
                assert not np.shares_memory(out.bits, held)


class TestLeadRanks:
    """fig4's lead-group kernel: per output k, the rank of the lead's first
    member m with q_{k-m} set, read from the part's shift table; ranks from
    64 on all read 64."""

    @staticmethod
    def brute_force(members, q):
        n, none = q.size, min(len(members), 64)
        want = np.full(2 * n - 1, none)
        for k in range(2 * n - 1):
            for j, m in enumerate(members[:64]):
                if 0 <= k - m < n and q[k - m]:
                    want[k] = j
                    break
        return want

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 129, 1000])
    def test_matches_brute_force(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        sizes = sorted({1, 2, 3, 17, 63, 64, 65, 200} & set(range(1, n + 1)))
        for size in sizes:
            for trial in range(2):
                # One chunk of word columns, then one word per chunk.
                monkeypatch.setattr(fastconv, "_CHUNK_ELEMENTS", (1 << 17, 1)[trial])
                order = rng.permutation(n)
                lead = fastconv.packed_groups(order, size)[0]
                dense = rng.random(n) < 0.3
                sparse = np.zeros(n, bool)
                sparse[rng.choice(n, min(n, 5), replace=False)] = True
                for q, form in ((dense, "shifts"), (sparse, "offsets"), (sparse, None)):
                    part = bv(q) if form is None else fastconv.packed(q, form)
                    got = fastconv._lead_ranks(lead, part)
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, self.brute_force(order[:size], q))

    def test_every_lead_size_up_to_a_word_and_past_it(self):
        n = 200
        rng = np.random.default_rng(2)
        q = fastconv.packed(rng.random(n) < 0.05, "shifts")
        for size in [*range(1, 66), 100, n]:
            order = rng.permutation(n)
            lead = fastconv.packed_groups(order, size)[0]
            want = self.brute_force(order[:size], q.bits)
            assert np.array_equal(fastconv._lead_ranks(lead, q), want)

    def test_groups_list_their_members_in_order(self):
        n, ell = 130, 24
        order = np.random.default_rng(3).permutation(n)
        groups = fastconv.packed_groups(order, ell)
        assert len(groups) == math.ceil(n / ell)
        for t, g in enumerate(groups):
            members = order[t * ell : (t + 1) * ell]
            assert np.array_equal(np.flatnonzero(g.bits), np.sort(members))
            r, w = g.words
            assert np.array_equal(n - 1 - (64 * w + r), members)


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
        # The engine hands its fresh array over, read-only.
        for kind in ("min", "max"):
            w = conv_extreme_witness(bv([1, 0]), bv([1, 1]), kind)
            assert not w.values.flags.writeable

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
        # Each scan step takes the lowest set bits once: count its steps so.
        scans, calls = [], [0]
        scan, lowest = fastconv._scan, fastconv.lowest_set_bit

        def counting_lowest(words):
            calls[0] += 1
            return lowest(words)

        def spy(*args):
            before = calls[0]
            left = scan(*args)
            scans.append((calls[0] - before, left.size))
            return left

        monkeypatch.setattr(fastconv, "lowest_set_bit", counting_lowest)
        monkeypatch.setattr(fastconv, "_scan", spy)
        for kind in ("min", "max"):
            scans.clear()
            want = oracles.conv_witness_loops(p.tolist(), q.tolist(), kind)
            got = conv_extreme_witness(bv(p), bv(q), kind)
            assert np.array_equal(got.values, want), (pattern, kind)
            # The dense first step is the first of the cap's steps, so the
            # scan after it never runs past cap - 1.  Where it stops there,
            # the block search's restarted scan resolves every output left.
            if pattern == "halves":
                assert len(scans) == 1 and scans[0][1] == 0, scans
                assert 1 + scans[0][0] <= cap, scans
            else:
                assert len(scans) == 2 and 1 + scans[0][0] == cap, scans
                assert scans[1][1] == 0, scans

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 191, 2048])
    def test_first_step_windows_match_oracle(self, n):
        # The first step reads each output's 64 bits from its first legal
        # index lo on.  Output k >= n has lo = k - n + 1, mostly inside a
        # word (lo & 63 != 0); a lone p bit at x is found there for the
        # outputs with lo <= x <= lo + 63 and by the scan for the others.
        rng = np.random.default_rng(n)
        ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        lone = [zeros.copy() for _ in range(3)]
        for bits, x in zip(lone, (0, n // 2 + 37, n - 1)):
            bits[x % n] = True
        cases = [(ones, ones), (zeros, ones), (ones, zeros), (lone[2], lone[0]),
                 (rng.random(n) < 0.5, rng.random(n) < 0.05)]
        cases += [(bits, ones) for bits in lone] + [(ones, bits) for bits in lone]
        for p, q in cases:
            for kind in ("min", "max"):
                want = oracles.conv_witness_loops(p.tolist(), q.tolist(), kind)
                got = conv_extreme_witness(bv(p), bv(q), kind).values
                assert np.array_equal(got, want), (n, kind, p.sum(), q.sum())
        # Some lone-bit witnesses lie in a window that starts mid-word.
        k = np.arange(n, 2 * n - 1)
        mid = (k - n + 1) & 63 != 0
        got = conv_extreme_witness(bv(lone[1]), bv(ones), "min").values[n:]
        if n >= 65:
            assert (got[mid] == (n // 2 + 37) % n).any()

    def test_planted_pairs_leave_few_outputs_to_the_scan(self, monkeypatch):
        # The first step settles all but a few of the 4,095 outputs of each
        # planted n = 2048 pair; the scan sees only those.
        from minplus import convolution, generators

        sizes, packs = [], []
        scan, pack = fastconv._scan, fastconv._witness_pack

        def spy(p_windows, q_windows, n, ks, *rest):
            sizes.append(ks.size)
            return scan(p_windows, q_windows, n, ks, *rest)

        def pack_spy(bits, side, kind):
            packs.append(side)
            return pack(bits, side, kind)

        monkeypatch.setattr(fastconv, "_scan", spy)
        monkeypatch.setattr(fastconv, "_witness_pack", pack_spy)
        counters = OpCounters()
        a, da = generators.planted_monotone_vector(0, 2048, 3, "nondec")
        b, db = generators.planted_monotone_vector(1, 2048, 3, "noninc")
        got = convolution.conv_decomposed(a, da, b, db, counters=counters)
        assert got == convolution.conv_naive(a, b)
        assert counters.witness_conv_calls == 9
        assert len(sizes) <= 9 and all(size < 64 for size in sizes), sizes
        # Each part is packed once per solve: m_a + m_b packings, not 2 m_a m_b.
        assert sorted(packs) == ["p"] * 3 + ["q"] * 3, packs

    def test_no_scan_cap_sends_every_output_to_the_block_search(self, monkeypatch):
        # _SCAN_CAP = 0 skips the first step too: the one scan is the block
        # search's restart, over every output with a witness.
        monkeypatch.setattr(fastconv, "_SCAN_CAP", 0)
        restarts = []
        scan = fastconv._scan

        def spy(p_windows, q_windows, n, ks, x, *rest):
            restarts.append((ks.copy(), x.copy()))
            return scan(p_windows, q_windows, n, ks, x, *rest)

        monkeypatch.setattr(fastconv, "_scan", spy)
        rng = np.random.default_rng(3)
        lone = np.zeros(300, dtype=bool)
        lone[299] = True  # "min" witnesses up to 99 bits into a block of 100
        ones = np.ones(300, dtype=bool)
        pairs = [(rng.random(300) < 0.3, rng.random(300) < 0.3), (lone, ones)]
        mid = set()
        for (p, q), kind, block_size in itertools.product(
            pairs, ("min", "max"), (None, 37, 100)
        ):
            restarts.clear()
            got = conv_extreme_witness(bv(p), bv(q), kind, block_size=block_size)
            assert np.array_equal(got.values, oracles.conv_witness_loops(p, q, kind))
            defined = np.flatnonzero(got.defined)
            if kind == "max":  # "max" runs on both vectors reversed
                defined = 2 * 300 - 2 - defined[::-1]
            assert len(restarts) == 1 and np.array_equal(restarts[0][0], defined)
            # Outputs k >= n whose lo = k - n + 1 lies inside their first
            # block restart there, mid-block.
            ks, x = restarts[0]
            s = block_size or math.isqrt(299) + 1
            if ((x % s != 0) & (x == ks - 299)).any():
                mid.add(block_size)
        assert mid == {None, 37, 100}

    @pytest.mark.parametrize("n", [1, 64, 129, 1000])
    def test_packed_forms_match_and_others_are_repacked(self, n):
        # Forms packed once per solve give the unpacked result at any block
        # size; a form of the other kind or side is packed again.
        rng = np.random.default_rng(n + 11)
        p, q = rng.random(n) < 0.3, rng.random(n) < 0.3
        for kind in ("min", "max"):
            want = oracles.conv_witness_loops(p, q, kind)
            other = "max" if kind == "min" else "min"
            pairs = [
                (fastconv.witness_packed(p, "p", kind), fastconv.witness_packed(q, "q", kind)),
                (fastconv.witness_packed(p, "p", other), fastconv.witness_packed(q, "q", other)),
                (fastconv.witness_packed(p, "q", kind), fastconv.witness_packed(q, "p", kind)),
            ]
            for pp, qq in pairs:
                for bs in (None, n):
                    got = conv_extreme_witness(pp, qq, kind, block_size=bs)
                    assert np.array_equal(got.values, want), (kind, bs)

    def test_word_shift_by_64_is_zero(self):
        # _bit_windows and _shift_table read a window at bit offset r as
        # (w >> r) | (v << 64 - r) and rely on numpy giving 0 for r = 0,
        # where C leaves it undefined.
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
