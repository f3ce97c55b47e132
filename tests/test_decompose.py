"""Greedy monotone/uniform decompositions against brute-force minima."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import char_vector
from minplus import (
    IntMatrix,
    MonotoneTag,
    OrderViolation,
    Decomposition,
    Subsequence,
    decompose_cols,
    decompose_nondecreasing,
    decompose_nonincreasing,
    decompose_rows,
    decompose_uniform,
    validate_decomposition,
)
from minplus import cli
from minplus.fileio import MatrixInstance, parse_document, serialize, write_atomic
from minplus.generators import planted_matrix_cols, planted_matrix_rows

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING

int_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=30)


class TestNonDecreasing:
    def test_worked_example_needs_three_parts(self):
        v = np.array([1, 7, 3, 9, 8, 4])
        d = decompose_nondecreasing(v)
        assert d.part_count == 3
        validate_decomposition(d, v)
        assert all(p.tag is ND for p in d.parts)
        assert oracles.min_monotone_parts(v, nondec=True) == 3

    def test_sorted_input_is_one_part(self):
        d = decompose_nondecreasing(np.arange(10))
        assert d.part_count == 1
        assert d.parts[0].indices == tuple(range(10))

    def test_strictly_decreasing_input_needs_n_parts(self):
        assert decompose_nondecreasing(np.arange(10)[::-1]).part_count == 10

    @given(int_lists)
    @settings(max_examples=150)
    def test_valid_and_minimal(self, xs):
        v = np.array(xs, dtype=np.int64)
        d = decompose_nondecreasing(v)
        validate_decomposition(d, v)
        assert d.part_count == oracles.longest_strict_dec(xs)

    def test_exhaustive_minimality_small(self):
        for length in range(1, 6):
            for xs in itertools.product((1, 2, 3), repeat=length):
                got = decompose_nondecreasing(np.array(xs)).part_count
                assert got == oracles.min_monotone_parts(xs, nondec=True), xs


class TestNonIncreasing:
    def test_two_part_split_of_this_vector_is_impossible(self):
        # its longest strictly increasing subsequence (7, 10, 12) forces 3
        v = np.array([13, 7, 11, 5, 10, 12])
        candidate = Decomposition(
            6, (Subsequence((0, 2, 4), NI), Subsequence((1, 3, 5), NI))
        )
        with pytest.raises(OrderViolation):
            validate_decomposition(candidate, v)
        d = decompose_nonincreasing(v)
        validate_decomposition(d, v)
        assert d.part_count == 3
        assert oracles.min_monotone_parts(v, nondec=False) == 3

    def test_lowered_tail_makes_two_parts_enough(self):
        v = np.array([13, 7, 11, 5, 10, 2])
        d = decompose_nonincreasing(v)
        validate_decomposition(d, v)
        assert d.part_count == 2
        assert oracles.min_monotone_parts(v, nondec=False) == 2

    @given(int_lists)
    @settings(max_examples=150)
    def test_valid_and_minimal(self, xs):
        v = np.array(xs, dtype=np.int64)
        d = decompose_nonincreasing(v)
        validate_decomposition(d, v)
        assert all(p.tag is NI for p in d.parts)
        assert d.part_count == oracles.longest_strict_inc(xs)

    def test_int64_extremes_do_not_wrap(self):
        # -(-2**63) wraps to -2**63 in int64, which made this pair one part.
        for xs in ([-(2**63), 0], [-(2**63), 2**63 - 1, -(2**63)]):
            v = np.array(xs, dtype=np.int64)
            d = decompose_nonincreasing(v)
            validate_decomposition(d, v)
            assert d.part_count == oracles.longest_strict_inc(xs)


def piles_of(d: Decomposition) -> list[list[int]]:
    return [list(p.indices) for p in d.parts]


def reference_decomposition(values, tag) -> Decomposition:
    """The bisect scan's piles of ``values`` as parts tagged ``tag``."""
    xs = values.tolist() if tag is ND else [-x for x in values.tolist()]
    return Decomposition(len(xs), [Subsequence(p, tag) for p in oracles.patience_piles(xs)])


INT64_EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


class TestPeeledPiles:
    """Piles peeled as records, with the bisect scan on the rest, against
    the bisect scan of the whole row: same parts, same order."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.int64)
        for fn, tag in ((decompose_nondecreasing, ND), (decompose_nonincreasing, NI)):
            d = fn(values)
            assert piles_of(d) == piles_of(reference_decomposition(values, tag))
            assert all(p.tag is tag for p in d.parts)
            for p in d.parts:
                assert p.positions.dtype == np.int64
                with pytest.raises(ValueError):
                    p.positions.setflags(write=True)

    @given(st.lists(st.one_of(st.integers(-9, 9), st.sampled_from(INT64_EXTREMES)),
                    min_size=1, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_drawn_rows(self, xs):
        self.check(xs)

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 200])
    def test_constant_rows(self, n):
        for x in (INT64_EXTREMES[0], 0, INT64_EXTREMES[-1]):
            self.check([x] * n)

    def test_strictly_decreasing_row_of_2_16(self):
        # n piles of one element each in one direction, one pile in the other
        self.check(np.arange(2**16)[::-1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        self.check(rng.integers(-1000, 1000, size=5000))
        self.check(rng.integers(-(2**63), 2**63 - 1, size=5000, endpoint=True))
        self.check(rng.choice(INT64_EXTREMES, size=5000))

    def test_file_pipeline_instances_decompose_to_the_reference_bytes(
        self, tmp_path, capsys
    ):
        # The benchmark's file_pipeline instances at seed 1: four planted
        # n=128 pairs, 3 nondec parts per row of A and per column of B.
        rng = np.random.default_rng(1)
        for k in range(4):
            A, _ = planted_matrix_rows(rng, 128, 3, "nondec")
            B, _ = planted_matrix_cols(rng, 128, 3, "nondec")
            src, dst = tmp_path / f"in-{k}.txt", tmp_path / f"dec-{k}.txt"
            write_atomic(src, serialize(MatrixInstance(A, B)))
            assert cli.main(["decompose", str(src), "--mode", "nondec",
                             "--target", "both", "--out", str(dst)]) == 0
            doc = parse_document(dst.read_text())
            doc.dec_rows = tuple(reference_decomposition(r, ND) for r in A.entries)
            doc.dec_cols = tuple(reference_decomposition(c, ND) for c in B.entries.T)
            assert dst.read_text() == serialize(doc)


class TestUniform:
    def test_constant_pair(self):
        d = decompose_uniform(np.array([5, 5]))
        assert d.part_count == 1
        assert d.parts[0].indices == (0, 1)
        assert d.parts[0].tag is MonotoneTag.UNIFORM

    def test_first_occurrence_order(self):
        v = np.array([4, 7, 4, 1, 7])
        d = decompose_uniform(v)
        assert [p.indices for p in d.parts] == [(0, 2), (1, 4), (3,)]
        validate_decomposition(d, v)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    def test_one_part_per_distinct_value(self, xs):
        v = np.array(xs, dtype=np.int64)
        d = decompose_uniform(v)
        validate_decomposition(d, v)
        assert d.part_count == len(set(xs))


class TestModes:
    @pytest.mark.parametrize("fn", [decompose_rows, decompose_cols])
    def test_unknown_mode_names_the_modes(self, fn):
        # Not a bare KeyError: the message lists what the table offers.
        with pytest.raises(ValueError, match="'greedy'; modes: nondec, noninc, uniform"):
            fn(IntMatrix([[1, 2], [3, 4]]), "greedy")


class TestCharVector:
    def test_golden_characteristics(self):
        p1 = Subsequence((0, 2, 4), NI)
        p2 = Subsequence((1, 3, 5), NI)
        assert char_vector(p1, 6).bits.astype(int).tolist() == [1, 0, 1, 0, 1, 0]
        assert char_vector(p2, 6).bits.astype(int).tolist() == [0, 1, 0, 1, 0, 1]

    def test_empty_part(self):
        p = Subsequence((), MonotoneTag.UNIFORM)
        assert not char_vector(p, 4).bits.any()


class TestCertificate:
    @given(int_lists)
    @settings(max_examples=60)
    def test_certificate_is_a_true_lower_bound(self, xs):
        # The longest strictly opposing subsequence needs one part per
        # element, so it bounds the part count, and the piles meet it.
        v = np.array(xs, dtype=np.int64)
        assert decompose_nondecreasing(v).part_count == oracles.longest_strict_dec(xs)
        assert decompose_nonincreasing(v).part_count == oracles.longest_strict_inc(xs)


SEQUENCE_READERS = [
    decompose_nondecreasing,
    decompose_nonincreasing,
    decompose_uniform,
]


class TestSequenceInputs:
    """Sequences are read as IntVector reads them: integers only, none
    wrapped or truncated."""

    @pytest.mark.parametrize("fn", SEQUENCE_READERS)
    def test_non_integers_are_refused(self, fn):
        # astype(int64) made the falling [1.5, 1.2] the constant [1, 1].
        for s in (np.array([1.5, 1.2]), [1.0, 2.0], np.array([True, False]), ["1", "2"]):
            with pytest.raises(TypeError, match="must hold integers"):
                fn(s)

    @pytest.mark.parametrize("fn", SEQUENCE_READERS)
    def test_unsigned_past_int64_is_refused(self, fn):
        # astype(int64) read 2**63 as -2**63.
        with pytest.raises(ValueError, match="beyond the int64 range"):
            fn(np.array([2**63, 0], dtype=np.uint64))

    def test_unsigned_values_are_read_exactly(self):
        u = np.array([2**63 - 1, 3, 7], dtype=np.uint64)
        v = u.astype(np.int64)
        assert piles_of(decompose_nondecreasing(u)) == piles_of(decompose_nondecreasing(v))
        assert decompose_nondecreasing(u).part_count == 2
