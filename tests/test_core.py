"""Domain type behavior: bounds, indexing conventions, validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minplus.core import (
    INT64_MAX,
    INT64_MIN,
    fold_min,
    folded_output,
    lowest_set_bit,
)
from minplus.generators import planted_matrix_rows

from minplus import (
    ENTRY_BOUND,
    MAX_DIMENSION,
    SHIFTED_ENTRY_BOUND,
    BoolMatrix,
    BoolVector,
    CoverageGapError,
    Decomposition,
    DimensionMismatch,
    IndexOutOfRange,
    IntMatrix,
    IntVector,
    LengthMismatch,
    MinPlusError,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    OrderViolation,
    OverlapError,
    Subsequence,
    WitnessArray,
    validate_decomposition,
    values_satisfy,
)
from oracles import checked_add, validate_decomposition_loop

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING
UN = MonotoneTag.UNIFORM


def dec(n, *parts):
    return Decomposition(n, tuple(Subsequence(tuple(ix), tag) for ix, tag in parts))


class TestCheckedAdd:
    def test_small_sums(self):
        assert checked_add(1, 5) == 6
        assert checked_add(0, 0) == 0
        assert checked_add(-(2**62), 2**62) == 0

    def test_overflow_both_signs(self):
        with pytest.raises(OverflowError):
            checked_add(2**62, 2**62)
        with pytest.raises(OverflowError):
            checked_add(-(2**62), -(2**62) - 1)

    @given(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62))
    def test_matches_python_ints(self, x, y):
        if INT64_MIN <= x + y <= INT64_MAX:
            assert checked_add(x, y) == x + y
        else:
            with pytest.raises(OverflowError):
                checked_add(x, y)


class TestVectorsAndMatrices:
    def test_vector_basic(self):
        v = IntVector([3, -1, 0])
        assert v.n == 3 and len(v) == 3 and v[1] == -1
        assert list(v) == [3, -1, 0]
        for bad in (-1, 3):
            with pytest.raises(IndexOutOfRange, match="coordinate"):
                v[bad]
        with pytest.raises(ValueError):
            v.coords[0] = 9  # read-only buffer

    def test_vector_bounds(self):
        IntVector([ENTRY_BOUND, -ENTRY_BOUND])
        with pytest.raises(ValueError):
            IntVector([ENTRY_BOUND + 1])
        with pytest.raises(ValueError):
            IntVector(np.array([], dtype=np.int64))
        with pytest.raises(TypeError):
            IntVector([0.5, 1.5])

    def test_int64_min_is_out_of_bounds(self):
        # np.abs(INT64_MIN) overflows to INT64_MIN, so a bound check on it passes.
        with pytest.raises(ValueError):
            IntVector([INT64_MIN])
        with pytest.raises(ValueError):
            IntMatrix([[INT64_MIN, 0], [0, 0]])
        with pytest.raises(ValueError):
            IntMatrix([[INT64_MIN]], entry_bound=SHIFTED_ENTRY_BOUND)

    def test_unsigned_values_beyond_int64_rejected(self):
        assert IntVector(np.array([7], dtype=np.uint64))[0] == 7
        with pytest.raises(ValueError):
            IntVector(np.array([2**64 - 1], dtype=np.uint64))
        with pytest.raises(ValueError):
            IntMatrix(
                np.array([[2**63]], dtype=np.uint64),
                entry_bound=SHIFTED_ENTRY_BOUND,
            )

    def test_matrix_one_based_accessors(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M.entry(1, 1) == 1 and M.entry(2, 1) == 3
        assert list(M.row(2)) == [3, 4]
        assert list(M.col(2)) == [2, 4]
        for bad in ((0, 1), (1, 3), (3, 3)):
            with pytest.raises(IndexOutOfRange):
                M.entry(*bad)
        for call, message in (
            (lambda: M.entry(0, 1), "(0, 1) outside [1, 2]^2"),
            (lambda: M.row(3), "row 3 outside [1, 2]"),
            (lambda: M.col(0), "column 0 outside [1, 2]"),
        ):
            with pytest.raises(IndexOutOfRange) as ei:
                call()
            assert str(ei.value) == message

    def test_matrix_shape_and_bounds(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            IntMatrix([[ENTRY_BOUND + 1]])
        big = IntMatrix([[2**40]], entry_bound=SHIFTED_ENTRY_BOUND)
        assert big.entry(1, 1) == 2**40

    def test_transpose_round_trip(self):
        M = IntMatrix([[1, 2], [3, 4]])
        assert M.transpose().transpose() == M
        assert M.transpose().entry(1, 2) == 3

    def test_dimension_cap(self):
        assert MAX_DIMENSION == 2**20
        with pytest.raises(ValueError):
            IntVector(np.zeros(MAX_DIMENSION + 1, dtype=np.int64))

    def test_equality_and_hash(self):
        assert IntVector([1, 2]) == IntVector([1, 2])
        assert IntVector([1, 2]) != IntVector([2, 1])
        assert hash(IntMatrix([[1]])) == hash(IntMatrix([[1]]))


#: One instance per value type, built twice from equal contents, and its
#: repr.  The MinPlusOutput pair differs only under the +infinity mask.
SIX_TYPES = [
    (lambda: IntVector([1, 2]), "IntVector([1, 2])"),
    (lambda: IntMatrix([[1, 2], [3, 4]]), "IntMatrix([[1, 2], [3, 4]])"),
    (lambda: BoolVector([1, 0]), "BoolVector([1, 0])"),
    (lambda: BoolMatrix([[1, 0], [1, 1]]), "BoolMatrix([[1, 0], [1, 1]])"),
    (lambda: WitnessArray(np.array([1, 2])), "WitnessArray([1, 2])"),
    (
        lambda: MinPlusOutput(np.array([7, 4]), np.array([False, True])),
        "MinPlusOutput(values=[0, 4], finite=[False, True])",
    ),
]


@pytest.mark.parametrize(
    "make, text", SIX_TYPES, ids=[text.split("(")[0] for _, text in SIX_TYPES]
)
def test_value_type_equality_hash_and_repr(make, text):
    a, b = make(), make()
    assert a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == text
    others = [other() for other, _ in SIX_TYPES if other is not make]
    assert all(a != o and not a == o for o in others)


def test_other_shapes_are_unequal():
    assert BoolVector([1, 0]) != BoolVector([1, 0, 0])
    assert MinPlusOutput(np.array([1, 2])) != MinPlusOutput(np.array([[1, 2]]))


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: IntVector([[1]]), ValueError, "vector input must be one-dimensional"),
        (
            lambda: IntVector(np.array([], dtype=np.int64)),
            ValueError,
            "vector length 0 outside [1, 1048576]",
        ),
        (
            lambda: IntVector([ENTRY_BOUND + 1]),
            ValueError,
            "coordinate magnitude exceeds the bound 2147483647",
        ),
        (
            lambda: IntVector([0.5]),
            TypeError,
            "vector must hold integers, got dtype float64",
        ),
        (
            lambda: IntMatrix([[1, 2, 3], [4, 5, 6]]),
            ValueError,
            "matrix must be square, got shape (2, 3)",
        ),
        (
            lambda: IntMatrix(np.zeros((0, 0), dtype=np.int64)),
            ValueError,
            "dimension 0 outside [1, 1048576]",
        ),
        (
            lambda: IntMatrix([[ENTRY_BOUND + 1]]),
            ValueError,
            "entry magnitude exceeds the bound 2147483647",
        ),
        (lambda: BoolVector([[1]]), ValueError, "bool vector must be one-dimensional"),
        (
            lambda: BoolMatrix([1, 0]),
            ValueError,
            "bool matrix must be square, got (2,)",
        ),
        (
            lambda: WitnessArray(np.zeros((1, 1, 1))),
            ValueError,
            "witness array must be 1-D or 2-D",
        ),
        (
            lambda: MinPlusOutput(np.array([1, 2]), np.array([[True, True]])),
            ValueError,
            "values and finiteness mask shapes differ",
        ),
        # Witness and output values are int64 or refused, never wrapped.
        (
            lambda: WitnessArray([1.7, -1]),
            TypeError,
            "witness array must hold integers, got dtype float64",
        ),
        (
            lambda: WitnessArray(np.array([True, False])),
            TypeError,
            "witness array must hold integers, got dtype bool",
        ),
        (
            lambda: WitnessArray(np.array([2**63], dtype=np.uint64)),
            ValueError,
            "witness array holds unsigned values beyond the int64 range",
        ),
        (
            lambda: MinPlusOutput(np.array([2**63], dtype=np.uint64)),
            ValueError,
            "output holds unsigned values beyond the int64 range",
        ),
        (
            lambda: MinPlusOutput(np.array([0.5, 2.0])),
            TypeError,
            "output must hold integers, got dtype float64",
        ),
        (
            lambda: MinPlusOutput([True, False]),
            TypeError,
            "output must hold integers, got dtype bool",
        ),
        # A host length or pad count is an integer, not a bool or a float.
        (
            lambda: Decomposition(True, (Subsequence((0,), ND),)),
            TypeError,
            "index must be an integer, got True",
        ),
        (
            lambda: Decomposition(1.0, (Subsequence((0,), ND),)),
            TypeError,
            "'float' object cannot be interpreted as an integer",
        ),
        (
            lambda: dec(1, ((0,), ND)).padded(True),
            TypeError,
            "index must be an integer, got True",
        ),
    ],
)
def test_value_type_constructor_messages(make, error, message):
    with pytest.raises(error) as ei:
        make()
    assert str(ei.value) == message


class TestMonotoneTags:
    def test_values_satisfy(self):
        assert values_satisfy(np.array([1, 1, 2]), ND)
        assert not values_satisfy(np.array([1, 0]), ND)
        assert values_satisfy(np.array([3, 3, 1]), NI)
        assert values_satisfy(np.array([7, 7]), UN)
        assert not values_satisfy(np.array([7, 8]), UN)

    def test_full_int64_span_does_not_wrap(self):
        # Neighbours 2**64 - 2 apart: their difference overflows int64.
        lo, hi = -(2**63) + 1, 2**63 - 1
        assert values_satisfy(np.array([lo, hi]), ND)
        assert not values_satisfy(np.array([lo, hi]), NI)
        assert values_satisfy(np.array([hi, lo]), NI)
        assert not values_satisfy(np.array([hi, lo]), ND)
        assert not values_satisfy(np.array([lo, hi]), UN)

    def test_singletons_and_empty_satisfy_everything(self):
        for tag in MonotoneTag:
            assert values_satisfy(np.array([5]), tag)
            assert values_satisfy(np.array([], dtype=np.int64), tag)

    @given(st.lists(st.integers(-5, 5), max_size=6))
    def test_uniform_implies_both_directions(self, xs):
        arr = np.array(xs, dtype=np.int64)
        if values_satisfy(arr, UN):
            assert values_satisfy(arr, ND) and values_satisfy(arr, NI)


class TestSubsequence:
    def test_strictly_increasing_required(self):
        Subsequence((0, 2, 5), ND)
        with pytest.raises(ValueError):
            Subsequence((2, 2), ND)
        with pytest.raises(ValueError):
            Subsequence((3, 1), ND)
        with pytest.raises(ValueError):
            Subsequence((-1, 2), ND)

    def test_indices_must_be_integers(self):
        assert Subsequence((np.int64(1), np.uint8(4)), ND).indices == (1, 4)
        for bad in ((0.7, 1.2), (0.0, 1.0), (False, True), (np.True_,)):
            with pytest.raises(TypeError):
                Subsequence(bad, ND)

    def test_numpy_scalars_are_stored_as_ints(self):
        s = Subsequence((np.int64(0), np.int32(3), np.uint16(7)), ND)
        assert s.indices == (0, 3, 7)
        assert all(type(i) is int for i in s.indices)
        s = Subsequence(tuple(np.arange(5)), ND)
        assert all(type(i) is int for i in s.indices)

    @pytest.mark.parametrize("bad", [(0, True), (1, 2.0), (np.int64(0), 1.0)])
    def test_mixed_tuples_are_refused(self, bad):
        with pytest.raises(TypeError):
            Subsequence(bad, ND)

    def test_list_input(self):
        s = Subsequence([1, 4, 6], ND)
        assert s.indices == (1, 4, 6) and type(s.indices) is tuple
        with pytest.raises(ValueError):
            Subsequence([1, 1], ND)

    def test_values_reads_host(self):
        host = np.array([10, 11, 12, 13])
        assert list(Subsequence((1, 3), ND).values(host)) == [11, 13]

    def test_tuple_list_and_array_build_one_part(self):
        ix = (0, 3, 7, 300)
        parts = [
            Subsequence(ix, ND),
            Subsequence(list(ix), ND),
            Subsequence(np.array(ix, dtype=np.int64), ND),
        ]
        for p in parts:
            assert p == parts[0] and hash(p) == hash(parts[0])
            assert p.indices == ix and len(p) == 4
            assert p.positions.dtype == np.int64
            assert not p.positions.flags.writeable
        assert Subsequence(ix, NI) != parts[0]
        assert Subsequence(ix[:3], ND) != parts[0]
        assert len({*parts, Subsequence(ix, NI)}) == 2

    def test_narrow_integer_arrays_are_widened(self):
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            s = Subsequence(np.array([1, 4, 6], dtype=dtype), ND)
            assert s == Subsequence((1, 4, 6), ND)

    def test_array_input_is_copied(self):
        arr = np.array([1, 2, 5])
        s = Subsequence(arr, ND)
        arr[0] = 4
        assert s.indices == (1, 2, 5)
        with pytest.raises(AttributeError):
            s.tag = NI

    # fileio's fallback reader reports these messages at the faulty line.
    @pytest.mark.parametrize("bad, error, message", [
        ((0.7, 1.2), TypeError, "'float' object cannot be interpreted as an integer"),
        ([0.0, 1.0], TypeError, "'float' object cannot be interpreted as an integer"),
        ((False, True), TypeError, "index must be an integer, got False"),
        ([0, True], TypeError, "index must be an integer, got True"),
        (np.array([0.5, 1.5]), TypeError,
         "'numpy.float64' object cannot be interpreted as an integer"),
        (np.array([False, True]), TypeError,
         "'numpy.bool' object cannot be interpreted as an integer"),
        ((-1, 2), ValueError, "negative subsequence index"),
        (np.array([-3, 2]), ValueError, "negative subsequence index"),
        ((3, 1), ValueError, "indices not strictly increasing: 3 !< 1"),
        (np.array([2, 2]), ValueError, "indices not strictly increasing: 2 !< 2"),
        (np.array([4, 9, 7], dtype=np.uint8), ValueError,
         "indices not strictly increasing: 9 !< 7"),
    ])
    def test_rejections_keep_their_messages(self, bad, error, message):
        with pytest.raises(error) as ei:
            Subsequence(bad, ND)
        assert str(ei.value) == message

    @pytest.mark.parametrize("bad", [(2**70,), np.array([2**64 - 1], dtype=np.uint64)])
    def test_indices_past_int64_are_refused(self, bad):
        with pytest.raises(ValueError, match="outside the int64 range"):
            Subsequence(bad, ND)

    def test_numpy_integer_lengths_and_counts(self):
        d = Decomposition(np.int64(2), (Subsequence((0, 1), ND),))
        assert type(d.host_length) is int and d == dec(2, ((0, 1), ND))
        assert d.padded(np.uint8(3)).part_count == 3

    def test_padding_appends_empty_uniform(self):
        d = dec(4, ((0, 1, 2, 3), ND))
        p = d.padded(3)
        assert p.part_count == 3
        assert p.parts[1].indices == () and p.parts[1].tag is UN
        with pytest.raises(ValueError):
            p.padded(1)


class TestValidateDecomposition:
    host = np.array([1, 7, 3, 9, 8, 4])

    def test_accepts_worked_partition(self):
        d = dec(6, ((0, 2, 5), ND), ((1, 4), ND), ((3,), ND))
        validate_decomposition(d, self.host)  # no raise

    def test_overlap_names_both_parts(self):
        d = dec(6, ((0, 2, 5), ND), ((1, 2, 4), ND), ((3,), ND))
        with pytest.raises(OverlapError) as ei:
            validate_decomposition(d, self.host)
        assert ei.value.index == 2
        assert (ei.value.first_part, ei.value.second_part) == (0, 1)

    def test_coverage_gap_names_first_missing(self):
        d = dec(6, ((0, 2, 5), ND), ((1, 4), ND))
        with pytest.raises(CoverageGapError) as ei:
            validate_decomposition(d, self.host)
        assert ei.value.index == 3

    def test_index_out_of_range(self):
        d = dec(6, ((0, 6), ND), ((1, 2, 3, 4, 5), ND))
        with pytest.raises(IndexOutOfRange):
            validate_decomposition(d, self.host)

    def test_length_mismatch(self):
        d = dec(5, ((0, 1, 2, 3, 4), ND))
        with pytest.raises(LengthMismatch):
            validate_decomposition(d, self.host)

    def test_order_violation_names_part_and_position(self):
        # (7, 5, 12) rises between its 2nd and 3rd elements
        host = np.array([13, 7, 11, 5, 10, 12])
        d = dec(6, ((0, 2, 4), NI), ((1, 3, 5), NI))
        with pytest.raises(OrderViolation) as ei:
            validate_decomposition(d, host)
        assert ei.value.part == 1
        assert ei.value.position == 1

    def test_uniform_tag_checked(self):
        d = dec(2, ((0, 1), UN))
        with pytest.raises(OrderViolation):
            validate_decomposition(d, np.array([1, 2]))
        validate_decomposition(d, np.array([4, 4]))

    def test_vector_host_accepted(self):
        d = dec(6, ((0, 1, 2, 3, 4, 5), ND))
        validate_decomposition(d, IntVector([1, 2, 3, 4, 5, 6]))

    def test_peak_memory_of_a_benchmark_sized_axis(self):
        # One axis of the benchmark's product_monotone solve: n = 512 rows
        # of 3 parts, whose (m, k, n) characteristic stack is 0.375 * 8n^2.
        n = 512
        A, rows = planted_matrix_rows(0, n, 3, "nondec")
        tracemalloc.start()
        try:
            validate_decomposition(rows, A.entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n * n, peak / (8 * n * n)


@st.composite
def axis_cases(draw):
    """k hosts of length n <= 12, each with a valid decomposition (mixed
    tags, empty parts, padding), then some decompositions corrupted by an
    overlap, a gap, an index >= n, a broken order or a wrong length."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1, 2**60]))
    hosts = np.zeros((k, n), dtype=np.int64)
    decs = []
    for t in range(k):
        m = draw(st.integers(1, 4))
        labels = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        parts = []
        for o in range(m):
            ix = [i for i in range(n) if labels[i] == o]
            tag = draw(st.sampled_from(list(MonotoneTag)))
            vals = sorted(
                draw(st.lists(st.integers(-3, 3), min_size=len(ix), max_size=len(ix)))
            )
            if tag is NI:
                vals = vals[::-1]
            if tag is UN:
                vals = vals[:1] * len(ix)
            hosts[t, ix] = [v * scale for v in vals]
            parts.append(Subsequence(tuple(ix), tag))
        decs.append(Decomposition(n, tuple(parts)).padded(m + draw(st.integers(0, 2))))
    for t in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        parts = [list(p.indices) for p in decs[t].parts]
        tags = [p.tag for p in decs[t].parts]
        host_length = n
        o = draw(st.integers(0, len(parts) - 1))
        how = draw(
            st.sampled_from(["overlap", "gap", "range", "order", "tag", "length"])
        )
        if how == "overlap":
            parts[o] = sorted(set(parts[o]) | {draw(st.integers(0, n - 1))})
        elif how == "gap" and parts[o]:
            parts[o].remove(draw(st.sampled_from(parts[o])))
        elif how == "range":
            parts[o] = sorted(set(parts[o]) | {n + draw(st.integers(0, 2))})
        elif how == "order":
            hosts[t, draw(st.integers(0, n - 1))] = draw(st.integers(-3, 3)) * scale
        elif how == "tag":
            tags[o] = draw(st.sampled_from(list(MonotoneTag)))
        elif how == "length":
            host_length = draw(st.integers(1, n + 2).filter(lambda x: x != n))
        decs[t] = Decomposition(
            host_length, tuple(Subsequence(tuple(p), g) for p, g in zip(parts, tags))
        )
    return decs, hosts


def _raised(fn, *args):
    try:
        fn(*args)
    except MinPlusError as e:
        return e
    return None


def _same_outcome(got, want):
    """Both accepted, or both raised the same type with the same fields."""
    assert type(got) is type(want)
    if want is not None:
        assert vars(got) == vars(want) and str(got) == str(want)


#: Decomposition 0 breaks its order while decomposition 1 holds index 3
#: of a length-3 host, so neither fault may hide the other.
ORDER_THEN_RANGE = (
    [dec(3, ((0, 1, 2), ND)), dec(3, ((0, 1, 3), ND))],
    np.array([[3, 1, 2], [0, 0, 0]]),
)


class TestBatchedValidation:
    """The batched ``validate_decomposition`` against the per-index
    reference loop, run decomposition by decomposition."""

    @settings(max_examples=300, deadline=None)
    @given(axis_cases())
    @example(ORDER_THEN_RANGE)
    @example((ORDER_THEN_RANGE[0][::-1], ORDER_THEN_RANGE[1][::-1]))
    def test_accepts_and_names_what_the_reference_does(self, case):
        decs, hosts = case
        def row_by_row():
            for d, h in zip(decs, hosts):
                validate_decomposition_loop(d, h)

        _same_outcome(
            _raised(validate_decomposition, decs, hosts), _raised(row_by_row)
        )
        for d, h in zip(decs, hosts):
            _same_outcome(
                _raised(validate_decomposition, d, h),
                _raised(validate_decomposition_loop, d, h),
            )

    @settings(max_examples=100, deadline=None)
    @given(axis_cases())
    def test_accepted_axis_parts(self, case):
        decs, hosts = case
        assume(_raised(validate_decomposition, decs, hosts) is None)
        parts = validate_decomposition(decs, hosts)
        k, n = hosts.shape
        m = max(d.part_count for d in decs)
        assert parts.chars.shape == (m, k, n)
        for t, d in enumerate(decs):
            for o in range(m):
                ix = list(d.parts[o].indices) if o < d.part_count else []
                assert parts.chars[o, t].tolist() == [i in ix for i in range(n)]
                assert parts.first[o, t] == (hosts[t, ix[0]] if ix else 0)
                for tag in MonotoneTag:
                    assert parts.holds[tag][o, t] == values_satisfy(hosts[t, ix], tag)

    def test_one_host_per_decomposition(self):
        d = dec(2, ((0, 1), ND))
        with pytest.raises(DimensionMismatch):
            validate_decomposition([d, d], np.zeros((3, 2), dtype=np.int64))


class TestWitnessArray:
    def test_matrix_get_is_one_based(self):
        W = WitnessArray(np.array([[2, -1], [1, 2]]))
        assert W.get(1, 1) == 2
        assert W.get(1, 2) is None
        assert W.defined.tolist() == [[True, False], [True, True]]

    def test_conv_get_is_zero_based(self):
        W = WitnessArray(np.array([0, -1, 3]))
        assert W.get(0) == 0 and W.get(1) is None and W.get(2) == 3

    def test_get_refuses_cells_outside(self):
        # Row 0 once read row n's witness, and k = -1 the last coordinate.
        W = WitnessArray(np.array([[2, -1], [1, 2]]))
        for bad in ((0, 1), (1, 0), (3, 1), (1, -1)):
            with pytest.raises(IndexOutOfRange):
                W.get(*bad)
        for bad in (-1, 3):
            with pytest.raises(IndexOutOfRange):
                WitnessArray(np.array([0, -1, 3])).get(bad)


def lowest_bit_reference(w: int) -> int:
    return (w & -w).bit_length() - 1


class TestLowestSetBit:
    def test_every_single_bit_word(self):
        words = np.array([1 << t for t in range(64)], dtype=np.uint64)
        got = lowest_set_bit(words.copy())
        assert got.dtype == np.int64
        assert got.tolist() == list(range(64))

    def test_random_words_with_several_bits(self):
        rng = np.random.default_rng(3)
        # AND-ing more draws leaves fewer bits set.  Zero words have no
        # lowest bit; they become 2**63.
        for draws in (1, 2, 4):
            words = rng.integers(0, 2**64, size=(50, 40), dtype=np.uint64)
            for _ in range(draws - 1):
                words &= rng.integers(0, 2**64, size=words.shape, dtype=np.uint64)
            words[words == 0] = 1 << 63
            want = [[lowest_bit_reference(int(w)) for w in row] for row in words]
            assert np.array_equal(lowest_set_bit(words.copy()), want), draws

    def test_words_are_left_holding_their_lowest_bit(self):
        words = np.array([0b1011000, 2**63 + 2**40, 2**64 - 1], dtype=np.uint64)
        assert lowest_set_bit(words).tolist() == [3, 40, 0]
        assert words.tolist() == [8, 2**40, 1]


class TestFoldMin:
    def test_entries_never_hit_stay_infinite(self):
        c = np.full(5, INT64_MAX)
        fold_min(c, np.array([1, 0, 1, 0, 0], bool), np.array([4, -9, 7, 0, 0]))
        fold_min(c, np.array([1, 0, 0, 1, 0], bool), np.array([2, -9, -1, 3, 0]))
        out = folded_output(c)
        assert out.finite.tolist() == [True, False, True, True, False]
        assert out.values.tolist() == [2, 0, 7, 3, 0]

    def test_sums_at_the_ends_of_the_shifted_range_stay_finite(self):
        # Two values inside SHIFTED_ENTRY_BOUND sum to at most 2**63 - 2,
        # one below the INT64_MAX that marks +infinity.
        top = 2 * SHIFTED_ENTRY_BOUND
        assert top == INT64_MAX - 1
        c = np.full(3, INT64_MAX)
        fold_min(c, np.array([True, True, False]), np.array([top, -top, top]))
        out = folded_output(c)
        assert out.finite.tolist() == [True, True, False]
        assert out.values.tolist() == [top, -top, 0]
        fold_min(c, np.ones(3, bool), np.array([top, top, top]))
        assert folded_output(c).values.tolist() == [top, -top, top]


class TestBoolVector:
    def test_from_indices_round_trip(self):
        v = BoolVector.from_indices((0, 2, 4), 6)
        assert v.bits.astype(int).tolist() == [1, 0, 1, 0, 1, 0]
        assert v.indices() == (0, 2, 4)
        with pytest.raises(IndexOutOfRange):
            BoolVector.from_indices((6,), 6)
        with pytest.raises(IndexOutOfRange):
            BoolVector.from_indices((-1,), 6)
        assert BoolVector.from_indices(np.array([1]), 3) == BoolVector([0, 1, 0])

    @pytest.mark.parametrize(
        "bad", [True, np.True_, 1.0], ids=["bool", "np-bool", "float"]
    )
    def test_from_indices_refuses_bools_and_floats(self, bad):
        # A bool index once acted as a mask and set every bit.
        with pytest.raises(TypeError):
            BoolVector.from_indices([bad], 3)


class TestStrictBits:
    """Bits and finiteness masks take bools or the integers 0 and 1; a
    truthiness cast once read 2, 0.5 and "a" as set bits."""

    @pytest.mark.parametrize(
        "make",
        [BoolVector, lambda bits: BoolMatrix([bits, bits[::-1]])],
        ids=["vector", "matrix"],
    )
    def test_bools_and_zero_one_integers_agree(self, make):
        want = make(np.array([True, False]))
        assert make([1, 0]) == want
        assert make(np.array([1, 0], dtype=np.uint8)) == want
        assert make([True, False]) == want

    @pytest.mark.parametrize(
        "bits, error",
        [
            ([2, 0.5, "a"], TypeError),
            ([0.5, 0.0, 1.0], TypeError),
            ([1.0, 0.0, 1.0], TypeError),
            ([1, None, 0], TypeError),
            ([2, 0, 1], ValueError),
            ([-1, 0, 1], ValueError),
        ],
    )
    def test_vector_refuses_other_values(self, bits, error):
        with pytest.raises(error):
            BoolVector(bits)

    def test_matrix_refuses_other_values(self):
        with pytest.raises(TypeError):
            BoolMatrix([[2, 0], [0.5, "a"]])
        with pytest.raises(TypeError):
            BoolMatrix(np.eye(2))
        with pytest.raises(ValueError):
            BoolMatrix([[2, 0], [0, 1]])

    def test_finite_mask_refuses_other_values(self):
        values = np.array([5, 6])
        for bad in (np.array([0.5, 0.0]), [2, "x"]):
            with pytest.raises(TypeError):
                MinPlusOutput(values, bad)
        with pytest.raises(ValueError):
            MinPlusOutput(values, [2, 0])
        out = MinPlusOutput(values, [1, 0])
        assert out.finite.tolist() == [True, False]
        assert out == MinPlusOutput(values, np.array([True, False]))

    def test_package_built_arrays_skip_the_check(self, monkeypatch):
        # Solvers hand their own bool arrays over through ``_adopt``.
        from minplus import conv_decomposed, conv_few_values, core
        from minplus import decompose_nondecreasing, decompose_nonincreasing
        from minplus import decompose_uniform

        def refuse(values, what):
            raise AssertionError(f"{what} checked again")

        a, b = IntVector([3, 1, 4, 1, 5, 9]), IntVector([2, 7, 2, 7, 7, 2])
        da, db = decompose_nondecreasing(a.coords), decompose_nonincreasing(b.coords)
        runs = [
            lambda: conv_few_values(a, b, decompose_uniform(b.coords), ell=2),
            lambda: conv_decomposed(a, da, b, db),
        ]
        want = [run() for run in runs]
        monkeypatch.setattr(core, "_as_bits", refuse)
        for run, out in zip(runs, want):
            got = run()
            assert got.values.tolist() == out.values.tolist()
            assert got.finite.tolist() == out.finite.tolist()


class TestMinPlusOutput:
    def test_infinity_is_mask_not_number(self):
        out = MinPlusOutput(np.array([5, 123]), np.array([True, False]))
        assert out.coord(0) == 5
        assert out.coord(1) is None
        # filler under the mask is canonical, so equality ignores it
        other = MinPlusOutput(np.array([5, -777]), np.array([True, False]))
        assert out == other
        assert out.values[1] == 0

    def test_matrix_entry_accessor(self):
        out = MinPlusOutput(np.array([[1, 2], [3, 4]]))
        assert out.is_matrix and out.all_finite
        assert out.entry(2, 1) == 3
        with pytest.raises(ValueError):
            out.coord(0)

    def test_accessors_refuse_positions_outside(self):
        # entry(0, 1) once read entry (2, 1), and coord(-1) c_{2n-2}.
        out = MinPlusOutput(np.array([[1, 2], [3, 4]]))
        for bad in ((0, 1), (1, 0), (3, 1), (1, 3), (-1, -1)):
            with pytest.raises(IndexOutOfRange):
                out.entry(*bad)
        conv = MinPlusOutput(np.array([5, 6, 7]), np.array([True, False, True]))
        assert conv.coord(2) == 7 and conv.coord(1) is None
        for bad in (-1, 3):
            with pytest.raises(IndexOutOfRange):
                conv.coord(bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MinPlusOutput(np.array([1, 2]), np.array([[True, True]]))

    def test_inequality_on_mask(self):
        a = MinPlusOutput(np.array([1, 2]))
        b = MinPlusOutput(np.array([1, 2]), np.array([True, False]))
        assert a != b


class TestOpCounters:
    def test_as_dict(self):
        c = OpCounters()
        c.witness_matrix_calls += 2
        c.bool_convolutions += 5
        assert c.as_dict() == {
            "witness_matrix_calls": 2,
            "witness_conv_calls": 0,
            "bool_products": 0,
            "bool_convolutions": 5,
        }
