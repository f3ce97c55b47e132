"""Text format round trips and parse failure reporting."""

import hashlib
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minplus import (
    ENTRY_BOUND,
    SHIFTED_ENTRY_BOUND,
    CoverageGapError,
    Decomposition,
    IndexOutOfRange,
    IntMatrix,
    IntVector,
    MinPlusOutput,
    MonotoneTag,
    OverlapError,
    Subsequence,
    decompose_cols,
    decompose_nondecreasing,
    decompose_nonincreasing,
    decompose_rows,
    decompose_uniform,
)
from minplus import MAX_DIMENSION, cli, fileio
from minplus.fileio import (
    FORMAT_TOKEN,
    MatrixInstance,
    ParseError,
    ResultDocument,
    VectorInstance,
    parse_document,
    parse_path,
    serialize,
    write_atomic,
)
from oracles import padded, parse_parts_tokenwise

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING


def mat_doc():
    A = IntMatrix([[1, 2], [3, 4]])
    B = IntMatrix([[5, 6], [7, 8]])
    rows = (Decomposition(2, (Subsequence((0, 1), ND),)),) * 2
    cols = (
        Decomposition(2, (Subsequence((0,), ND), Subsequence((1,), ND))),
    ) * 2
    return MatrixInstance(A, B, rows, cols, {"seed": "7", "note": "two words"})


MATRIX_TEXT = """format: minplus/1
kind: matrix
n: 2
index-base: 1

begin matrix A
1 2
3 4
end matrix A

begin matrix B
5 6
7 8
end matrix B
"""

VECTOR_TEXT = """format: minplus/1
kind: vector
n: 3
index-base: 0

begin vector a
1 7 3
end vector a

begin vector b
2 2 5
end vector b
"""


class TestRoundTrip:
    def test_matrix_instance(self):
        doc = mat_doc()
        assert parse_document(serialize(doc)) == doc

    def test_matrix_instance_without_decompositions(self):
        doc = MatrixInstance(IntMatrix([[0]]), IntMatrix([[9]]))
        assert parse_document(serialize(doc)) == doc

    def test_vector_instance(self):
        a = IntVector([1, 7, 3])
        b = IntVector([2, 2, 5])
        da = Decomposition(3, (Subsequence((0, 2), ND), Subsequence((1,), ND)))
        doc = VectorInstance(a, b, da, None, {"origin": "test"})
        assert parse_document(serialize(doc)) == doc

    def test_padded_empty_parts(self):
        d = padded(Decomposition(3, (Subsequence((0, 1, 2), ND),)), 3)
        doc = VectorInstance(IntVector([1, 2, 3]), IntVector([4, 5, 6]), d, d)
        back = parse_document(serialize(doc))
        assert back == doc
        assert back.dec_a.part_count == 3

    def test_result_matrix_with_infinities(self):
        vals = np.array([[9, 0], [2, 3]])
        fin = np.array([[True, False], [True, True]])
        doc = ResultDocument(
            "result-matrix", 2, MinPlusOutput(vals, fin), {"algorithm": "naive"}
        )
        assert parse_document(serialize(doc)) == doc

    def test_result_vector(self):
        out = MinPlusOutput(np.array([5, -1, 12]), np.ones(3, dtype=bool))
        doc = ResultDocument("result-vector", 2, out, {})
        assert parse_document(serialize(doc)) == doc

    @pytest.mark.parametrize("line", ["1 7 3", "1_0 +5 3", "\u0661 7 3"])
    def test_only_round_tripping_text_parses(self, line):
        text = VECTOR_TEXT.replace("1 7 3", line)
        try:
            doc = parse_document(text)
        except ParseError as err:
            assert err.line == 7
        else:
            assert serialize(doc) == text

    def test_serialized_text_ends_with_newline(self):
        assert serialize(mat_doc()).endswith("\n")

    def test_part_index_past_n_is_not_written(self):
        # Written out, it would make a file the parser refuses.
        dec = Decomposition(2, (Subsequence((0, 5), ND),))
        doc = VectorInstance(IntVector([1, 2]), IntVector([1, 2]), dec, None)
        with pytest.raises(IndexOutOfRange, match=r"outside \[0, 2\)"):
            serialize(doc)

    def test_comments_and_blank_lines_ignored(self):
        text = MATRIX_TEXT.replace(
            "begin matrix A", "# leading comment\n\nbegin matrix A"
        )
        doc = parse_document(text)
        assert doc.A.entries.tolist() == [[1, 2], [3, 4]]

    def test_parse_path(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text(serialize(mat_doc()))
        assert parse_path(p) == mat_doc()


class TestParseErrors:
    def check(self, text, line=None):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        if line is not None:
            assert err.value.line == line, err.value
        return err.value

    def test_bad_format_token(self):
        self.check(MATRIX_TEXT.replace(FORMAT_TOKEN, "bogus/9"), line=1)

    def test_unknown_kind(self):
        self.check(MATRIX_TEXT.replace("kind: matrix", "kind: triangle"), line=2)

    def test_wrong_index_base_for_kind(self):
        self.check(
            MATRIX_TEXT.replace("index-base: 1", "index-base: 0"), line=4
        )

    def test_bad_integer(self):
        self.check(MATRIX_TEXT.replace("3 4", "3 x"), line=8)

    @pytest.mark.parametrize("token", ["1_0", "+5", "\u0661"])
    def test_integer_must_be_ascii_digits(self, token):
        self.check(VECTOR_TEXT.replace("1 7 3", f"{token} 7 3"), line=7)

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000"])
    def test_non_ascii_whitespace_between_tokens(self, space, tmp_path, capsys):
        text = VECTOR_TEXT.replace("1 7 3", f"1{space}7 3")
        self.check(text, line=7)
        path = tmp_path / "f.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["compute", str(path), "--algo", "naive"]) == cli.EXIT_PARSE
        assert "error: line 7: " in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["0_3", "+3", "\u0663"])
    def test_dimension_must_be_ascii_digits(self, token):
        self.check(VECTOR_TEXT.replace("n: 3", f"n: {token}"), line=3)

    def test_wrong_token_count(self):
        # token counts are checked per section, reported at its begin line
        self.check(MATRIX_TEXT.replace("3 4", "3"), line=6)

    def test_instance_rejects_inf(self):
        self.check(MATRIX_TEXT.replace("1 2", "inf 2"), line=7)

    def test_instance_value_over_bound(self):
        self.check(MATRIX_TEXT.replace("1 2", "2147483648 2"))

    def test_duplicate_section(self):
        extra = "\nbegin matrix B\n5 6\n7 8\nend matrix B\n"
        self.check(MATRIX_TEXT + extra)

    def test_unclosed_section(self):
        self.check(MATRIX_TEXT.replace("end matrix B\n", ""))

    def test_garbage_between_sections(self):
        self.check(MATRIX_TEXT.replace("begin matrix B", "what\nbegin matrix B"))

    def test_unknown_part_tag(self):
        text = VECTOR_TEXT + (
            "\nbegin decomposition a\nspiral 0 1 2\nend decomposition a\n"
        )
        self.check(text)

    def test_row_prefix_mismatch(self):
        text = serialize(mat_doc()).replace("row 2:", "row 3:", 1)
        self.check(text)

    def test_missing_dimension_header(self):
        self.check(MATRIX_TEXT.replace("n: 2\n", ""))

    def test_result_value_over_shifted_bound(self):
        text = (
            "format: minplus/1\nkind: result-vector\nn: 2\nindex-base: 0\n\n"
            "begin values\n4611686018427387904 0 0\nend values\n"
        )
        self.check(text)


class TestValidationOnLoad:
    def test_overlap_propagates(self):
        text = VECTOR_TEXT + (
            "\nbegin decomposition a\nnondec 0 1 | nondec 1 2\n"
            "end decomposition a\n"
        )
        with pytest.raises(OverlapError):
            parse_document(text)

    def test_coverage_gap_propagates(self):
        text = VECTOR_TEXT + (
            "\nbegin decomposition a\nnondec 0 | nondec 2\nend decomposition a\n"
        )
        with pytest.raises(CoverageGapError):
            parse_document(text)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "hello\n")
        assert p.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old")
        write_atomic(p, "new\n")
        assert p.read_text() == "new\n"

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        plain, atomic = tmp_path / "plain.txt", tmp_path / "atomic.txt"
        with open(plain, "w"):
            pass
        write_atomic(atomic, "x\n")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        p = tmp_path / "out.txt"
        with open(p, "w"):
            pass
        os.chmod(p, 0o640)
        write_atomic(p, "new\n")
        assert p.read_text() == "new\n"
        assert p.stat().st_mode & 0o7777 == 0o640

    def test_no_stray_temp_files(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "x\n")
        assert os.listdir(tmp_path) == ["out.txt"]


def matrix_text_128():
    """A serialized 128 x 128 instance and the line number of the last row
    of its ``matrix A`` section."""
    rng = np.random.default_rng(128)
    A, B = (IntMatrix(rng.integers(-9, 10, size=(128, 128))) for _ in range(2))
    text = serialize(MatrixInstance(A, B))
    return text, text.splitlines().index("end matrix A")


class TestSectionFaults:
    """Sections are converted whole; a fault is still named at its line."""

    @pytest.mark.parametrize("token, message", [
        ("x7", "bad integer 'x7'"),
        ("2147483648", "value 2147483648 exceeds magnitude bound 2147483647"),
        ("inf", "section 'matrix A' does not allow 'inf'"),
    ])
    def test_fault_on_the_last_line_of_a_128_row_section(self, token, message):
        text, last = matrix_text_128()
        lines = text.splitlines(keepends=True)
        lines[last - 1] = lines[last - 1].replace(" ", f" {token} ", 1)
        lines[last - 1] = " ".join(lines[last - 1].split()[:-1]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_document("".join(lines))
        assert (err.value.line, str(err.value)) == (last, f"line {last}: {message}")

    def test_earliest_fault_wins(self):
        text, last = matrix_text_128()
        lines = text.splitlines(keepends=True)
        lines[last - 1] = "1 " * 127 + "x\n"
        lines[last - 2] = "inf " + lines[last - 2]  # also one token too many
        with pytest.raises(ParseError) as err:
            parse_document("".join(lines))
        assert err.value.line == last
        assert "bad integer 'x'" in str(err.value)

    def test_25_digit_token_in_instance_section(self):
        big = "1" * 25
        with pytest.raises(ParseError, match=f"line 7: value {big} exceeds"):
            parse_document(VECTOR_TEXT.replace("1 7 3", f"1 {big} 3"))

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_25_digit_token_in_values_section(self, sign):
        big = sign + "9" * 25
        text = (
            "format: minplus/1\nkind: result-vector\nn: 2\nindex-base: 0\n\n"
            f"begin values\ninf 0\n{big}\nend values\n"
        )
        with pytest.raises(ParseError, match=f"line 8: value {big} exceeds"):
            parse_document(text)

    def test_25_digit_index_in_decomposition(self):
        text = VECTOR_TEXT + (
            f"\nbegin decomposition a\nnondec 0 1 {'2' * 25}\nend decomposition a\n"
        )
        with pytest.raises(ParseError, match="line 15: value 2{25} exceeds"):
            parse_document(text)

    def test_zero_padded_and_tab_separated_tokens(self):
        text = VECTOR_TEXT.replace("1 7 3", "001\t7 \t 0003").replace(
            "2 2 5", "-002\t\t2 5"
        ) + "\nbegin decomposition a\nnondec\t00 02 |\tnondec 001\n"
        text += "end decomposition a\n"
        doc = parse_document(text)
        assert doc.a.coords.tolist() == [1, 7, 3]
        assert doc.b.coords.tolist() == [-2, 2, 5]
        assert [p.indices for p in doc.dec_a.parts] == [(0, 2), (1,)]
        assert serialize(doc) == VECTOR_TEXT.replace("2 2 5", "-2 2 5") + (
            "\nbegin decomposition a\nnondec 0 2 | nondec 1\nend decomposition a\n"
        )

    def test_result_infinities_anywhere(self):
        text = (
            "format: minplus/1\nkind: result-matrix\nn: 2\nindex-base: 1\n\n"
            "begin values\ninf 4\n-3 inf\nend values\n"
        )
        doc = parse_document(text)
        assert doc.output.finite.tolist() == [[False, True], [True, False]]
        assert doc.output.values.tolist() == [[0, 4], [-3, 0]]
        assert serialize(doc) == text

    @pytest.mark.parametrize("line, message", [
        ("row 2: nondec 2 1", "indices not strictly increasing: 1 !< 0"),
        ("row 2: nondec 0 1", "negative subsequence index"),
        ("row 2: nondec 1 x", "bad integer 'x'"),
        ("row 2: spiral 1 2", "unknown part tag 'spiral'"),
        ("row 2: nondec 1 2 |", "empty part needs its tag"),
        ("row 3: nondec 1 2", "expected line starting 'row 2:'"),
        # The first fault in reading order wins within a line too.
        ("row 2: nondec 1 x | spiral 2", "bad integer 'x'"),
        ("row 2: spiral 1 | nondec x 2", "unknown part tag 'spiral'"),
        (f"row 2: nondec 2 1 | nondec {'2' * 25}", "indices not strictly increasing: 1 !< 0"),
    ])
    def test_decomposition_faults_keep_their_line(self, line, message):
        text = serialize(mat_doc()).replace("row 2: nondec 1 2", line)
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == text.splitlines().index(line) + 1
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("line", ["row 2: nondec 1 2", "row1: nondec 1 2"])
    def test_misnumbered_first_line_is_named(self, line):
        text = serialize(mat_doc()).replace("row 1: nondec 1 2", line)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the reader must not lean on pytest's
            with pytest.raises(ParseError) as err:
                parse_document(text)
        assert err.value.line == text.splitlines().index(line) + 1
        assert str(err.value).endswith("expected line starting 'row 1:'")

    def test_decomposition_fault_on_an_earlier_line_wins(self):
        text = serialize(mat_doc())
        text = text.replace("row 1: nondec 1 2", "row 1: nondec 1 1").replace(
            "row 2:", "row 3:"
        )
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value).endswith("indices not strictly increasing: 0 !< 0")


@st.composite
def part_lines(draw):
    """(lines, base, n): the part lines of a few valid decompositions, as
    (line number, parts text) pairs, tokens split by spaces or tabs, with
    some parts mutated: a bad, 25-digit, int64-edge or over-bound token, an
    unknown or missing tag, indices out of order, falling or below the
    base, an index with leading zeros or a minus sign, or a stray ``|``."""
    n = draw(st.integers(1, 10))
    base = draw(st.sampled_from([0, 1]))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        lines.append([
            [draw(st.sampled_from(["nondec", "noninc", "uniform"]))]
            + [str(i + base) for i in range(n) if labels[i] == o]
            for o in sorted(set(labels))
        ])
    for _ in range(draw(st.integers(0, 3))):
        parts = draw(st.sampled_from(lines))
        o = draw(st.integers(0, len(parts) - 1))
        part = parts[o]
        at = draw(st.integers(1, max(len(part), 1)))
        how = draw(st.sampled_from(
            ["bad", "long", "over", "tag", "untagged", "order", "zero", "bar",
             "padded", "int64", "fall"]
        ))
        if how == "bad":
            part.insert(at, draw(st.sampled_from(["x", "1.5", "-", "0x1", "--2", "#"])))
        elif how == "long":
            part.insert(at, draw(st.sampled_from(["", "-"])) + "9" * 25)
        elif how == "over":
            part.insert(at, str(draw(st.sampled_from([1, -1])) * (MAX_DIMENSION + 1)))
        elif how == "tag" and part:
            part[0] = draw(st.sampled_from(["spiral", "NONDEC", "3", "inf"]))
        elif how == "untagged" and part:
            del part[0]
        elif how == "order" and len(part) > 1:
            part.insert(at, part[draw(st.integers(1, len(part) - 1))])
        elif how == "zero":
            part.insert(1, str(base - 1))
        elif how == "bar":
            parts.insert(o, [])
        elif how == "padded" and len(part) > 1:
            j = draw(st.integers(1, len(part) - 1))
            part[j] = draw(st.sampled_from(["0", "00", "-"])) + part[j]
        elif how == "int64":
            part.insert(at, draw(st.sampled_from(
                [str(2**63 - 1), str(-(2**63 - 1)), str(2**63), str(-(2**63))]
            )))
        elif how == "fall" and len(part) > 2:
            part[1:] = part[:0:-1]
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
    texts = [" | ".join(sep.join(p) for p in parts) for parts in lines]
    return [(10 + 3 * i, t) for i, t in enumerate(texts)], base, n


def _outcome(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # compared whole: type, message and line
        return type(exc), str(exc), getattr(exc, "line", None)


class TestPartReader:
    """The section reader against the token-by-token reference."""

    @settings(max_examples=300, deadline=None)
    @given(part_lines())
    def test_same_parts_or_first_fault_as_the_reference(self, case):
        lines, base, n = case

        def line_by_line():
            return [parse_parts_tokenwise(t, ln, base, n) for ln, t in lines]

        got = _outcome(fileio._read_decompositions, lines, base, n)
        assert got == _outcome(line_by_line)

    @settings(max_examples=300, deadline=None)
    @given(part_lines())
    def test_fast_path_matches_the_token_path(self, case):
        lines, base, n = case
        got = _outcome(fileio._read_decompositions, lines, base, n)
        with token_path_only():
            assert got == _outcome(fileio._read_decompositions, lines, base, n)


class TestIntRows:
    """numpy's reader refuses whatever it cannot read exactly as int()."""

    def test_no_lines_are_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert fileio._int_rows([], ENTRY_BOUND) is None
            assert fileio._read_decompositions([], 1, 3) == []

    def test_a_warning_refuses_whatever_the_filter(self):
        def through_a_float(*args, **kwargs):  # older numpy truncated '1.5' to 1
            warnings.warn("Parsing an integer via a float", DeprecationWarning)
            return np.array([[1]], dtype=np.int64)

        with (
            warnings.catch_warnings(),
            mock.patch.object(np, "loadtxt", through_a_float),
        ):
            warnings.simplefilter("ignore")
            assert fileio._int_rows(["1.5"], ENTRY_BOUND) is None
            with pytest.raises(ParseError, match="bad integer '1.5'"):
                fileio._read_decompositions([(4, "nondec 1.5")], 1, 1)


def token_path_only():
    """The section readers with numpy's text reader switched off, so every
    section takes the token-by-token path."""
    return mock.patch.object(fileio, "_int_rows", lambda lines, bound: None)


def _refuse(*args):
    raise AssertionError("the token path was taken")


SECTION_BOUNDS = {
    "matrix A": ENTRY_BOUND, "vector a": ENTRY_BOUND, "values": SHIFTED_ENTRY_BOUND,
}


@st.composite
def value_sections(draw, infs=False):
    """(sections, name, expect, bound): one matrix, vector or values
    section of drawn tokens, rectangular or ragged, split by spaces or
    tabs; tokens include leading zeros, -0, the int64 edges, values just
    past the bound and tokens no reader takes; ``expect`` may be off by one.
    With ``infs``, any good token may also be ``inf``."""
    name = draw(st.sampled_from(sorted(SECTION_BOUNDS)))
    bound = SECTION_BOUNDS[name]
    good = st.one_of(
        st.integers(-bound, bound).map(str),
        st.sampled_from(["0", "-0", "007", "-0042", str(bound), str(-bound)]),
        *[st.just("inf")] * infs,
    )
    odd = st.sampled_from([
        str(bound + 1), str(-bound - 1), str(2**63 - 1), str(-(2**63 - 1)),
        str(2**63), str(-(2**63)), "#", "5#", "x", "1.5", "1e3", "inf", "-",
    ])
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    tokens = draw(st.lists(good, min_size=rows * cols, max_size=rows * cols))
    for _ in range(draw(st.integers(0, 2)) if tokens else 0):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
    if draw(st.booleans()):
        cuts = list(range(0, len(tokens), cols))
    else:
        cuts = sorted(set(draw(st.lists(st.integers(0, len(tokens)), max_size=6))))
    seps = st.sampled_from([" ", "\t", "  ", " \t "])
    body = []
    for i, (a, b) in enumerate(zip(cuts, [*cuts[1:], len(tokens)])):
        text = draw(seps).join(tokens[a:b]).strip()
        if text and not text.startswith("#"):  # else a blank or comment line
            body.append((20 + 2 * i, text))
    expect = max(1, len(tokens) + draw(st.sampled_from([0, 0, 0, 1, -1])))
    return {name: (10, body)}, name, expect, bound


def _read_values(sections, name, expect, bound):
    values, finite = fileio._section_values(sections, name, expect, bound)
    return values.dtype, values.tolist(), finite.tolist()


class TestFastSectionReader:
    """Sections read by numpy's text reader against the token path."""

    @settings(max_examples=400, deadline=None)
    @given(value_sections())
    @example(({"values": (10, [(20, "1 5#")])}, "values", 2, SHIFTED_ENTRY_BOUND))
    @example(({"vector a": (10, [(20, "1 2 #")])}, "vector a", 2, ENTRY_BOUND))
    def test_same_values_or_same_fault(self, case):
        got = _outcome(_read_values, *case)
        with token_path_only():
            assert got == _outcome(_read_values, *case)

    @settings(max_examples=300, deadline=None)
    @given(value_sections(infs=True))
    @example(({"values": (10, [(20, "inf 1"), (22, "2 inf")])}, "values", 4,
              SHIFTED_ENTRY_BOUND))
    @example(({"values": (10, [(20, "inf"), (22, "2 inf")])}, "values", 3,
              SHIFTED_ENTRY_BOUND))
    @example(({"matrix A": (10, [(20, "1 2"), (22, "inf 3")])}, "matrix A", 4,
              ENTRY_BOUND))
    @example(({"values": (10, [(20, "-inf 1"), (22, "inf5 inf")])}, "values", 4,
              SHIFTED_ENTRY_BOUND))
    def test_infinities_read_as_the_token_path_reads_them(self, case):
        # Same values, same finite mask, or the same fault at the same line.
        got = _outcome(_read_values, *case)
        with token_path_only():
            assert got == _outcome(_read_values, *case)

    def test_result_with_an_inf_takes_the_fast_path(self):
        n = 128
        values = np.arange(n * n, dtype=np.int64).reshape(n, n) - 5000
        finite = np.ones((n, n), dtype=bool)
        finite[5, 7] = finite[n - 1, 0] = False
        text = serialize(ResultDocument("result-matrix", n, MinPlusOutput(values, finite)))
        with mock.patch.object(fileio, "_token_values", _refuse):
            doc = parse_document(text)
        assert np.array_equal(doc.output.finite, finite)
        assert np.array_equal(doc.output.values, np.where(finite, values, 0))

    def test_empty_section_names_the_count(self):
        # numpy's reader warns on empty input; it is not asked to read one.
        sections = {"matrix A": (7, [])}
        with pytest.raises(ParseError, match="line 7: expected 4 values, found 0"):
            fileio._section_values(sections, "matrix A", 4, ENTRY_BOUND)

    def test_clean_documents_take_the_fast_path(self, tmp_path, capsys):
        text, _ = matrix_text_128()
        src, dec = tmp_path / "in.txt", tmp_path / "dec.txt"
        src.write_text(text)
        assert cli.main(["decompose", str(src), "--mode", "nondec",
                         "--target", "both", "--out", str(dec)]) == 0
        with mock.patch.object(fileio, "_token_values", _refuse):
            doc = parse_document(dec.read_text())
        assert all(p.positions.base is not None for d in doc.dec_rows for p in d.parts)


EXTREMES = st.sampled_from(
    [ENTRY_BOUND, -ENTRY_BOUND, 0, 1, -1, 10**6, -(10**6)]
)
SHIFTED_EXTREMES = st.sampled_from(
    [SHIFTED_ENTRY_BOUND, -SHIFTED_ENTRY_BOUND, ENTRY_BOUND, -ENTRY_BOUND, 0, -1]
)


def drawn_values(draw, shape, extremes):
    """Random int64 values within +-|e| for a drawn extreme e (1 if e is
    0), a drawn share of them replaced by drawn extremes; and the rng."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bound = abs(draw(extremes)) or 1
    values = rng.integers(-bound, bound, size=shape, endpoint=True)
    picks = draw(st.lists(extremes, min_size=1, max_size=8))
    hits = rng.random(shape) < draw(st.floats(0, 1))
    values[hits] = rng.choice(np.array(picks, dtype=np.int64), size=int(hits.sum()))
    return values, rng


@st.composite
def matrix_docs(draw):
    n = draw(st.integers(1, 40))
    values, _ = drawn_values(draw, (2, n, n), EXTREMES)
    A, B = IntMatrix(values[0]), IntMatrix(values[1])
    mode = draw(st.sampled_from(["nondec", "noninc", "uniform", None]))
    dec_rows = dec_cols = None
    if mode is not None:
        pad = draw(st.integers(0, 2))
        dec_rows = tuple(padded(d, d.part_count + pad) for d in decompose_rows(A, mode))
        dec_cols = tuple(decompose_cols(B, mode))
    return MatrixInstance(A, B, dec_rows, dec_cols, {"seed": str(n)})


@st.composite
def vector_docs(draw):
    n = draw(st.integers(1, 40))
    values, _ = drawn_values(draw, (2, n), EXTREMES)
    a, b = IntVector(values[0]), IntVector(values[1])
    dec_a = decompose_nondecreasing(a.coords)
    dec_a = padded(dec_a, dec_a.part_count + draw(st.integers(0, 3)))
    dec_b = draw(st.sampled_from([None, decompose_uniform(b.coords)]))
    return VectorInstance(a, b, dec_a, dec_b, {})


@st.composite
def result_docs(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["result-matrix", "result-vector"]))
    shape = (n, n) if kind == "result-matrix" else (2 * n - 1,)
    values, rng = drawn_values(draw, shape, SHIFTED_EXTREMES)
    finite = rng.random(shape) >= draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    return ResultDocument(kind, n, MinPlusOutput(values, finite), {"algorithm": "fig1"})


class TestRoundTripProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(matrix_docs(), vector_docs(), result_docs()))
    def test_parse_inverts_serialize(self, doc):
        text = serialize(doc)
        back = parse_document(text)
        assert back == doc
        assert serialize(back) == text


def padded_alike(decs):
    """``decs`` padded to their largest part count, as the guard documents
    were first written."""
    m = max(d.part_count for d in decs)
    return tuple(padded(d, m) for d in decs)


def guard_docs():
    """A matrix instance with decompositions and a result matrix with
    infinities (plus their vector counterparts), built from a fixed seed."""
    rng = np.random.default_rng(20231)
    n = 12
    A, B = (
        IntMatrix(rng.integers(-ENTRY_BOUND, ENTRY_BOUND, size=(n, n), endpoint=True))
        for _ in range(2)
    )
    mat = MatrixInstance(
        A, B, padded_alike(decompose_rows(A, "nondec")),
        padded_alike(decompose_cols(B, "noninc")),
        {"seed": "20231"},
    )
    vals = rng.integers(
        -SHIFTED_ENTRY_BOUND, SHIFTED_ENTRY_BOUND, size=(9, 9), endpoint=True
    )
    res = ResultDocument(
        "result-matrix", 9, MinPlusOutput(vals, rng.random((9, 9)) < 0.7),
        {"algorithm": "fig1"},
    )
    a, b = (
        IntVector(rng.integers(-ENTRY_BOUND, ENTRY_BOUND, size=15, endpoint=True))
        for _ in range(2)
    )
    vec = VectorInstance(
        a, b, decompose_nonincreasing(a.coords),
        padded(decompose_nondecreasing(b.coords), 9), {},
    )
    cvals = rng.integers(
        -SHIFTED_ENTRY_BOUND, SHIFTED_ENTRY_BOUND, size=29, endpoint=True
    )
    rvec = ResultDocument(
        "result-vector", 15, MinPlusOutput(cvals, rng.random(29) < 0.6), {}
    )
    return {"matrix": mat, "result-matrix": res, "vector": vec, "result-vector": rvec}


#: SHA-256 of each guard document's text as the token-at-a-time writer
#: wrote it, before rows and parts were written whole.  The two instance
#: documents, rebuilt on exact decompositions, were re-pinned on the writer
#: the others were last checked against.
GUARD_SHA256 = {
    "matrix": "b269141606dd23e3a3c6acd6a0657dfc1836d546db5f3c6beedf3ed5814a4914",
    "result-matrix": "9d665ccfb2e2733883aab927ae84d590a69c15ab4e5efff4b63f8535e4cb157a",
    "vector": "88f3e41d610655e8a1009d6bb21a1f6a2f3f1605ebd76044284d7903249cba2f",
    "result-vector": "5bebf98d90365ff3625e13a9ec27ab0c0ee27bf322e4319358f0e8db5bc9c00b",
}


@pytest.mark.parametrize("name", sorted(GUARD_SHA256))
def test_serialized_bytes_are_pinned(name):
    text = serialize(guard_docs()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GUARD_SHA256[name]
    assert parse_document(text) == guard_docs()[name]


def result_with_holes():
    """A result matrix with ``inf`` first, last and along a whole row, and
    the shifted bound at both signs."""
    values = np.arange(25, dtype=np.int64).reshape(5, 5) * 7919 - 90000
    values[1] = [SHIFTED_ENTRY_BOUND, -SHIFTED_ENTRY_BOUND, 0, -1, 1]
    finite = np.ones((5, 5), dtype=bool)
    finite[0, 0] = finite[4, 4] = False
    finite[2] = False
    output = MinPlusOutput(values, finite)
    return ResultDocument("result-matrix", 5, output, {"algorithm": "naive"})


def test_result_with_holes_is_pinned():
    # Recorded before the writer put every section through one helper.
    text = serialize(result_with_holes())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ce87e64faf564f2556ea326ccbab67b537303f86ca62b9b2428c07c9b3762a44"
    )
    assert serialize(parse_document(text)) == text


#: SHA-256 of serialize(parse(text)) for each seed's decomposed file, taken
#: with the writer as it was before these fixtures changed, so the pins
#: still show that writer unchanged.
DECOMPOSED_SHA256 = {
    0: "c4b2b0acc1f69c2a1afbf91c70212c1775e52dc92153353da5b33677bdbd5c42",
    1: "f7b1c6e96aefc1f6281eeabc5df19f9f446b77d210d265115bde7e22354c09f9",
    2: "efbcbeb8ea13240129e641ba867bcaa8f5ac040208960a7f93c0a429bd97b525",
}


@pytest.mark.parametrize("seed", sorted(DECOMPOSED_SHA256))
def test_decomposed_file_round_trips_byte_for_byte(seed, tmp_path, capsys):
    # fig2's planted rows mix nondec and noninc parts; its cols are uniform.
    src, dec = tmp_path / "in.txt", tmp_path / "dec.txt"
    assert cli.main(["gen", "--algo", "fig2", "--n", "40", "--seed", str(seed),
                     "--out", str(src)]) == 0
    assert cli.main(["decompose", str(src), "--mode", "uniform", "--target", "cols",
                     "--out", str(dec)]) == 0
    text = dec.read_text()
    out = serialize(parse_document(text))
    assert out == text
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSED_SHA256[seed]
