"""Text format round trips and parse failure reporting."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    ENTRY_BOUND,
    SHIFTED_ENTRY_BOUND,
    CoverageGapError,
    Decomposition,
    IntMatrix,
    IntVector,
    MinPlusOutput,
    MonotoneTag,
    OverlapError,
    Subsequence,
    decompose_cols,
    decompose_monotone_greedy,
    decompose_nondecreasing,
    decompose_rows,
    decompose_uniform,
)
from minplus import cli
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
        d = Decomposition(3, (Subsequence((0, 1, 2), ND),)).padded(3)
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
    ])
    def test_decomposition_faults_keep_their_line(self, line, message):
        text = serialize(mat_doc()).replace("row 2: nondec 1 2", line)
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == text.splitlines().index(line) + 1
        assert str(err.value).endswith(message)

    def test_decomposition_fault_on_an_earlier_line_wins(self):
        text = serialize(mat_doc())
        text = text.replace("row 1: nondec 1 2", "row 1: nondec 1 1").replace(
            "row 2:", "row 3:"
        )
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value).endswith("indices not strictly increasing: 0 !< 0")


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
        dec_rows = tuple(d.padded(d.part_count + pad) for d in decompose_rows(A, mode))
        dec_cols = tuple(decompose_cols(B, mode))
    return MatrixInstance(A, B, dec_rows, dec_cols, {"seed": str(n)})


@st.composite
def vector_docs(draw):
    n = draw(st.integers(1, 40))
    values, _ = drawn_values(draw, (2, n), EXTREMES)
    a, b = IntVector(values[0]), IntVector(values[1])
    dec_a = decompose_nondecreasing(a.coords)
    dec_a = dec_a.padded(dec_a.part_count + draw(st.integers(0, 3)))
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
        A, B, tuple(decompose_rows(A, "nondec")), tuple(decompose_cols(B, "greedy")),
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
        a, b, decompose_monotone_greedy(a.coords),
        decompose_nondecreasing(b.coords).padded(9), {},
    )
    cvals = rng.integers(
        -SHIFTED_ENTRY_BOUND, SHIFTED_ENTRY_BOUND, size=29, endpoint=True
    )
    rvec = ResultDocument(
        "result-vector", 15, MinPlusOutput(cvals, rng.random(29) < 0.6), {}
    )
    return {"matrix": mat, "result-matrix": res, "vector": vec, "result-vector": rvec}


#: SHA-256 of each guard document's text as the token-at-a-time writer
#: wrote it, before rows and parts were written whole.
GUARD_SHA256 = {
    "matrix": "b793678657eead5ac7168b95a720d868e4b5f153c7cb5553809a6b328ccdde84",
    "result-matrix": "9d665ccfb2e2733883aab927ae84d590a69c15ab4e5efff4b63f8535e4cb157a",
    "vector": "2bce3b8d4dd18153d316056f15169ce335612aea2a10329fd15ceac40834a625",
    "result-vector": "5bebf98d90365ff3625e13a9ec27ab0c0ee27bf322e4319358f0e8db5bc9c00b",
}


@pytest.mark.parametrize("name", sorted(GUARD_SHA256))
def test_serialized_bytes_are_pinned(name):
    text = serialize(guard_docs()[name])
    assert hashlib.sha256(text.encode()).hexdigest() == GUARD_SHA256[name]
    assert parse_document(text) == guard_docs()[name]
