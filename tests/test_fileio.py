"""Text format round trips and parse failure reporting."""

import os

import numpy as np
import pytest

from minplus import (
    CoverageGapError,
    Decomposition,
    IntMatrix,
    IntVector,
    MinPlusOutput,
    MonotoneTag,
    OverlapError,
    Subsequence,
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

    def test_no_stray_temp_files(self, tmp_path):
        p = tmp_path / "out.txt"
        write_atomic(p, "x\n")
        assert os.listdir(tmp_path) == ["out.txt"]
