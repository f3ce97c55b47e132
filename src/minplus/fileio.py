"""Line-oriented text format for instances and results.

A document is headers, then named sections:

    format: minplus/1
    kind: matrix            # matrix | vector | result-matrix | result-vector
    n: 6
    index-base: 1           # 1 for matrix documents, 0 for vector documents
    meta seed: 7            # optional, free-form string metadata

    begin matrix A
    1 7 3 9 8 4
    ...
    end matrix A

Matrix instances hold sections ``matrix A`` and ``matrix B`` plus optional
``decompositions A rows`` / ``decompositions B cols`` with one line per
row/column: ``row 1: nondec 1 3 6 | nondec 2 5 | nondec 4`` (1-based
indices, parts split on ``|``, an empty part is a bare tag).  Vector
instances hold ``vector a`` / ``vector b`` and optional single-line
``decomposition a`` / ``decomposition b`` sections with 0-based indices.
Result documents hold one ``values`` section with n*n (matrix) or 2n-1
(vector) whitespace-separated tokens; ``inf`` marks an undefined entry.
Integers, ``n`` included, are ASCII ``-?[0-9]+``; Python's ``int()`` would
also take ``+5``, ``1_0`` and non-ASCII digits, which do not round-trip.
``n`` is always the input dimension.  Blank lines and ``#`` comment lines
are ignored.  parse(serialize(x)) == x.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENTRY_BOUND,
    MAX_DIMENSION,
    SHIFTED_ENTRY_BOUND,
    Decomposition,
    IntMatrix,
    IntVector,
    MinPlusError,
    MinPlusOutput,
    MonotoneTag,
    Subsequence,
    validate_decomposition,
)

FORMAT_TOKEN = "minplus/1"


class ParseError(MinPlusError):
    """Malformed document; carries the 1-based source line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class MatrixInstance:
    A: IntMatrix
    B: IntMatrix
    dec_rows: tuple[Decomposition, ...] | None = None
    dec_cols: tuple[Decomposition, ...] | None = None
    meta: dict[str, str] = field(default_factory=dict)


@dataclass
class VectorInstance:
    a: IntVector
    b: IntVector
    dec_a: Decomposition | None = None
    dec_b: Decomposition | None = None
    meta: dict[str, str] = field(default_factory=dict)


@dataclass
class ResultDocument:
    kind: str  # result-matrix | result-vector
    n: int
    output: MinPlusOutput
    meta: dict[str, str] = field(default_factory=dict)


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            out.append((i, s))
    return out


def _check_section_line(lineno: int, s: str) -> None:
    """Section lines hold only integers, ``inf``, part tags and separators.
    With ``+``, ``_`` and non-ASCII characters refused here, ``int()``
    accepts exactly ``-?[0-9]+``, so every number read back round-trips."""
    if s.isascii() and "+" not in s and "_" not in s:
        return
    # Only non-ASCII whitespace is bad when no token is: show the line.
    bad = next((t for t in s.split() if not t.isascii() or "+" in t or "_" in t), s)
    raise ParseError(f"bad token {bad!r}", lineno)


def _split_headers_sections(lines):
    headers: list[tuple[int, str, str]] = []
    sections: dict[str, tuple[int, list[tuple[int, str]]]] = {}
    pos = 0
    while pos < len(lines):
        lineno, s = lines[pos]
        if s.startswith("begin "):
            break
        if ":" not in s:
            raise ParseError(f"expected 'key: value' header, got {s!r}", lineno)
        key, _, value = s.partition(":")
        headers.append((lineno, key.strip(), value.strip()))
        pos += 1
    while pos < len(lines):
        lineno, s = lines[pos]
        if not s.startswith("begin "):
            raise ParseError(f"expected 'begin <section>', got {s!r}", lineno)
        name = s[len("begin ") :].strip()
        if name in sections:
            raise ParseError(f"duplicate section {name!r}", lineno)
        pos += 1
        body: list[tuple[int, str]] = []
        while pos < len(lines) and lines[pos][1] != f"end {name}":
            if lines[pos][1].startswith(("begin ", "end ")):
                raise ParseError(
                    f"section {name!r} not closed before {lines[pos][1]!r}",
                    lines[pos][0],
                )
            _check_section_line(*lines[pos])
            body.append(lines[pos])
            pos += 1
        if pos == len(lines):
            raise ParseError(f"section {name!r} never closed", lineno)
        sections[name] = (lineno, body)
        pos += 1
    return headers, sections


def _parse_int(tok: str, lineno: int, bound: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(f"bad integer {tok!r}", lineno) from None
    if abs(v) > bound:
        raise ParseError(f"value {v} exceeds magnitude bound {bound}", lineno)
    return v


def _section_tokens(body, expect: int, lineno: int, bound: int):
    values, mask, lines_used = [], [], []
    for ln, s in body:
        for tok in s.split():
            if tok == "inf":
                values.append(0)
                mask.append(False)
            else:
                values.append(_parse_int(tok, ln, bound))
                mask.append(True)
            lines_used.append(ln)
    if len(values) != expect:
        raise ParseError(
            f"expected {expect} values, found {len(values)}", lineno
        )
    return values, mask, lines_used


def _require_section(sections, name: str):
    if name not in sections:
        raise ParseError(f"missing required section {name!r}")
    return sections[name]


def _parse_parts(text: str, lineno: int, base: int, n: int) -> Decomposition:
    subs = []
    for chunk in text.split("|"):
        toks = chunk.split()
        if not toks:
            raise ParseError("empty part needs its tag", lineno)
        try:
            tag = MonotoneTag(toks[0])
        except ValueError:
            raise ParseError(f"unknown part tag {toks[0]!r}", lineno) from None
        idx = tuple(
            _parse_int(t, lineno, MAX_DIMENSION) - base for t in toks[1:]
        )
        try:
            subs.append(Subsequence(idx, tag))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), lineno) from None
    return Decomposition(n, tuple(subs))


def _parse_axis_decompositions(body, lineno, axis_word: str, n: int):
    if len(body) != n:
        raise ParseError(
            f"expected {n} '{axis_word} <i>:' lines, found {len(body)}", lineno
        )
    decs = []
    for want, (ln, s) in enumerate(body, start=1):
        prefix = f"{axis_word} {want}:"
        if not s.startswith(prefix):
            raise ParseError(f"expected line starting {prefix!r}", ln)
        decs.append(_parse_parts(s[len(prefix) :], ln, base=1, n=n))
    return tuple(decs)


def _header_dict(headers):
    plain: dict[str, str] = {}
    meta: dict[str, str] = {}
    where: dict[str, int] = {}
    for lineno, key, value in headers:
        if key.startswith("meta "):
            mkey = key[len("meta ") :].strip()
            if mkey in meta:
                raise ParseError(f"duplicate meta key {mkey!r}", lineno)
            meta[mkey] = value
        else:
            if key in plain:
                raise ParseError(f"duplicate header {key!r}", lineno)
            plain[key] = value
            where[key] = lineno
    return plain, meta, where


def parse_document(text: str):
    """Parse a document into MatrixInstance, VectorInstance, or
    ResultDocument.  Structural problems raise ParseError; attached
    decompositions are validated against their hosts, so semantic
    problems surface as the usual validation errors."""
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError("empty document")
    headers, sections = _split_headers_sections(lines)
    plain, meta, where = _header_dict(headers)
    for key in ("format", "kind", "n", "index-base"):
        if key not in plain:
            raise ParseError(f"missing required header {key!r}")
    if plain["format"] != FORMAT_TOKEN:
        raise ParseError(
            f"unsupported format {plain['format']!r}", where["format"]
        )
    kind = plain["kind"]
    if kind not in ("matrix", "vector", "result-matrix", "result-vector"):
        raise ParseError(f"unknown kind {kind!r}", where["kind"])
    if not (plain["n"].isascii() and plain["n"].isdigit()):
        raise ParseError(f"bad n {plain['n']!r}", where["n"])
    n = int(plain["n"])
    if not 1 <= n <= MAX_DIMENSION:
        raise ParseError(
            f"n must be in [1, {MAX_DIMENSION}], got {n}", where["n"]
        )
    base = plain["index-base"]
    expect_base = "0" if kind in ("vector", "result-vector") else "1"
    if base != expect_base:
        raise ParseError(
            f"kind {kind!r} requires index-base {expect_base}, got {base!r}",
            where["index-base"],
        )

    if kind == "matrix":
        return _parse_matrix_instance(sections, n, meta)
    if kind == "vector":
        return _parse_vector_instance(sections, n, meta)
    count = n * n if kind == "result-matrix" else 2 * n - 1
    lineno, body = _require_section(sections, "values")
    values, mask, _ = _section_tokens(body, count, lineno, SHIFTED_ENTRY_BOUND)
    arr = np.array(values, dtype=np.int64)
    if kind == "result-matrix":
        arr = arr.reshape(n, n)
        finite = np.array(mask).reshape(n, n)
    else:
        finite = np.array(mask)
    return ResultDocument(kind, n, MinPlusOutput(arr, finite), meta)


def _dense_values(sections, name: str, n: int, count: int):
    lineno, body = _require_section(sections, name)
    values, mask, lines_used = _section_tokens(body, count, lineno, ENTRY_BOUND)
    if not all(mask):
        bad = lines_used[mask.index(False)]
        raise ParseError(f"section {name!r} does not allow 'inf'", bad)
    return np.array(values, dtype=np.int64)


def _parse_matrix_instance(sections, n, meta):
    A = IntMatrix(_dense_values(sections, "matrix A", n, n * n).reshape(n, n))
    B = IntMatrix(_dense_values(sections, "matrix B", n, n * n).reshape(n, n))
    dec_rows = dec_cols = None
    if "decompositions A rows" in sections:
        lineno, body = sections["decompositions A rows"]
        dec_rows = _parse_axis_decompositions(body, lineno, "row", n)
        validate_decomposition(dec_rows, A.entries)
    if "decompositions B cols" in sections:
        lineno, body = sections["decompositions B cols"]
        dec_cols = _parse_axis_decompositions(body, lineno, "col", n)
        validate_decomposition(dec_cols, B.entries.T)
    return MatrixInstance(A, B, dec_rows, dec_cols, meta)


def _parse_vector_instance(sections, n, meta):
    a = IntVector(_dense_values(sections, "vector a", n, n))
    b = IntVector(_dense_values(sections, "vector b", n, n))
    dec_a = dec_b = None
    for name, host in (("decomposition a", a), ("decomposition b", b)):
        if name in sections:
            lineno, body = sections[name]
            if len(body) != 1:
                raise ParseError(
                    f"section {name!r} must be a single line", lineno
                )
            dec = _parse_parts(body[0][1], body[0][0], base=0, n=n)
            validate_decomposition(dec, host.coords)
            if name.endswith(" a"):
                dec_a = dec
            else:
                dec_b = dec
    return VectorInstance(a, b, dec_a, dec_b, meta)


def parse_path(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_document(f.read())


def _fmt_parts(dec: Decomposition, base: int) -> str:
    return " | ".join(
        " ".join([p.tag.value] + [str(i + base) for i in p.indices])
        for p in dec.parts
    )


def _emit_headers(out: list[str], kind: str, n: int, meta: dict[str, str]):
    base = "0" if kind in ("vector", "result-vector") else "1"
    out.append(f"format: {FORMAT_TOKEN}")
    out.append(f"kind: {kind}")
    out.append(f"n: {n}")
    out.append(f"index-base: {base}")
    for key, value in meta.items():
        out.append(f"meta {key}: {value}")
    out.append("")


def serialize(doc) -> str:
    """Serialize a MatrixInstance, VectorInstance, or ResultDocument."""
    out: list[str] = []
    if isinstance(doc, MatrixInstance):
        n = doc.A.n
        _emit_headers(out, "matrix", n, doc.meta)
        for name, M in (("A", doc.A), ("B", doc.B)):
            out.append(f"begin matrix {name}")
            for i in range(n):
                out.append(" ".join(str(int(x)) for x in M.entries[i]))
            out.append(f"end matrix {name}")
            out.append("")
        for decs, section, word in (
            (doc.dec_rows, "decompositions A rows", "row"),
            (doc.dec_cols, "decompositions B cols", "col"),
        ):
            if decs is None:
                continue
            out.append(f"begin {section}")
            for i, d in enumerate(decs, start=1):
                out.append(f"{word} {i}: {_fmt_parts(d, base=1)}")
            out.append(f"end {section}")
            out.append("")
    elif isinstance(doc, VectorInstance):
        n = doc.a.n
        _emit_headers(out, "vector", n, doc.meta)
        for name, v in (("a", doc.a), ("b", doc.b)):
            out.append(f"begin vector {name}")
            out.append(" ".join(str(int(x)) for x in v.coords))
            out.append(f"end vector {name}")
            out.append("")
        for name, dec in (("a", doc.dec_a), ("b", doc.dec_b)):
            if dec is None:
                continue
            out.append(f"begin decomposition {name}")
            out.append(_fmt_parts(dec, base=0))
            out.append(f"end decomposition {name}")
            out.append("")
    elif isinstance(doc, ResultDocument):
        _emit_headers(out, doc.kind, doc.n, doc.meta)
        out.append("begin values")
        vals = doc.output.values
        finite = doc.output.finite
        if doc.kind == "result-matrix":
            for i in range(doc.n):
                out.append(
                    " ".join(
                        str(int(v)) if f else "inf"
                        for v, f in zip(vals[i], finite[i])
                    )
                )
        else:
            out.append(
                " ".join(
                    str(int(v)) if f else "inf" for v, f in zip(vals, finite)
                )
            )
        out.append("end values")
        out.append("")
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")
    return "\n".join(out)


def write_atomic(path, text: str) -> None:
    """Write via a sibling temp file and atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minplus-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
