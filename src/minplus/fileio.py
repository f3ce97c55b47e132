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

Sections are read and written whole: one split and one int64 conversion
per section, one bound check, rows written from ``tolist()``.  Only a
section that fails is read again token by token, so a fault is still
reported at its line, with the message a token-at-a-time reader gives.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENTRY_BOUND,
    MAX_DIMENSION,
    SHIFTED_ENTRY_BOUND,
    AxisParts,
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
    #: What validating ``dec_rows`` and ``dec_cols`` returned, kept by the
    #: parser so a caller need not validate them again; None when not
    #: validated, and to be reset when the decompositions are replaced.
    rows_parts: AxisParts | None = field(default=None, compare=False, repr=False)
    cols_parts: AxisParts | None = field(default=None, compare=False, repr=False)


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


def _ints(tokens: list[str], bound: int) -> np.ndarray | None:
    """int() of every token as one int64 array (numpy calls int() on each
    str), or None if a token is no integer or a value lies past ``bound``."""
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if values.size and (values.min() < -bound or values.max() > bound):
        return None
    return values


def _section_values(sections, name: str, expect: int, bound: int):
    """Section ``name`` as ``expect`` int64 values and their finite mask,
    read whole: one split, one conversion, one bound check.  Only a result's
    ``values`` section may hold ``inf``.  Faults are reported as a
    token-by-token read meets them: a bad integer or a value past ``bound``
    at its line, then a wrong count at the begin line, then an ``inf``."""
    lineno, body = _require_section(sections, name)
    text = " ".join([s for _, s in body])
    tokens = text.split()
    finite = np.ones(len(tokens), dtype=bool)
    if "inf" in text:
        finite = np.fromiter(map("inf".__ne__, tokens), dtype=bool, count=len(tokens))
        tokens = list(itertools.compress(tokens, finite))
    ints = _ints(tokens, bound)
    if ints is None:  # read token by token, which raises at the first fault
        ints = [
            _parse_int(t, ln, bound)
            for ln, s in body
            for t in s.split()
            if t != "inf"
        ]
    values = np.zeros(finite.size, dtype=np.int64)
    values[finite] = ints
    if finite.size != expect:
        raise ParseError(
            f"expected {expect} values, found {finite.size}", lineno
        )
    if name != "values" and not finite.all():
        bad = next(ln for ln, s in body if "inf" in s.split())
        raise ParseError(f"section {name!r} does not allow 'inf'", bad)
    return values, finite


def _require_section(sections, name: str):
    if name not in sections:
        raise ParseError(f"missing required section {name!r}")
    return sections[name]


_TAGS = {tag.value: tag for tag in MonotoneTag}


def _parse_parts(text: str, lineno: int, base: int, n: int) -> Decomposition:
    """One line of parts, token by token; raises at its first fault."""
    subs = []
    for chunk in text.split("|"):
        toks = chunk.split()
        if not toks:
            raise ParseError("empty part needs its tag", lineno)
        if toks[0] not in _TAGS:
            raise ParseError(f"unknown part tag {toks[0]!r}", lineno)
        idx = tuple(
            _parse_int(t, lineno, MAX_DIMENSION) - base for t in toks[1:]
        )
        try:
            subs.append(Subsequence(idx, _TAGS[toks[0]]))
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc), lineno) from None
    return Decomposition(n, tuple(subs))


def _read_decompositions(lines, base: int, n: int) -> list[Decomposition]:
    """One decomposition per (line number, parts text) pair, the index
    tokens of all lines converted in one call and bound-checked at once.
    If a part is malformed, the lines are read again one at a time by
    :func:`_parse_parts`, which names the first fault."""
    tags, sizes, tokens, counts = [], [], [], []
    for _, text in lines:
        chunks = text.split("|")
        counts.append(len(chunks))
        for chunk in chunks:
            tag, *idx = chunk.split() or [""]
            tags.append(_TAGS.get(tag))
            sizes.append(len(idx))
            tokens += idx
    ints = _ints(tokens, MAX_DIMENSION)
    del tokens
    if ints is not None and None not in tags:
        flat = (ints - base).tolist()
        starts = itertools.accumulate(sizes, initial=0)
        with contextlib.suppress(ValueError):  # indices out of order
            subs = [
                Subsequence(tuple(flat[a : a + k]), tag)
                for a, k, tag in zip(starts, sizes, tags)
            ]
            cuts = itertools.pairwise(itertools.accumulate(counts, initial=0))
            return [Decomposition(n, tuple(subs[a:b])) for a, b in cuts]
    return [_parse_parts(text, ln, base, n) for ln, text in lines]


def _parse_axis_decompositions(body, lineno, axis_word: str, n: int):
    if len(body) != n:
        raise ParseError(
            f"expected {n} '{axis_word} <i>:' lines, found {len(body)}", lineno
        )
    lines = []
    for want, (ln, s) in enumerate(body, start=1):
        prefix = f"{axis_word} {want}:"
        if not s.startswith(prefix):
            # The lines above may hold an earlier fault; name it first.
            _read_decompositions(lines, base=1, n=n)
            raise ParseError(f"expected line starting {prefix!r}", ln)
        lines.append((ln, s[len(prefix) :]))
    return tuple(_read_decompositions(lines, base=1, n=n))


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
    values, finite = _section_values(
        sections, "values", count, SHIFTED_ENTRY_BOUND
    )
    if kind == "result-matrix":
        values, finite = values.reshape(n, n), finite.reshape(n, n)
    return ResultDocument(kind, n, MinPlusOutput(values, finite), meta)


def _parse_matrix_instance(sections, n, meta):
    A, B = (
        IntMatrix(_section_values(sections, name, n * n, ENTRY_BOUND)[0].reshape(n, n))
        for name in ("matrix A", "matrix B")
    )
    inst = MatrixInstance(A, B, meta=meta)
    if "decompositions A rows" in sections:
        lineno, body = sections["decompositions A rows"]
        inst.dec_rows = _parse_axis_decompositions(body, lineno, "row", n)
        inst.rows_parts = validate_decomposition(inst.dec_rows, A.entries)
    if "decompositions B cols" in sections:
        lineno, body = sections["decompositions B cols"]
        inst.dec_cols = _parse_axis_decompositions(body, lineno, "col", n)
        inst.cols_parts = validate_decomposition(inst.dec_cols, B.entries.T)
    return inst


def _parse_vector_instance(sections, n, meta):
    a, b = (
        IntVector(_section_values(sections, name, n, ENTRY_BOUND)[0])
        for name in ("vector a", "vector b")
    )
    dec_a = dec_b = None
    for name, host in (("decomposition a", a), ("decomposition b", b)):
        if name in sections:
            lineno, body = sections[name]
            if len(body) != 1:
                raise ParseError(
                    f"section {name!r} must be a single line", lineno
                )
            (dec,) = _read_decompositions(body, base=0, n=n)
            validate_decomposition(dec, host.coords)
            if name.endswith(" a"):
                dec_a = dec
            else:
                dec_b = dec
    return VectorInstance(a, b, dec_a, dec_b, meta)


def parse_path(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_document(f.read())


class _IndexText(dict):
    """Index i -> its text ``str(i + base)``, made once per index met."""

    def __init__(self, base: int):
        super().__init__()
        self.base = base

    def __missing__(self, i: int) -> str:
        self[i] = text = str(i + self.base)
        return text


def _fmt_parts(dec: Decomposition, names: _IndexText) -> str:
    return " | ".join(
        " ".join([p.tag.value, *map(names.__getitem__, p.indices)])
        for p in dec.parts
    )


def _fmt_rows(values: np.ndarray, finite: np.ndarray | None = None) -> list[str]:
    """One line per row of 2-D ``values``, ``inf`` where ``finite`` is
    False; only rows holding an ``inf`` are written token by token."""
    lines = []
    for i, row in enumerate(values):
        toks = map(str, row.tolist())
        if finite is not None and not finite[i].all():
            toks = [t if f else "inf" for t, f in zip(toks, finite[i].tolist())]
        lines.append(" ".join(toks))
    return lines


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
        names = _IndexText(base=1)
        _emit_headers(out, "matrix", n, doc.meta)
        for name, M in (("A", doc.A), ("B", doc.B)):
            out.append(f"begin matrix {name}")
            out += _fmt_rows(M.entries)
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
                out.append(f"{word} {i}: {_fmt_parts(d, names)}")
            out.append(f"end {section}")
            out.append("")
    elif isinstance(doc, VectorInstance):
        n = doc.a.n
        _emit_headers(out, "vector", n, doc.meta)
        for name, v in (("a", doc.a), ("b", doc.b)):
            out.append(f"begin vector {name}")
            out += _fmt_rows(v.coords[None])
            out.append(f"end vector {name}")
            out.append("")
        for name, dec in (("a", doc.dec_a), ("b", doc.dec_b)):
            if dec is None:
                continue
            out.append(f"begin decomposition {name}")
            out.append(_fmt_parts(dec, _IndexText(base=0)))
            out.append(f"end decomposition {name}")
            out.append("")
    elif isinstance(doc, ResultDocument):
        _emit_headers(out, doc.kind, doc.n, doc.meta)
        out.append("begin values")
        output = doc.output
        out += _fmt_rows(np.atleast_2d(output.values), np.atleast_2d(output.finite))
        out.append("end values")
        out.append("")
    else:
        raise TypeError(f"cannot serialize {type(doc).__name__}")
    return "\n".join(out)


def write_atomic(path, text: str) -> None:
    """Write via a sibling temp file and atomic rename.  A new file gets the
    mode ``open(path, "w")`` would give it; a replaced file keeps its
    permission bits."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".minplus-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
