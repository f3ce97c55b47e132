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

Sections are read whole by numpy's C text reader: a value section with
each ``inf`` read as 0 and masked, or a decomposition section's index text
with tags and ``|`` taken off, whose parts are then checked in one pass per
axis and kept as slices of one read-only array.  A section it refuses,
ragged ones included, is walked one token at a time to its first fault,
which is reported at its line.  Each section is written by one helper,
rows and parts from ``tolist()``.
"""

from __future__ import annotations

import contextlib
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENTRY_BOUND,
    MAX_DIMENSION,
    SHIFTED_ENTRY_BOUND,
    AxisParts,
    Decomposition,
    IndexOutOfRange,
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


def _int_rows(lines: list[str], bound: int) -> np.ndarray | None:
    """Non-blank ``lines`` of equally many tokens as one flat int64 array,
    or None if ragged, past ``bound`` or not ints.  On lines that passed
    :func:`_check_section_line` numpy's reader takes what ``int()`` takes,
    split on the same whitespace; ``comments=None``, as ``#`` ends a row.
    A warning (empty input, or a field read through a float) refuses too."""
    if not lines:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2).ravel()
    except (ValueError, Warning):
        return None
    return None if values.min() < -bound or values.max() > bound else values


def _masked_rows(lines: list[str], bound: int):
    """:func:`_int_rows` of ``lines`` with each ``inf`` token read as 0, and
    the finite mask; or None.  Only lines holding ``inf`` are split, and
    rewritten in ``lines``."""
    holes, width = [], 0
    for i, s in enumerate(lines):
        if "inf" in s:
            tokens = s.split()
            holes += [(i, j) for j, t in enumerate(tokens) if t == "inf"]
            lines[i] = " ".join("0" if t == "inf" else t for t in tokens)
            width = len(tokens)
    values = _int_rows(lines, bound)
    if values is None or holes and values.size != len(lines) * width:
        return None
    finite = np.ones(values.shape, dtype=bool)
    if holes:
        finite.reshape(len(lines), width)[tuple(zip(*holes))] = False
    return values, finite


def _section_values(sections, name: str, expect: int, bound: int):
    """Section ``name`` as ``expect`` int64 values and their finite mask, by
    :func:`_masked_rows`, or by :func:`_token_values` if that refuses the
    section or the count is off.  Only a result's ``values`` section may
    hold ``inf``.  Faults are reported in reading order: a bad integer or a
    value past ``bound`` at its line, then a wrong count at the begin line,
    then an ``inf``."""
    lineno, body = _require_section(sections, name)
    fast = _masked_rows([s for _, s in body], bound)
    if fast is not None and fast[0].size == expect:
        values, finite = fast
    else:
        values, finite = _token_values(body, lineno, expect, bound)
    if name != "values" and not finite.all():
        bad = next(ln for ln, s in body if "inf" in s.split())
        raise ParseError(f"section {name!r} does not allow 'inf'", bad)
    return values, finite


def _token_values(body, lineno: int, expect: int, bound: int):
    """The values and finite mask of section lines ``body``, walked one
    token at a time: raises at the first bad integer or value past
    ``bound``, else at the begin line ``lineno`` if there are not
    ``expect`` tokens.  Ragged sections, which numpy's reader refuses, are
    read here; ``serialize`` writes none."""
    tokens = [(ln, t) for ln, s in body for t in s.split()]
    values = [0 if t == "inf" else _parse_int(t, ln, bound) for ln, t in tokens]
    if len(values) != expect:
        raise ParseError(f"expected {expect} values, found {len(values)}", lineno)
    finite = np.array([t != "inf" for _, t in tokens], dtype=bool)
    return np.array(values, dtype=np.int64), finite


def _require_section(sections, name: str):
    if name not in sections:
        raise ParseError(f"missing required section {name!r}")
    return sections[name]


_TAGS = {tag.value: tag for tag in MonotoneTag}


def _read_decompositions(lines, base: int, n: int) -> list[Decomposition]:
    """One decomposition per (line number, parts text) pair.  The index text
    is read by :func:`_int_rows` and checked in one pass; else each part's
    tokens are converted and the part checked as it is built, so faults
    raise in line order.  Read in one pass, the decompositions' indices are
    views of one read-only int32 array."""
    shapes, index_lines, lengths = [], [], []
    for ln, text in lines:
        line, idx = [], []
        for chunk in text.split("|"):
            tag, *toks = chunk.split() or [None]
            line.append((tag, len(toks)))
            lengths.append(len(toks))
            idx += toks
        shapes.append((ln, line))
        index_lines.append(" ".join(idx))
    flat = _int_rows(index_lines, MAX_DIMENSION) if all(index_lines) else None
    if flat is not None:
        flat = (flat - base).astype(np.int32)  # MAX_DIMENSION fits int32
        cut = np.zeros(flat.size + 1, dtype=bool)
        cut[np.cumsum(lengths)] = True  # where one part ends, the next starts
        if flat.min() < 0 or not ((flat[1:] > flat[:-1]) | cut[1:-1]).all():
            flat = None
    if flat is not None:
        flat.setflags(write=False)  # so no part's positions can be written
    else:
        tokens = " ".join(index_lines).split()
    decs, at = [], 0
    for ln, line in shapes:
        start, tags, subs = at, [], []
        for tag, k in line:
            if tag is None:
                raise ParseError("empty part needs its tag", ln)
            if tag not in _TAGS:
                raise ParseError(f"unknown part tag {tag!r}", ln)
            tags.append(_TAGS[tag])
            at += k
            if flat is not None:
                continue
            idx = [_parse_int(t, ln, MAX_DIMENSION) - base for t in tokens[at - k : at]]
            try:
                subs.append(Subsequence(idx, tags[-1]))
            except ValueError as exc:
                raise ParseError(str(exc), ln) from None
        if flat is None:
            decs.append(Decomposition(n, subs))
        else:
            indptr = np.cumsum([0, *(k for _, k in line)], dtype=np.int32)
            decs.append(Decomposition._adopt(n, indptr, flat[start:at], tags))
    return decs


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
    decs = {}
    for name, host in (("decomposition a", a), ("decomposition b", b)):
        if name in sections:
            lineno, body = sections[name]
            if len(body) != 1:
                raise ParseError(f"section {name!r} must be a single line", lineno)
            (decs[name],) = _read_decompositions(body, base=0, n=n)
            validate_decomposition(decs[name], host.coords)
    return VectorInstance(a, b, decs.get("decomposition a"), decs.get("decomposition b"), meta)


def parse_path(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_document(f.read())


def _fmt_parts(dec: Decomposition, names: list[str]) -> str:
    """A part line; ``names[i]`` is the text of index ``i < len(names)``."""
    try:
        index = list(map(names.__getitem__, dec.indices.tolist()))
        bounds = dec.indptr.tolist()
        return " | ".join(
            " ".join([tag.value, *index[a:b]])
            for a, b, tag in zip(bounds, bounds[1:], dec.tags)
        )
    except IndexError:
        raise IndexOutOfRange(f"a part index lies outside [0, {len(names)})") from None


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


def _section(out: list[str], name: str, lines: list[str]) -> None:
    out.extend([f"begin {name}", *lines, f"end {name}", ""])


def serialize(doc) -> str:
    """Serialize a MatrixInstance, VectorInstance, or ResultDocument."""
    out: list[str] = []
    if isinstance(doc, MatrixInstance):
        n = doc.A.n
        names = list(map(str, range(1, n + 1)))
        _emit_headers(out, "matrix", n, doc.meta)
        _section(out, "matrix A", _fmt_rows(doc.A.entries))
        _section(out, "matrix B", _fmt_rows(doc.B.entries))
        for decs, name, word in (
            (doc.dec_rows, "decompositions A rows", "row"),
            (doc.dec_cols, "decompositions B cols", "col"),
        ):
            if decs is not None:
                _section(out, name, [
                    f"{word} {i}: {_fmt_parts(d, names)}"
                    for i, d in enumerate(decs, start=1)
                ])
    elif isinstance(doc, VectorInstance):
        n = doc.a.n
        names = list(map(str, range(n)))
        _emit_headers(out, "vector", n, doc.meta)
        _section(out, "vector a", _fmt_rows(doc.a.coords[None]))
        _section(out, "vector b", _fmt_rows(doc.b.coords[None]))
        for name, dec in (("decomposition a", doc.dec_a), ("decomposition b", doc.dec_b)):
            if dec is not None:
                _section(out, name, [_fmt_parts(dec, names)])
    elif isinstance(doc, ResultDocument):
        _emit_headers(out, doc.kind, doc.n, doc.meta)
        output = doc.output
        _section(out, "values", _fmt_rows(
            np.atleast_2d(output.values), np.atleast_2d(output.finite)
        ))
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
