"""Per-layer spans recorded from outside the library.

The traced run swaps timing wrappers in for the cross-module names that
the algorithms and the CLI look up at call time, runs one solve, and puts
the originals back.  Each wrapped call becomes a span (name, start, end,
parent, solve, instance, note); the note is computed from the result after
the span has closed, so it costs the span nothing.  A layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, NamedTuple

from minplus import cli, convolution, fileio, generators, product
from minplus.core import NO_WITNESS


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's list; -1 for a root
    solve: Any  # solve number, or ("setup", rep)
    instance: int
    note: Any


def _witness_note(args, w):
    return int((w.values != NO_WITNESS).sum()), int(w.values.size)


def _bits_note(args, v):
    return int(v.bits.sum()), int(v.bits.size)


def _parts_note(args, d):
    return d.part_count


def _file_bytes_note(args, doc):
    return os.path.getsize(args[0])


def _text_bytes_note(args, text):
    return len(text.encode())


#: (owner, attribute or key, span name, note) for every name a solve looks
#: up across a module boundary.  The decompose entries live in the CLI's
#: mode table, which holds the functions themselves.
SOLVE_PATCHES = [
    (product, "minplus_decomposed", "product.solve", None),
    (cli, "minplus_decomposed", "product.solve", None),
    (convolution, "conv_decomposed", "convolution.solve", None),
    (convolution, "conv_few_values", "convolution.solve", None),
    (product, "validate_decomposition", "core.validate", None),
    (convolution, "validate_decomposition", "core.validate", None),
    (fileio, "validate_decomposition", "core.validate", None),
    (product, "mat_extreme_witness", "boolmat.witness", _witness_note),
    (convolution, "conv_extreme_witness", "fastconv.witness", _witness_note),
    (convolution, "bool_convolution", "fastconv.boolconv", _bits_note),
    (cli, "main", "cli.main", None),
    (fileio, "parse_path", "fileio.parse", _file_bytes_note),
    (fileio, "serialize", "fileio.serialize", _text_bytes_note),
    (fileio, "write_atomic", "fileio.write", None),
] + [(cli._MODE_FNS, mode, "decompose", _parts_note) for mode in cli._MODE_FNS]

SETUP_PATCHES = [
    (generators, name, "generators", None)
    for name in (
        "planted_matrix_rows",
        "planted_matrix_cols",
        "planted_monotone_vector",
        "planted_uniform_vector",
        "random_vector",
    )
]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Recorder:
    """Spans kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve: Any = None
        self.instance = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        def timed(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(
                    name, start, end, parent, self.solve, self.instance, None
                )
            if note is not None:
                self.spans[idx] = self.spans[idx]._replace(note=note(args, result))
            return result

        return timed

    @contextlib.contextmanager
    def patched(self, table):
        """Install wrappers for ``table`` and restore the originals on exit."""
        originals = []
        try:
            for owner, key, name, note in table:
                fn = _get(owner, key)
                originals.append((owner, key, fn))
                _set(owner, key, self.wrap(name, fn, note))
            yield
        finally:
            for owner, key, fn in reversed(originals):
                _set(owner, key, fn)

    def by_solve(self) -> dict[Any, list[tuple[Span, float]]]:
        """Spans grouped by solve, each paired with its self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        groups = defaultdict(list)
        for s, c in zip(self.spans, child):
            groups[s.solve].append((s, s.end - s.start - c))
        return groups


#: Per-layer time metric -> the span names whose self times it sums.
LAYER_TIMES = {
    "core.validate_s": ("core.validate",),
    "decompose.s": ("decompose",),
    "boolmat.witness_s": ("boolmat.witness",),
    "fastconv.witness_s": ("fastconv.witness",),
    "fastconv.boolconv_s": ("fastconv.boolconv",),
    "product.self_s": ("product.solve",),
    "convolution.self_s": ("convolution.solve",),
    "cli.self_s": ("cli.main",),
    "fileio.parse_s": ("fileio.parse",),
    "fileio.serialize_s": ("fileio.serialize", "fileio.write"),
}

#: Per-layer call-count metric -> span name.
LAYER_CALLS = {
    "core.validate_calls": "core.validate",
    "boolmat.witness_calls": "boolmat.witness",
    "fastconv.witness_calls": "fastconv.witness",
    "fastconv.boolconv_calls": "fastconv.boolconv",
}

#: Useful-outcome ratio metric -> span name whose (hits, total) notes it pools.
LAYER_FRACS = {
    "boolmat.witness_defined_frac": "boolmat.witness",
    "fastconv.witness_defined_frac": "fastconv.witness",
    "fastconv.boolconv_hit_frac": "fastconv.boolconv",
}


def layer_metrics(groups, solves: list) -> dict[str, float]:
    """Per-layer metrics over the traced ``solves``: times and counts are
    medians of per-solve values, ratios are pooled over all solves.  A
    layer the workload never calls reads 0."""
    per_solve = []
    for solve in solves:
        spans = groups[solve]
        row = {
            m: sum(t for s, t in spans if s.name in names)
            for m, names in LAYER_TIMES.items()
        }
        for m, name in LAYER_CALLS.items():
            row[m] = sum(1 for s, _ in spans if s.name == name)
        row["decompose.parts_max"] = max(
            (s.note for s, _ in spans if s.name == "decompose"), default=0
        )
        row["fileio.bytes"] = sum(
            s.note for s, _ in spans if s.name in ("fileio.parse", "fileio.serialize")
        )
        per_solve.append(row)
    out = {
        m: (statistics.median if m in LAYER_TIMES else statistics.median_low)(
            [r[m] for r in per_solve]
        )
        for m in per_solve[0]
    }
    for m, name in LAYER_FRACS.items():
        notes = [s.note for solve in solves for s, _ in groups[solve] if s.name == name]
        total = sum(t for _, t in notes)
        out[m] = sum(h for h, _ in notes) / total if total else 0.0
    return out


def shares(groups, solves: list) -> dict[str, float]:
    """Share of traced solve time spent in each span name's self time;
    ``solve`` is the benchmark's own glue around the library call."""
    selfs = defaultdict(float)
    total = 0.0
    for solve in solves:
        for s, t in groups[solve]:
            selfs[s.name] += t
            if s.parent < 0:
                total += s.end - s.start
    return {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
