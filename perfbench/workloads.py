"""The benchmark's workloads: a seeded instance set each, the structured
solve it times, and the naive oracle that judges every solve.

All four are closed loops with one client: the next solve starts when the
previous one and its oracle check have finished.  Sizes were picked so one
structured solve takes 0.2 to 2 s on a 2-core x86-64 box, large enough for
the layer a workload targets to dominate and small enough for a run to
hold ten or more solves.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from minplus import cli, convolution, fileio, generators, product
from minplus.core import MinPlusOutput


class SelfCheckError(RuntimeError):
    """The wrappers' call counts disagree with the library's OpCounters."""


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    n: int
    m_a: int | None
    m_b: int | None
    h: int | None
    ell: int | None
    direction: str | None
    instances: int
    #: (workload, rng, workdir, index) -> instance; all randomness from rng.
    make: Callable[..., Any]
    #: (workload, instance, counters or None) -> raw result; the timed call.
    solve: Callable[..., Any]
    #: (workload, instance, raw, counters or None) -> MinPlusOutput; untimed.
    finish: Callable[..., MinPlusOutput]
    #: (instance) -> MinPlusOutput from minplus_naive or conv_naive.
    oracle: Callable[[Any], MinPlusOutput]
    #: OpCounters field holding the workload's dominant call count.
    counter: str
    #: (workload, spans of one solve) -> the count that field must reach.
    expected_calls: Callable[..., int]

    def params(self) -> dict:
        keys = ("algo", "n", "m_a", "m_b", "h", "ell", "direction", "instances")
        return {k: getattr(self, k) for k in keys}


def mismatch(got, want: MinPlusOutput) -> str | None:
    """None when ``got`` equals the oracle output entry for entry (finite
    masks and the values under them); else what differs."""
    if not isinstance(got, MinPlusOutput):
        return f"result is a {type(got).__name__}, not a MinPlusOutput"
    if got.values.shape != want.values.shape:
        return f"shape {got.values.shape}, oracle {want.values.shape}"
    bad = (got.finite != want.finite) | (
        want.finite & (got.values != want.values)
    )
    if bad.any():
        pos = tuple(int(x) for x in np.argwhere(bad)[0])
        return f"{int(bad.sum())} entries differ from the oracle, first at {pos}"
    return None


def _in_memory(wl, inst, raw, counters):
    return raw


def _pair_count(wl, spans) -> int:
    return wl.m_a * wl.m_b


# product_monotone: fig1 on planted globally non-decreasing parts.


def _make_product(wl, rng, workdir, k):
    A, dec_rows = generators.planted_matrix_rows(rng, wl.n, wl.m_a, wl.direction)
    B, dec_cols = generators.planted_matrix_cols(rng, wl.n, wl.m_b, wl.direction)
    return A, dec_rows, B, dec_cols


def _solve_product(wl, inst, counters):
    A, dec_rows, B, dec_cols = inst
    return product.minplus_decomposed(
        A, dec_rows, B, dec_cols, wl.direction, counters=counters
    )


def _naive_product(inst):
    return product.minplus_naive(inst[0], inst[2])


# conv_monotone: fig3, a non-decreasing parts against b non-increasing.


def _make_conv(wl, rng, workdir, k):
    a, dec_a = generators.planted_monotone_vector(rng, wl.n, wl.m_a, "nondec")
    b, dec_b = generators.planted_monotone_vector(rng, wl.n, wl.m_b, "noninc")
    return a, dec_a, b, dec_b


def _solve_conv(wl, inst, counters):
    a, dec_a, b, dec_b = inst
    return convolution.conv_decomposed(a, dec_a, b, dec_b, counters=counters)


def _naive_conv(inst):
    return convolution.conv_naive(inst[0], inst[2])


# conv_fewvalues: fig4, arbitrary a against b with h distinct values.


def _make_fewvalues(wl, rng, workdir, k):
    a = generators.random_vector(rng, wl.n)
    b, dec_b = generators.planted_uniform_vector(rng, wl.n, wl.h)
    return a, None, b, dec_b


def _solve_fewvalues(wl, inst, counters):
    a, _, b, dec_b = inst
    return convolution.conv_few_values(a, b, dec_b, ell=wl.ell, counters=counters)


def _group_count(wl, spans) -> int:
    return wl.h * math.ceil(wl.n / wl.ell)


# file_pipeline: the CLI path, text in to text out, decompositions not given.


def _make_file(wl, rng, workdir, k):
    A, _ = generators.planted_matrix_rows(rng, wl.n, wl.m_a, wl.direction)
    B, _ = generators.planted_matrix_cols(rng, wl.n, wl.m_b, wl.direction)
    paths = [os.path.join(workdir, f"{stem}-{k}.txt") for stem in ("in", "dec", "out")]
    fileio.write_atomic(paths[0], fileio.serialize(fileio.MatrixInstance(A, B)))
    return A, B, *paths


def _solve_file(wl, inst, counters):
    _, _, in_path, dec_path, out_path = inst
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (
            cli.main(
                ["decompose", in_path, "--mode", wl.direction, "--target", "both",
                 "--out", dec_path]
            ),
            cli.main(["compute", dec_path, "--algo", wl.algo, "--out", out_path]),
        )
    if codes != (0, 0):
        raise RuntimeError(f"minplus exit codes {codes} for decompose, compute")
    return out_path


def _finish_file(wl, inst, raw, counters):
    doc = fileio.parse_path(raw)
    if counters is not None:
        for key in counters.as_dict():
            setattr(counters, key, int(doc.meta[key.replace("_", "-")]))
    return doc.output


def _decomposed_pair_count(wl, spans) -> int:
    # The CLI decomposes the n rows of A, then the n columns of B, and pads
    # each side to its largest part count.
    parts = [s.note for s in spans if s.name == "decompose"]
    if len(parts) != 2 * wl.n:
        raise SelfCheckError(f"saw {len(parts)} decompositions, expected {2 * wl.n}")
    return max(parts[: wl.n]) * max(parts[wl.n :])


def _naive_file(inst):
    return product.minplus_naive(inst[0], inst[1])


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "product_monotone", "fig1", 512, 3, 3, None, None, "nondec", 2,
            _make_product, _solve_product, _in_memory, _naive_product,
            "witness_matrix_calls", _pair_count,
        ),
        Workload(
            "conv_monotone", "fig3", 2048, 3, 3, None, None, "nondec", 3,
            _make_conv, _solve_conv, _in_memory, _naive_conv,
            "witness_conv_calls", _pair_count,
        ),
        Workload(
            "conv_fewvalues", "fig4", 4096, None, None, 3, 64, None, 3,
            _make_fewvalues, _solve_fewvalues, _in_memory, _naive_conv,
            "bool_convolutions", _group_count,
        ),
        Workload(
            "file_pipeline", "fig1", 128, 3, 3, None, None, "nondec", 4,
            _make_file, _solve_file, _finish_file, _naive_file,
            "witness_matrix_calls", _decomposed_pair_count,
        ),
    )
}

#: OpCounters field -> the span that wraps the call it counts.
COUNTER_SPANS = {
    "witness_matrix_calls": "boolmat.witness",
    "witness_conv_calls": "fastconv.witness",
    "bool_convolutions": "fastconv.boolconv",
}
