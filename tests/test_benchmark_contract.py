"""The benchmark's tracing wrappers against the names the library exposes.

``perfbench/spans.py`` swaps timing wrappers in for the cross-module names
that the algorithms and the CLI look up at call time.  A refactor that
renames such a name, or binds it once instead of looking it up, would
leave a layer unmeasured; these checks catch that in the plain suite.
"""

import importlib.util
from pathlib import Path

from minplus import cli, convolution, fileio, generators, product
from minplus.generators import random_matrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def test_every_patched_name_resolves():
    for owner, key, _, _ in spans.SOLVE_PATCHES + spans.SETUP_PATCHES:
        assert callable(spans._get(owner, key)), key


def test_mode_wrapper_sees_every_cli_decomposition(tmp_path, capsys):
    n = 6
    src, dst = tmp_path / "in.txt", tmp_path / "dec.txt"
    inst = fileio.MatrixInstance(random_matrix(0, n), random_matrix(1, n))
    fileio.write_atomic(src, fileio.serialize(inst))
    recorder = spans.Recorder()
    table = [(cli._MODE_FNS, "nondec", "decompose", spans._parts_note)]
    with recorder.patched(table):
        argv = ["decompose", str(src), "--mode", "nondec", "--out", str(dst)]
        assert cli.main(argv) == 0
    assert [s.name for s in recorder.spans] == ["decompose"] * (2 * n)


def test_a_product_solve_validates_each_axis_in_one_call():
    A, rows = generators.planted_matrix_rows(0, 8, 3, "nondec")
    B, cols = generators.planted_matrix_cols(1, 8, 3, "nondec")
    recorder = spans.Recorder()
    table = [(product, "validate_decomposition", "core.validate", None)]
    with recorder.patched(table):
        product.minplus_decomposed(A, rows, B, cols, "nondec")
    assert [s.name for s in recorder.spans] == ["core.validate"] * 2


def test_a_convolution_solve_makes_one_witness_call_per_part_pair():
    a, dec_a = generators.planted_monotone_vector(0, 64, 3, "nondec")
    b, dec_b = generators.planted_monotone_vector(1, 64, 2, "noninc")
    recorder = spans.Recorder()
    table = [
        (convolution, "conv_extreme_witness", "fastconv.witness", spans._witness_note)
    ]
    with recorder.patched(table):
        out = convolution.conv_decomposed(a, dec_a, b, dec_b)
    assert [s.name for s in recorder.spans] == ["fastconv.witness"] * 6
    assert out == convolution.conv_naive(a, b)
