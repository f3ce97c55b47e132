"""The public names of the package and the options of its solvers and
engines, pinned so that additions and removals are deliberate."""

import inspect
import re
from pathlib import Path

import pytest

import minplus
from minplus import cli, generators

PUBLIC = {
    # constants
    "ENTRY_BOUND",
    "MAX_DIMENSION",
    "NO_WITNESS",
    "SHIFTED_ENTRY_BOUND",
    "__version__",
    # domain types
    "BoolMatrix",
    "BoolVector",
    "Decomposition",
    "IntMatrix",
    "IntVector",
    "MinPlusOutput",
    "MonotoneTag",
    "OpCounters",
    "Subsequence",
    "WitnessArray",
    # errors
    "CoverageGapError",
    "DimensionMismatch",
    "DirectionViolation",
    "IndexOutOfRange",
    "LengthMismatch",
    "MinPlusError",
    "OrderViolation",
    "OverlapError",
    "UniformViolation",
    # validation and decomposition
    "validate_decomposition",
    "decompose_cols",
    "decompose_nondecreasing",
    "decompose_nonincreasing",
    "decompose_rows",
    "decompose_uniform",
    # Boolean engines
    "bool_convolution",
    "bool_matmul",
    "conv_extreme_witness",
    "mat_extreme_witness",
    # (min,+) products and convolutions
    "minplus_decomposed",
    "minplus_few_values_product",
    "minplus_mixed_uniform",
    "minplus_naive",
    "minplus_uniform_mixed",
    "shift_transform_matrices",
    "conv_decomposed",
    "conv_few_values",
    "conv_naive",
    "conv_shift_offsets",
    "shift_transform_vectors",
}


def test_all_is_pinned():
    assert len(minplus.__all__) == len(set(minplus.__all__))
    assert set(minplus.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in minplus.__all__:
        assert hasattr(minplus, name), name


def test_readme_api_table_names_all():
    # One row per public name, each with its paper role or CLI use.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert len(names) == len(set(names))
    assert set(names) == set(minplus.__all__)


#: The parameters of each solver and engine that take a default or are
#: keyword-only.  None of them changes an output.
OPTIONS = {
    "minplus_naive": (),
    "minplus_decomposed": ("counters",),
    "minplus_mixed_uniform": ("counters",),
    "minplus_uniform_mixed": ("counters",),
    "minplus_few_values_product": ("counters",),
    "conv_naive": (),
    "conv_decomposed": ("counters",),
    "conv_few_values": ("ell", "counters"),
    "bool_matmul": ("counters",),
    "mat_extreme_witness": ("block_size", "counters"),
    "bool_convolution": ("counters",),
    "conv_extreme_witness": ("block_size", "counters"),
}


#: The same for the seeded instance generators; the value range is the
#: constant ``generators.DEFAULT_VALUE_BOUND``, not an option.
GENERATOR_OPTIONS = {
    "random_vector": (),
    "random_matrix": (),
    "planted_monotone_vector": ("direction",),
    "planted_uniform_vector": (),
    "planted_matrix_rows": ("direction",),
    "planted_matrix_cols": ("direction",),
    "planted_mixed_matrix_rows": (),
    "planted_uniform_matrix_rows": (),
    "planted_uniform_matrix_cols": (),
}


def _options(fn) -> tuple[str, ...]:
    params = inspect.signature(fn).parameters.values()
    return tuple(
        p.name for p in params if p.default is not p.empty or p.kind is p.KEYWORD_ONLY
    )


def test_solver_and_engine_options_are_pinned():
    for name, options in OPTIONS.items():
        assert _options(getattr(minplus, name)) == options, name


def test_generator_options_are_pinned():
    for name, options in GENERATOR_OPTIONS.items():
        assert _options(getattr(generators, name)) == options, name


def test_cli_rejects_block_size(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "x.txt", "--algo", "fig1", "--block-size", "3"])
    assert exc.value.code == 2


def test_cli_compute_rejects_direction(capsys):
    # fig1 infers its direction from the attached parts; only the
    # generators take --direction.
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "x.txt", "--algo", "fig1", "--direction", "nondec"])
    assert exc.value.code == 2
