"""The public names of the package, pinned so that additions and removals
are deliberate."""

import minplus

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
    "DecompositionStats",
    "GroupPartition",
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
    "PrecisionWindowExceeded",
    "UniformViolation",
    # validation and decomposition
    "validate_decomposition",
    "values_satisfy",
    "char_vector",
    "decompose_cols",
    "decompose_monotone_greedy",
    "decompose_nondecreasing",
    "decompose_nonincreasing",
    "decompose_rows",
    "decompose_uniform",
    "decomposition_stats",
    "longest_strictly_decreasing_length",
    "longest_strictly_increasing_length",
    "pad_decompositions",
    # Boolean engines
    "bool_convolution",
    "bool_matmul",
    "conv_extreme_witness",
    "int_convolution",
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
