"""(min,+) matrix products and convolutions that exploit inputs
decomposable into few monotone or constant-valued subsequences.

The heavy lifting reduces to Boolean matrix products and Boolean
convolutions with extreme (first/last) witnesses; patience-style greedy
decompositions supply the monotone parts, and index-scaled shifts
monotonize arbitrary inputs at a known offset.
"""

from .boolmat import bool_matmul, mat_extreme_witness
from .convolution import (
    conv_decomposed,
    conv_few_values,
    conv_naive,
    conv_shift_offsets,
    shift_transform_vectors,
)
from .core import (
    ENTRY_BOUND,
    MAX_DIMENSION,
    NO_WITNESS,
    SHIFTED_ENTRY_BOUND,
    BoolMatrix,
    BoolVector,
    CoverageGapError,
    Decomposition,
    DimensionMismatch,
    DirectionViolation,
    IndexOutOfRange,
    IntMatrix,
    IntVector,
    LengthMismatch,
    MinPlusError,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    OrderViolation,
    OverlapError,
    Subsequence,
    UniformViolation,
    WitnessArray,
    validate_decomposition,
)
from .decompose import (
    decompose_cols,
    decompose_nondecreasing,
    decompose_nonincreasing,
    decompose_rows,
    decompose_uniform,
)
from .fastconv import bool_convolution, conv_extreme_witness
from .product import (
    minplus_decomposed,
    minplus_few_values_product,
    minplus_mixed_uniform,
    minplus_naive,
    minplus_uniform_mixed,
    shift_transform_matrices,
)

__version__ = "0.1.0"

__all__ = [
    "ENTRY_BOUND",
    "MAX_DIMENSION",
    "NO_WITNESS",
    "SHIFTED_ENTRY_BOUND",
    "BoolMatrix",
    "BoolVector",
    "CoverageGapError",
    "Decomposition",
    "DimensionMismatch",
    "DirectionViolation",
    "IndexOutOfRange",
    "IntMatrix",
    "IntVector",
    "LengthMismatch",
    "MinPlusError",
    "MinPlusOutput",
    "MonotoneTag",
    "OpCounters",
    "OrderViolation",
    "OverlapError",
    "Subsequence",
    "UniformViolation",
    "WitnessArray",
    "bool_convolution",
    "bool_matmul",
    "conv_decomposed",
    "conv_extreme_witness",
    "conv_few_values",
    "conv_naive",
    "conv_shift_offsets",
    "decompose_cols",
    "decompose_nondecreasing",
    "decompose_nonincreasing",
    "decompose_rows",
    "decompose_uniform",
    "mat_extreme_witness",
    "minplus_decomposed",
    "minplus_few_values_product",
    "minplus_mixed_uniform",
    "minplus_naive",
    "minplus_uniform_mixed",
    "shift_transform_matrices",
    "shift_transform_vectors",
    "validate_decomposition",
    "__version__",
]
