"""What every checked kernel entry point raises on bad input: the type and the exact message.

Each public `tensor`, `norms` and `fusion` function or class that checks
its input is called with one argument taken from a grid of bad inputs:
the wrong rank, an empty dimension, NaN or infinity at each rank, and a
width or an epsilon that does not fit, alone and beside a NaN. The other
arguments fit width-4 rows. `EXPECTED` pins the outcome of every call, so
a change to the validators that reorders their checks or rewords a
message fails here. `MATMUL_PAIRS` does the same for misshapen and
mismatched `matmul` operands, on both kernels.
"""

import numpy as np
import pytest

from normfusion.fusion import (
    FoldedLinear,
    LlamaMlpWeights,
    fold_layernorm_linear,
    fold_rmsnorm_linear,
    fused_layernorm_matmul,
    fused_rmsnorm_llama_mlp,
    fused_rmsnorm_matmul,
    fused_softmax_matmul,
    swiglu,
)
from normfusion.norms import (
    LayerNormParams,
    RmsNormParams,
    layernorm,
    moments,
    rmsnorm,
    root_mean_square,
    softmax_numerators,
    softmax_stable,
)
from normfusion.tensor import as_matrix, as_row_vector, as_rows, matmul

EPSILON = 1e-5


def _with(shape, index, value) -> np.ndarray:
    x = np.ones(shape)
    x[index] = value
    return x


# name -> (the argument under test, the epsilon passed where the entry point takes one: a norm's
# parameters, a fold built from plain arrays, or `root_mean_square`; a fused evaluator reads its fold's)
INPUTS = {
    "0-D": (np.float64(1.0), EPSILON),
    "4-D": (np.ones((1, 2, 2, 4)), EPSILON),
    "empty row": (np.ones(0), EPSILON),
    "empty stack": (np.ones((0, 4)), EPSILON),
    "NaN row": (_with(4, 1, np.nan), EPSILON),
    "inf row": (_with(4, 2, np.inf), EPSILON),
    "NaN stack": (_with((4, 4), (2, 1), np.nan), EPSILON),
    "-inf stack": (_with((4, 4), (3, 0), -np.inf), EPSILON),
    "NaN per head": (_with((2, 4, 4), (1, 2, 3), np.nan), EPSILON),
    "inf per head": (_with((2, 4, 4), (0, 1, 1), np.inf), EPSILON),
    "width": (np.ones((2, 5)), EPSILON),
    "width beside NaN": (_with((2, 5), (1, 1), np.nan), EPSILON),
    "epsilon": (np.ones((4, 4)), -1.0),
    "epsilon beside NaN": (_with((4, 4), (0, 0), np.nan), -1.0),
    "finite stack": (np.ones((4, 4)), EPSILON),
}

_LN = LayerNormParams(gamma=np.ones(4), beta=np.zeros(4), epsilon=EPSILON)
_RMS = RmsNormParams(gamma=np.ones(4), epsilon=EPSILON)
_LN_FOLD = fold_layernorm_linear(_LN, np.ones((4, 2)))
_RMS_FOLD = fold_rmsnorm_linear(_RMS, np.ones((4, 2)))

# name -> call(x, epsilon), x in one argument's place
ENTRY_POINTS = {
    "as_row_vector": lambda x, eps: as_row_vector(x),
    "as_matrix": lambda x, eps: as_matrix(x),
    "as_rows": lambda x, eps: as_rows(x),
    "matmul a": lambda x, eps: matmul(x, np.ones((4, 2))),
    "matmul b": lambda x, eps: matmul(np.ones((2, 4)), x),
    "LayerNormParams": lambda x, eps: LayerNormParams(gamma=x, beta=np.zeros(4), epsilon=eps),
    "RmsNormParams": lambda x, eps: RmsNormParams(gamma=x, epsilon=eps),
    "moments": lambda x, eps: moments(x),
    "layernorm": lambda x, eps: layernorm(x, _LN),
    "rmsnorm": lambda x, eps: rmsnorm(x, _RMS),
    "root_mean_square": lambda x, eps: root_mean_square(x, eps),
    "softmax_numerators": lambda x, eps: softmax_numerators(x),
    "softmax_stable": lambda x, eps: softmax_stable(x),
    "FoldedLinear weight": lambda x, eps: FoldedLinear(folded_weight=x, epsilon=eps),
    "FoldedLinear bias": lambda x, eps: FoldedLinear(folded_weight=np.ones((4, 4)), folded_bias=x, epsilon=eps),
    "LlamaMlpWeights": lambda x, eps: LlamaMlpWeights(w_gate=x, w_up=np.ones((4, 2)), w_down=np.ones((2, 4))),
    "fold_layernorm_linear": lambda x, eps: fold_layernorm_linear(_LN, x),
    "fold_rmsnorm_linear": lambda x, eps: fold_rmsnorm_linear(_RMS, x),
    "fused_layernorm_matmul": lambda x, eps: fused_layernorm_matmul(x, _LN_FOLD),
    "fused_rmsnorm_matmul": lambda x, eps: fused_rmsnorm_matmul(x, _RMS_FOLD),
    "fused_softmax_matmul x": lambda x, eps: fused_softmax_matmul(x, np.ones((4, 2))),
    "fused_softmax_matmul v": lambda x, eps: fused_softmax_matmul(np.ones((2, 4)), x),
    "fused_rmsnorm_llama_mlp": lambda x, eps: fused_rmsnorm_llama_mlp(x, _RMS_FOLD, _RMS_FOLD, np.ones((2, 4))),
    "swiglu": lambda x, eps: swiglu(x, np.ones((2, 3))),
}

RANKS = "expected one row (1-D), a stack of rows (2-D) or a stack per head (3-D), got shape {shape}"
ROW_SHAPE = "expected a 1-D row vector, got shape {shape}"
MATRIX_SHAPE = "expected a 2-D matrix, got shape {shape}"
EMPTY_ROW = "row vector must have length >= 1"
EMPTY = "matrix dimensions must be >= 1"
ROW = "row vector contains non-finite elements"
MATRIX = "matrix contains non-finite elements"
PARAMS_WIDTH = "input length 5 does not match params length 4"
FOLD_WIDTH = "input length 5 does not match folded weight rows 4"
RMS_EPSILON = "rmsnorm: epsilon must be a non-negative finite scalar, got -1.0"


def _rows_entry(width=None, epsilon=None) -> tuple:
    """An entry point taking rows: its shape checks, then one scan that names a NaN before a width or epsilon."""
    return (RANKS, RANKS, EMPTY_ROW, EMPTY, ROW, ROW, MATRIX, MATRIX, MATRIX, MATRIX, width, MATRIX, epsilon, MATRIX, None)


def _matrix_entry(width=None, finite=None, epsilon=None) -> tuple:
    """An entry point taking a matrix: 2-D only, then a scan that names a NaN before a width or epsilon."""
    shape = MATRIX_SHAPE
    return (shape, shape, shape, EMPTY, shape, shape, MATRIX, MATRIX, shape, shape, width, MATRIX, epsilon or finite,
            MATRIX, finite)


# An entry point taking a row vector: 1-D only, then a scan.
ROW_ENTRY = (ROW_SHAPE, ROW_SHAPE, EMPTY_ROW, ROW_SHAPE, ROW, ROW) + (ROW_SHAPE,) * 9

# entry point -> per input, in `INPUTS` order: None where the call returns,
# else the `ValueError` message ({shape} is the input's), or (type, message)
EXPECTED = {
    "as_row_vector": ROW_ENTRY,
    "as_matrix": _matrix_entry(),
    "as_rows": _rows_entry(),
    "matmul a": _rows_entry(width="matmul dimension mismatch: (2, 5) times (4, 2)"),
    "matmul b": _matrix_entry(width="matmul dimension mismatch: (2, 4) times (2, 5)"),
    "LayerNormParams": ROW_ENTRY,
    "RmsNormParams": ROW_ENTRY,
    "moments": _rows_entry(),
    "layernorm": _rows_entry(width=PARAMS_WIDTH),
    "rmsnorm": _rows_entry(width=PARAMS_WIDTH),
    "root_mean_square": _rows_entry(epsilon=RMS_EPSILON),
    "softmax_numerators": _rows_entry(),
    "softmax_stable": _rows_entry(),
    "FoldedLinear weight": _matrix_entry(epsilon="epsilon must be a non-negative finite scalar, got -1.0"),
    "FoldedLinear bias": ROW_ENTRY,
    "LlamaMlpWeights": _matrix_entry(width="w_up shape (4, 2) != w_gate shape (2, 5)",
                                     finite="w_up shape (4, 2) != w_gate shape (4, 4)"),
    "fold_layernorm_linear": _matrix_entry(width="weight rows 2 do not match normalized dimension 4"),
    "fold_rmsnorm_linear": _matrix_entry(width="weight rows 2 do not match normalized dimension 4"),
    "fused_layernorm_matmul": _rows_entry(width=FOLD_WIDTH),
    "fused_rmsnorm_matmul": _rows_entry(width=FOLD_WIDTH),
    "fused_softmax_matmul x": _rows_entry(width="input length 5 does not match matrix shape (4, 2)"),
    # v is checked as `matmul` checks its b: its rank, then its values, before the mismatch
    "fused_softmax_matmul v": _matrix_entry(width="input length 4 does not match matrix shape (2, 5)"),
    "fused_rmsnorm_llama_mlp": _rows_entry(width=FOLD_WIDTH),
    # the width check runs first and `matmul` scans the product
    "swiglu": (
        "gate|up shape () does not match down projection rows 2",
        RANKS.format(shape=(1, 2, 2, 2)),
        "gate|up shape (0,) does not match down projection rows 2",
        EMPTY, ROW, ROW, MATRIX, MATRIX, MATRIX, MATRIX,
        "gate|up shape (2, 5) does not match down projection rows 2",
        "gate|up shape (2, 5) does not match down projection rows 2",
        None, MATRIX, None,
    ),
}


def test_every_call_has_an_expected_outcome():
    assert set(EXPECTED) == set(ENTRY_POINTS)
    assert {len(row) for row in EXPECTED.values()} == {len(INPUTS)}


@pytest.mark.parametrize("case", INPUTS)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_bad_input(name, case):
    x, epsilon = INPUTS[case]
    expected = EXPECTED[name][list(INPUTS).index(case)]
    if isinstance(expected, str):
        expected = ("ValueError", expected.format(shape=np.shape(x)))
    assert outcome(ENTRY_POINTS[name], x, epsilon) == (expected or ("ok", ""))


# id -> (a, b, None where `matmul` returns, else its `ValueError` message)
MATMUL_PAIRS = {
    "row fits": (np.ones(4), np.ones((4, 2)), None),
    "stack per head fits": (np.ones((2, 3, 4)), np.ones((2, 4, 2)), None),
    "finite products overflow": (np.full((1, 2), 1e200), np.full((2, 1), 1e200), None),
    "b 0-D": (np.ones(4), np.float64(1.0), "expected a 2-D matrix, got shape ()"),
    "b a row": (np.ones((2, 4)), np.ones(4), "expected a 2-D matrix, got shape (4,)"),
    "b per head for a stack": (np.ones((2, 4)), np.ones((2, 4, 2)), "expected a 2-D matrix, got shape (2, 4, 2)"),
    # a batch's b is checked as rows, which a stack is
    "b 2-D for a stack per head": (np.ones((2, 3, 4)), np.ones((4, 2)), "matmul dimension mismatch: (2, 3, 4) times (4, 2)"),
    "b 4-D for a stack per head": (np.ones((2, 3, 4)), np.ones((1, 2, 4, 2)), RANKS.format(shape=(1, 2, 4, 2))),
    "b empty": (np.ones((2, 4)), np.ones((4, 0)), EMPTY),
    "b empty per head": (np.ones((2, 3, 4)), np.ones((2, 4, 0)), EMPTY),
    "a empty, inner fits": (np.ones((0, 4)), np.ones((4, 2)), EMPTY),
    "inner mismatch": (np.ones((2, 4)), np.ones((5, 2)), "matmul dimension mismatch: (2, 4) times (5, 2)"),
    "row inner mismatch": (np.ones(4), np.ones((5, 2)), "matmul dimension mismatch: (4,) times (5, 2)"),
    "batch mismatch": (np.ones((2, 3, 4)), np.ones((3, 4, 2)), "matmul dimension mismatch: (2, 3, 4) times (3, 4, 2)"),
    "inf b fits": (np.ones((2, 4)), _with((4, 2), (1, 1), np.inf), MATRIX),
    "-inf row fits a column": (_with(4, 0, -np.inf), np.ones((4, 1)), ROW),
    "NaN per head fits": (_with((2, 3, 4), (1, 0, 2), np.nan), np.ones((2, 4, 2)), MATRIX),
    "NaN b per head fits": (np.ones((2, 3, 4)), _with((2, 4, 2), (0, 3, 1), np.nan), MATRIX),
    "NaN a beside an inner mismatch": (_with((2, 4), (0, 1), np.nan), np.ones((5, 2)), MATRIX),
    "NaN row beside a row b": (_with(4, 3, np.nan), np.ones(4), ROW),
    "NaN row beside a NaN b": (_with(4, 3, np.nan), _with((4, 2), (0, 0), np.nan), ROW),
    "NaN a beside an empty b": (_with((2, 4), (0, 1), np.nan), np.ones((4, 0)), MATRIX),
    "NaN b a row": (np.ones((2, 4)), _with(4, 0, np.nan), "expected a 2-D matrix, got shape (4,)"),
    "NaN b 2-D for a stack per head": (np.ones((2, 3, 4)), _with((4, 2), (1, 1), np.nan), MATRIX),
    "b a row for a stack per head": (np.ones((2, 3, 4)), np.ones(4), "matmul dimension mismatch: (2, 3, 4) times (4,)"),
}


@pytest.mark.parametrize("kernel", ["einsum", "chunked"])
@pytest.mark.parametrize("pair", MATMUL_PAIRS)
def test_matmul_operands(request, pair, kernel):
    if kernel == "chunked":
        request.getfixturevalue("chunked_kernel")
    a, b, message = MATMUL_PAIRS[pair]
    assert outcome(matmul, a, b) == (("ValueError", message) if message else ("ok", ""))


def outcome(call, *args) -> tuple[str, str]:
    """(exception type name, message) of `call(*args)`, or ("ok", "") where it returns."""
    try:
        call(*args)
    except Exception as e:  # noqa: BLE001 - the type is what is pinned
        return type(e).__name__, str(e)
    return "ok", ""
