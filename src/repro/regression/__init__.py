"""Linear-regression utilities shared by CAFFEINE and the posynomial baseline.

CAFFEINE's individuals are linear combinations of evolved basis functions;
the linear coefficients are learned with least squares
(:mod:`~repro.regression.least_squares`).  The post-processing step of the
paper ("simplification after generation") relies on the PRESS statistic --
a closed-form leave-one-out cross-validation of linear models
(:mod:`~repro.regression.press`) -- combined with forward regression
(:mod:`~repro.regression.forward_regression`).  The posynomial baseline uses
non-negative least squares (:mod:`~repro.regression.nnls`).
"""

from repro.regression.least_squares import (
    LinearFit,
    design_matrix,
    fit_linear,
    pair_dots,
    predict_linear,
    predict_linear_batch,
    raw_normal_statistics,
)
from repro.regression.press import (
    hat_matrix,
    loo_residuals,
    press_statistic,
    press_rmse,
)
from repro.regression.forward_regression import (
    ForwardSelectionResult,
    forward_select,
)
from repro.regression.nnls import nonnegative_least_squares

__all__ = [
    "LinearFit",
    "design_matrix",
    "fit_linear",
    "pair_dots",
    "raw_normal_statistics",
    "predict_linear",
    "predict_linear_batch",
    "hat_matrix",
    "loo_residuals",
    "press_statistic",
    "press_rmse",
    "ForwardSelectionResult",
    "forward_select",
    "nonnegative_least_squares",
]
