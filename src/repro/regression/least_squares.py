"""Least-squares fitting of linearly weighted basis functions.

In CAFFEINE the overall expression is ``y = w0 + sum_j wj * basis_j(x)``:
the basis functions are evolved by GP, the weights ``wj`` and intercept
``w0`` are learned by linear least squares on the training data.  This module
implements that fit with the numerical safeguards needed when basis functions
are nearly collinear or badly scaled (a common occurrence for randomly
generated expressions): a tiny ridge term and column scaling.

Two entry points produce *bit-for-bit identical* fits:

* :func:`fit_linear` -- takes the basis matrix and computes its own normal
  equations;
* :func:`fit_linear_from_gram_batch` -- solves a same-width group of fits
  from precomputed raw cross-products (as cached and batched by the
  generation-level gram pool in :mod:`repro.core.evaluation`) in stacked
  LAPACK calls, and returns the group's stacked predictions with the fits:
  the one pass over ``n_samples`` that gives each fit its residual sum of
  squares also gives the caller its training error.

The identity holds because both paths share one canonical dot-product
recipe, :func:`pair_dots`: columns are stacked as *rows* of a C-contiguous
array and reduced along the contiguous axis, where NumPy's pairwise
summation depends only on the row's own data and length -- never on which
other rows share the batch.  (BLAS GEMM does *not* have this property: the
entries of ``P.T @ P`` change in the last ulp with the shape of ``P``, which
is why the gram pool cannot simply gather from one big matrix product.)

The same discipline applies on the *prediction* side.  A BLAS matvec
``B @ w`` reduces each sample's ``k`` terms in an implementation-chosen
order that may change with blocking, so predictions produced one individual
at a time and predictions produced in a stacked batch could disagree in the
last ulp.  :func:`predict_linear` therefore accumulates
``w0 + sum_j wj * col_j`` **left to right over the basis columns**: every
step is an elementwise multiply or add (exact per element, independent of
how many individuals share the batch), and there is no cross-sample or
cross-term reduction at all.  :func:`predict_linear_batch` runs the same
left-to-right accumulation over an ``(m, n, k)`` stack of same-width basis
matrices -- each output row is bit-for-bit the row :func:`predict_linear`
would produce alone, which is what lets the batched gram fit (and
:class:`repro.core.evaluation.BatchedResidualBackend`'s test-set scoring)
replace per-individual prediction/residual passes with one stacked pass per
basis width.  The residual reduction then goes through
:func:`repro.data.metrics.relative_rmse_rows`, a contiguous-last-axis
pairwise summation with the same row-independence property as
:func:`pair_dots`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LinearFit", "design_matrix", "fit_linear",
           "fit_linear_from_gram_batch", "pair_dots", "raw_normal_statistics",
           "predict_linear", "predict_linear_batch"]


@dataclasses.dataclass(frozen=True)
class LinearFit:
    """Result of fitting ``y ~ intercept + basis_matrix @ coefficients``."""

    intercept: float
    coefficients: np.ndarray
    residual_sum_of_squares: float
    rank: int
    singular: bool

    @property
    def n_terms(self) -> int:
        """Number of (non-intercept) basis functions in the fit."""
        return int(self.coefficients.shape[0])

    def predict(self, basis_matrix: np.ndarray) -> np.ndarray:
        """Predictions for a basis matrix with the same columns as the fit."""
        return predict_linear(self, basis_matrix)


def design_matrix(basis_matrix: np.ndarray, include_intercept: bool = True
                  ) -> np.ndarray:
    """Prepend an intercept column of ones to a basis matrix."""
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D (n_samples, n_bases)")
    if not include_intercept:
        return basis_matrix
    ones = np.ones((basis_matrix.shape[0], 1))
    return np.hstack([ones, basis_matrix])


def pair_dots(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Canonical columnwise dot products: ``sum(rows_a * rows_b, axis=1)``.

    ``rows_a`` / ``rows_b`` are ``(n_pairs, n_samples)`` C-contiguous stacks
    of basis columns *as rows*.  Reducing along the contiguous last axis uses
    NumPy's pairwise summation, whose result for each row depends only on
    that row's data and length -- so a dot product computed in a batch of
    3000 pairs is bit-for-bit the value computed alone.  Every normal-equation
    entry in this module (and in the gram pool of
    :mod:`repro.core.evaluation`) goes through this one recipe; that is the
    entire basis of the ``fit_linear`` == ``fit_linear_from_gram_batch``
    guarantee.
    """
    return (rows_a * rows_b).sum(axis=1)


def raw_normal_statistics(basis_matrix: np.ndarray, y: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (unscaled, no-intercept) normal-equation blocks of one matrix.

    Returns ``(gram, colsums, ydots)`` where ``gram[i, j]`` is the canonical
    dot of columns ``i`` and ``j``, ``colsums`` the canonical column sums and
    ``ydots`` the canonical column--target dots.  Exactly the quantities the
    gram pool caches per column/pair, computed by the same recipe.
    """
    n_bases = basis_matrix.shape[1]
    rows = np.ascontiguousarray(basis_matrix.T)
    colsums = rows.sum(axis=1)
    ydots = (rows * y[None, :]).sum(axis=1)
    upper_i, upper_j = np.triu_indices(n_bases)
    dots = pair_dots(rows[upper_i], rows[upper_j])
    gram = np.empty((n_bases, n_bases))
    gram[upper_i, upper_j] = dots
    gram[upper_j, upper_i] = dots
    return gram, colsums, ydots


def _accumulate_predictions(intercept: float, coefficients: np.ndarray,
                            basis_matrix: np.ndarray) -> np.ndarray:
    """The canonical prediction recipe: ``w0 + sum_j wj * col_j``, left to
    right, purely elementwise -- shared by :func:`predict_linear`, both fit
    entry points and (stacked) :func:`predict_linear_batch`."""
    predictions = np.full(basis_matrix.shape[0], float(intercept))
    for j in range(basis_matrix.shape[1]):
        predictions += coefficients[j] * basis_matrix[:, j]
    return predictions


def _residual_sum_of_squares(residual_rows: np.ndarray) -> np.ndarray:
    """Canonical per-row squared residual norms via :func:`pair_dots`.

    ``residual_rows`` is an ``(m, n_samples)`` stack; each row's result is
    independent of the stack (contiguous-axis pairwise summation), so the
    scalar fits (``m == 1``) and the batched fit report identical
    ``residual_sum_of_squares`` values.
    """
    return pair_dots(residual_rows, residual_rows)


def _intercept_only_fit(y: np.ndarray, include_intercept: bool) -> LinearFit:
    """The zero-basis-function fit of :func:`fit_linear`."""
    intercept = float(np.mean(y)) if include_intercept else 0.0
    residuals = y - intercept
    rss = float(_residual_sum_of_squares(residuals[np.newaxis, :])[0])
    return LinearFit(intercept=intercept, coefficients=np.zeros(0),
                     residual_sum_of_squares=rss,
                     rank=1 if include_intercept else 0, singular=False)


def _solve_from_raw(gram: np.ndarray, colsums: np.ndarray, ydots: np.ndarray,
                    y_sum: float, basis_matrix: np.ndarray, y: np.ndarray,
                    ridge: float, include_intercept: bool
                    ) -> Tuple[Optional[LinearFit], Optional[np.ndarray]]:
    """Shared solve: scale, ridge, solve/fallback, unscale, score.

    Returns ``(fit, predictions)``, or ``(None, None)`` for a non-finite
    solution.  The raw blocks must come from :func:`raw_normal_statistics`
    or from the gram pool's per-pair cache -- both use :func:`pair_dots`,
    so this function cannot tell (and does not care) which path produced
    them.  ``basis_matrix`` is still required: the singular fallback and
    the residual computation intentionally run on the full data so the
    reported error is the exact quantity the rest of the system has always
    used.
    """
    n_samples, n_bases = basis_matrix.shape
    # Scale columns to unit RMS so the ridge term acts uniformly.
    scales = np.sqrt(gram.diagonal() / n_samples)
    scales[scales < 1e-300] = 1.0

    if include_intercept:
        size = n_bases + 1
        full_scales = np.empty(size)
        full_scales[0] = 1.0
        full_scales[1:] = scales
        raw = np.empty((size, size))
        raw[0, 0] = float(n_samples)
        raw[0, 1:] = colsums
        raw[1:, 0] = colsums
        raw[1:, 1:] = gram
        raw_rhs = np.empty(size)
        raw_rhs[0] = y_sum
        raw_rhs[1:] = ydots
    else:
        size = n_bases
        full_scales = scales
        raw = gram
        raw_rhs = ydots
    scaled_gram = raw / (full_scales[:, None] * full_scales[None, :])
    rhs = raw_rhs / full_scales
    # The rank estimate needs the unpenalized gram; compute its spectrum
    # before the in-place ridge add below.  Informational metadata only --
    # matrix_rank's tolerance recipe on a symmetric eigendecomposition.
    try:
        spectrum = np.abs(np.linalg.eigvalsh(scaled_gram))
        tolerance = spectrum.max() * size * np.finfo(np.float64).eps
        rank = int(np.count_nonzero(spectrum > tolerance))
    except np.linalg.LinAlgError:  # pragma: no cover - non-finite gram
        rank = 0
    # Trace via an explicit diagonal gather + contiguous pairwise sum: the
    # one reduction recipe whose result is identical whether computed here
    # or as one row of the batched path's (m, size) diagonal stack.
    diagonal_indices = np.arange(size)
    ridge_term = ridge * max(
        1.0, float(scaled_gram[diagonal_indices, diagonal_indices].sum()))
    diagonal = scaled_gram.reshape(-1)[:: size + 1]
    if include_intercept:
        # The intercept is never penalized.
        diagonal[1:] += ridge_term
    else:
        diagonal += ridge_term
    try:
        solution = np.linalg.solve(scaled_gram, rhs)
        singular = False
    except np.linalg.LinAlgError:
        design = design_matrix(basis_matrix / scales, include_intercept)
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        singular = True
    if not np.all(np.isfinite(solution)):
        return None, None

    if include_intercept:
        intercept = float(solution[0])
        coefficients = solution[1:] / scales
    else:
        intercept = 0.0
        coefficients = solution / scales

    coefficients = np.asarray(coefficients, dtype=float)
    # Canonical prediction + residual reduction (see the module docstring):
    # the same bits whether this fit is solved alone or as one row of the
    # batched path's stacked solve.
    predictions = _accumulate_predictions(intercept, coefficients, basis_matrix)
    residuals = y - predictions
    rss = float(_residual_sum_of_squares(residuals[None, :])[0])
    fit = LinearFit(intercept=intercept, coefficients=coefficients,
                    residual_sum_of_squares=rss, rank=rank, singular=singular)
    return fit, predictions


def fit_linear(basis_matrix: np.ndarray, y: np.ndarray,
               ridge: float = 1e-10,
               include_intercept: bool = True) -> Optional[LinearFit]:
    """Fit ``y ~ w0 + basis_matrix @ w`` by (slightly ridged) least squares.

    Parameters
    ----------
    basis_matrix:
        Array of shape ``(n_samples, n_bases)``; may have zero columns, in
        which case only the intercept is fitted.
    y:
        Target vector of length ``n_samples``.
    ridge:
        Small Tikhonov term added to the normal equations for numerical
        robustness against collinear evolved basis functions.  The intercept
        is never penalized.
    include_intercept:
        Whether to include the constant term ``w0``.

    Returns
    -------
    LinearFit or None
        ``None`` when the basis matrix contains non-finite entries (an
        evolved expression that overflows on the training data); the caller
        treats such individuals as infeasible.
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D (n_samples, n_bases)")
    if basis_matrix.shape[0] != y.shape[0]:
        raise ValueError("basis_matrix and y disagree on the number of samples")
    if y.size == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.all(np.isfinite(basis_matrix)) or not np.all(np.isfinite(y)):
        return None

    if basis_matrix.shape[1] == 0:
        return _intercept_only_fit(y, include_intercept)

    gram, colsums, ydots = raw_normal_statistics(basis_matrix, y)
    fit, _predictions = _solve_from_raw(gram, colsums, ydots, float(y.sum()),
                                        basis_matrix, y, ridge,
                                        include_intercept)
    return fit


def fit_linear_from_gram_batch(grams: np.ndarray, colsums: np.ndarray,
                               ydots: np.ndarray, y_sum: float,
                               basis_matrices: Sequence[np.ndarray],
                               y: np.ndarray, ridge: float = 1e-10
                               ) -> Tuple[List[Optional[LinearFit]], np.ndarray]:
    """Same-width fits from raw cross-products -- bit-for-bit ``fit_linear``.

    ``grams`` is an ``(m, k, k)`` stack of raw grams, ``colsums``/``ydots``
    the matching ``(m, k)`` stacks -- the canonical :func:`pair_dots`
    scalars of :func:`raw_normal_statistics`, which the gram pool in
    :mod:`repro.core.evaluation` caches per basis column/pair and gathers
    here without touching ``n_samples`` -- and ``basis_matrices`` the ``m``
    assembled matrices; all items share the same ``y`` and ``y_sum``
    (``float(y.sum())``).  Requires ``k >= 1`` and an intercept (the
    evaluator's case).  The caller must have established that the matrices
    and ``y`` are finite (the evaluator keeps per-column finite flags), which
    is where ``fit_linear``'s full-matrix ``isfinite`` scan is saved.

    Returns ``(fits, predictions)``: ``predictions`` is the ``(m, n_samples)``
    stack of each fit's training predictions -- the rows its residual sum of
    squares came from -- and a ``None`` fit's row is NaN.

    Every per-item result is bit-for-bit what ``fit_linear`` returns on the
    item's matrix: the scaling/ridge arithmetic is elementwise (batching
    cannot change it) and the stacked ``eigvalsh``/``solve`` gufuncs run the
    same LAPACK routine per item as the one-matrix calls.  A singular item
    aborts the whole stacked solve, so that (rare) case solves item by item
    -- same results, just slower.
    """
    y = np.asarray(y, dtype=float).ravel()
    m, k = colsums.shape
    if k == 0:
        raise ValueError("batched gram fits require at least one basis column")
    n_samples = y.shape[0]
    size = k + 1

    def _item_by_item() -> Tuple[List[Optional[LinearFit]], np.ndarray]:
        fits: List[Optional[LinearFit]] = []
        predictions = np.full((m, n_samples), np.nan)
        for i in range(m):
            fit, row = _solve_from_raw(
                grams[i], colsums[i], ydots[i], float(y_sum),
                np.asarray(basis_matrices[i], dtype=float), y, ridge, True)
            fits.append(fit)
            if fit is not None:
                predictions[i] = row
        return fits, predictions

    base_indices = np.arange(k)
    scales = np.sqrt(grams[:, base_indices, base_indices] / n_samples)
    scales[scales < 1e-300] = 1.0
    full_scales = np.empty((m, size))
    full_scales[:, 0] = 1.0
    full_scales[:, 1:] = scales
    raw = np.empty((m, size, size))
    raw[:, 0, 0] = float(n_samples)
    raw[:, 0, 1:] = colsums
    raw[:, 1:, 0] = colsums
    raw[:, 1:, 1:] = grams
    raw_rhs = np.empty((m, size))
    raw_rhs[:, 0] = y_sum
    raw_rhs[:, 1:] = ydots
    scaled_gram = raw / (full_scales[:, :, None] * full_scales[:, None, :])
    rhs = raw_rhs / full_scales

    diagonal_indices = np.arange(size)
    try:
        spectra = np.abs(np.linalg.eigvalsh(scaled_gram))
    except np.linalg.LinAlgError:  # pragma: no cover - non-finite gram
        return _item_by_item()
    tolerances = spectra.max(axis=-1) * size * np.finfo(np.float64).eps
    ranks = np.count_nonzero(spectra > tolerances[:, None], axis=-1)
    traces = scaled_gram[:, diagonal_indices, diagonal_indices].sum(axis=1)
    ridge_terms = ridge * np.maximum(1.0, traces)
    scaled_gram[:, diagonal_indices[1:], diagonal_indices[1:]] += \
        ridge_terms[:, None]
    try:
        solutions = np.linalg.solve(scaled_gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return _item_by_item()

    coefficient_rows = solutions[:, 1:] / scales
    finite_indices = np.flatnonzero(np.isfinite(solutions).all(axis=1))
    fits: List[Optional[LinearFit]] = [None] * m
    if finite_indices.size == 0:
        return fits, np.full((m, n_samples), np.nan)
    # One stacked canonical prediction pass plus one row-stacked residual
    # reduction for the whole group -- each row bit-for-bit the one-matrix
    # path's value (see the module docstring).
    stacked = np.stack([np.asarray(basis_matrices[i], dtype=float)
                        for i in finite_indices])
    rows = predict_linear_batch(solutions[finite_indices, 0],
                                coefficient_rows[finite_indices], stacked)
    rss_rows = _residual_sum_of_squares(y[None, :] - rows)
    for row, i in enumerate(finite_indices):
        fits[i] = LinearFit(
            intercept=float(solutions[i, 0]),
            coefficients=coefficient_rows[i],
            residual_sum_of_squares=float(rss_rows[row]),
            rank=int(ranks[i]), singular=False)
    if finite_indices.size == m:
        return fits, rows
    predictions = np.full((m, n_samples), np.nan)
    predictions[finite_indices] = rows
    return fits, predictions


def predict_linear(fit: LinearFit, basis_matrix: np.ndarray) -> np.ndarray:
    """Evaluate a :class:`LinearFit` on a new basis matrix.

    Uses the canonical left-to-right accumulation
    ``w0 + sum_j wj * basis_matrix[:, j]`` rather than a BLAS matvec: every
    step is elementwise, so the result is bit-for-bit independent of whether
    the prediction is computed alone or as one row of
    :func:`predict_linear_batch`'s stacked pass (see the module docstring's
    prediction-side batch-stability argument).
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D")
    if basis_matrix.shape[1] != fit.n_terms:
        raise ValueError(
            f"fit has {fit.n_terms} terms but basis matrix has "
            f"{basis_matrix.shape[1]} columns"
        )
    return _accumulate_predictions(fit.intercept, fit.coefficients,
                                   basis_matrix)


def predict_linear_batch(intercepts: np.ndarray, coefficient_rows: np.ndarray,
                         stacked_matrices: np.ndarray) -> np.ndarray:
    """Stacked same-width predictions, bit-for-bit :func:`predict_linear`.

    Parameters
    ----------
    intercepts:
        ``(m,)`` fitted intercepts, one per individual.
    coefficient_rows:
        ``(m, k)`` fitted coefficients (every individual has ``k`` basis
        functions -- callers group by width).
    stacked_matrices:
        ``(m, n_samples, k)`` stack of the individuals' basis matrices.

    Returns the ``(m, n_samples)`` prediction rows.  Row ``i`` is computed
    by exactly the floating-point operations of
    ``predict_linear(fit_i, stacked_matrices[i])``: the accumulation is
    left-to-right over the ``k`` columns and purely elementwise, so batch
    composition cannot change a single bit (no cross-term reduction exists
    for a batch shape to perturb -- the prediction-side analogue of
    :func:`pair_dots`).

    One precisely-scoped caveat: when an *addition meets two NaN operands
    with different payloads*, x86 SIMD lanes and scalar tails may propagate
    different payloads, so NaN bit patterns (payload/sign only -- never
    NaN-ness itself, nor any non-NaN value) can depend on array shape.
    Two-NaN additions require NaN *inputs*: with finite intercepts and
    coefficients (every successful fit -- non-finite solutions are
    rejected) and finite columns, products of finite operands can overflow
    to infinity but never to NaN, so at most one NaN operand ever reaches
    an addition and the guarantee is fully bit-for-bit.  Columns containing
    NaN (e.g. test-set blow-ups) yield NaN predictions in identical
    *positions* either way, and the downstream residual reduction
    (:func:`repro.data.metrics.relative_rmse_rows`) maps any NaN-bearing
    row to ``inf`` regardless of payload -- so reported errors are always
    bit-for-bit equal, which is the quantity the engine's equivalence
    guarantees cover (enforced in ``tests/test_core_residual.py``).
    """
    intercepts = np.asarray(intercepts, dtype=float)
    coefficient_rows = np.asarray(coefficient_rows, dtype=float)
    stacked = np.asarray(stacked_matrices, dtype=float)
    if stacked.ndim != 3:
        raise ValueError("stacked_matrices must be 3-D (m, n_samples, k)")
    m, n_samples, k = stacked.shape
    if coefficient_rows.shape != (m, k):
        raise ValueError("coefficient_rows must have shape (m, k)")
    if intercepts.shape != (m,):
        raise ValueError("intercepts must have shape (m,)")
    predictions = np.empty((m, n_samples))
    predictions[...] = intercepts[:, None]
    for j in range(k):
        predictions += coefficient_rows[:, j, None] * stacked[:, :, j]
    return predictions
