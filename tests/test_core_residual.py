"""Batched residual engine vs the scalar metric: bit-for-bit equality.

The generation-batched residual pass (``BatchedResidualBackend``) claims its
stacked predictions and row-stacked residual reductions are bit-for-bit
identical to scoring each individual on its own with
``relative_rmse(y, fit.predict(basis_matrix), normalization)``.  These tests
enforce that claim over adversarial inputs (NaN, signed zeros, huge
magnitudes, infinities), over evaluator populations and over the test-set
scoring of finished runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    BasisColumnCache,
    BatchedResidualBackend,
    PopulationEvaluator,
    cache_budgets,
    evaluate_individual_inplace,
)
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.model import batch_test_errors
from repro.core.settings import CaffeineSettings
from repro.data.metrics import relative_rmse, relative_rmse_rows
from repro.regression.least_squares import (
    LinearFit,
    fit_linear,
    predict_linear,
    predict_linear_batch,
)

FAST = hyp_settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Adversarial float values: huge magnitudes near the overflow edge, tiny
#: denormal-adjacent values, signed zeros, NaN and infinities -- everything
#: an evolved expression can feed the residual pass.
ADVERSARIAL = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                     0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324]),
)
FINITE = st.floats(min_value=-1e150, max_value=1e150,
                   allow_nan=False, allow_infinity=False)


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True bit-for-bit equality (NaN payloads and signed zeros included)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _bit_equal_modulo_nan_payload(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit equality except NaN payloads: NaNs must sit in identical
    positions, every non-NaN element must match bit for bit (signed zeros
    included) -- the exact guarantee ``predict_linear_batch`` documents for
    NaN-bearing inputs, where SIMD lanes vs scalar tails may propagate
    different payloads through two-NaN additions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan_a = np.isnan(a)
    if not np.array_equal(nan_a, np.isnan(b)):
        return False
    masked_a = np.where(nan_a, 0.0, a)
    masked_b = np.where(nan_a, 0.0, b)
    return masked_a.tobytes() == masked_b.tobytes()


class TestPredictLinearBatch:
    """Stacked predictions are bit-for-bit the per-fit accumulation."""

    @FAST
    @given(data=st.data(),
           m=st.integers(min_value=1, max_value=6),
           k=st.integers(min_value=0, max_value=5),
           n=st.integers(min_value=1, max_value=12))
    def test_rows_match_scalar_path_on_fit_domain(self, data, m, k, n):
        """Finite intercepts/coefficients (every successful fit's domain):
        fully bit-for-bit, even against huge/tiny/signed-zero columns and
        overflow-to-infinity accumulations."""
        intercepts = np.array(
            [data.draw(FINITE) for _ in range(m)], dtype=float)
        coefficients = np.array(
            [[data.draw(FINITE) for _ in range(k)] for _ in range(m)],
            dtype=float).reshape(m, k)
        stacked = np.array(
            [[[data.draw(FINITE) for _ in range(k)] for _ in range(n)]
             for _ in range(m)], dtype=float).reshape(m, n, k)
        with np.errstate(all="ignore"):
            batch = predict_linear_batch(intercepts, coefficients, stacked)
            for i in range(m):
                fit = LinearFit(intercept=float(intercepts[i]),
                                coefficients=coefficients[i],
                                residual_sum_of_squares=0.0, rank=k,
                                singular=False)
                scalar = predict_linear(fit, stacked[i])
                assert _bit_equal(batch[i], scalar)

    @FAST
    @given(data=st.data(),
           m=st.integers(min_value=1, max_value=6),
           k=st.integers(min_value=0, max_value=5),
           n=st.integers(min_value=1, max_value=12))
    def test_rows_match_scalar_path_adversarial(self, data, m, k, n):
        """NaN/infinity inputs: NaN positions and all non-NaN values still
        match bit for bit (payloads may differ -- see the documented
        two-NaN-addition caveat), and the *errors* derived from such rows
        are exactly equal (TestResidualBackends covers that end)."""
        intercepts = np.array(
            [data.draw(ADVERSARIAL) for _ in range(m)], dtype=float)
        coefficients = np.array(
            [[data.draw(ADVERSARIAL) for _ in range(k)] for _ in range(m)],
            dtype=float).reshape(m, k)
        stacked = np.array(
            [[[data.draw(ADVERSARIAL) for _ in range(k)] for _ in range(n)]
             for _ in range(m)], dtype=float).reshape(m, n, k)
        with np.errstate(all="ignore"):
            batch = predict_linear_batch(intercepts, coefficients, stacked)
            for i in range(m):
                fit = LinearFit(intercept=float(intercepts[i]),
                                coefficients=coefficients[i],
                                residual_sum_of_squares=0.0, rank=k,
                                singular=False)
                scalar = predict_linear(fit, stacked[i])
                assert _bit_equal_modulo_nan_payload(batch[i], scalar)

    def test_signed_zero_columns_survive(self):
        stacked = np.array([[[-0.0], [0.0]], [[0.0], [-0.0]]])
        batch = predict_linear_batch(np.array([0.0, -0.0]),
                                     np.array([[1.0], [1.0]]), stacked)
        fit = LinearFit(intercept=0.0, coefficients=np.array([1.0]),
                        residual_sum_of_squares=0.0, rank=1, singular=False)
        for i in range(2):
            assert _bit_equal(batch[i], predict_linear(fit.__class__(
                intercept=float(np.array([0.0, -0.0])[i]),
                coefficients=np.array([1.0]),
                residual_sum_of_squares=0.0, rank=1, singular=False),
                stacked[i]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            predict_linear_batch(np.zeros(2), np.zeros((2, 1)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            predict_linear_batch(np.zeros(3), np.zeros((2, 1)),
                                 np.zeros((2, 4, 1)))
        with pytest.raises(ValueError):
            predict_linear_batch(np.zeros(2), np.zeros((2, 2)),
                                 np.zeros((2, 4, 1)))


class TestRelativeRmseRows:
    """Row-stacked residual reduction is bit-for-bit the scalar metric."""

    @FAST
    @given(data=st.data(),
           m=st.integers(min_value=1, max_value=6),
           n=st.integers(min_value=1, max_value=40),
           normalization=st.floats(min_value=1e-6, max_value=1e6))
    def test_rows_match_scalar_metric(self, data, m, n, normalization):
        y = np.array([data.draw(FINITE) for _ in range(n)], dtype=float)
        rows = np.array([[data.draw(ADVERSARIAL) for _ in range(n)]
                         for _ in range(m)], dtype=float)
        batch = relative_rmse_rows(y, rows, normalization)
        for i in range(m):
            scalar = relative_rmse(y, rows[i], normalization)
            assert _bit_equal(np.array([batch[i]]), np.array([scalar]))

    def test_nonfinite_rows_are_inf(self):
        y = np.array([1.0, 2.0])
        rows = np.array([[1.0, np.nan], [np.inf, 2.0], [1.0, 2.0]])
        errors = relative_rmse_rows(y, rows, 1.0)
        assert errors[0] == np.inf and errors[1] == np.inf
        assert errors[2] == relative_rmse(y, rows[2], 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_rmse_rows(np.ones(3), np.ones((2, 4)), 1.0)
        with pytest.raises(ValueError):
            relative_rmse_rows(np.ones(3), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            relative_rmse_rows(np.ones(3), np.ones((2, 3)), 0.0)


def _scalar_errors(y, normalization, fits, matrices):
    """The reference: one prediction/residual pass per individual."""
    return [relative_rmse(y, fit.predict(matrix), normalization)
            for fit, matrix in zip(fits, matrices)]


class TestResidualBackends:
    """The batched backend agrees bit for bit with per-individual scoring."""

    def _group(self, rng, m, k, n):
        y = rng.normal(size=n)
        fits = []
        matrices = []
        for _ in range(m):
            matrix = rng.normal(size=(n, k)) * rng.choice(
                [1.0, 1e-120, 1e120], size=(1, k) if k else (1, 0))
            fit = fit_linear(matrix, y)
            assert fit is not None
            fits.append(fit)
            matrices.append(matrix)
        return y, fits, matrices

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_backends_agree_on_fitted_groups(self, k):
        rng = np.random.default_rng(k)
        y, fits, matrices = self._group(rng, 5, k, 30)
        batched = BatchedResidualBackend(y, 2.5)
        scalar_errors = _scalar_errors(y, 2.5, fits, matrices)
        batched_errors = batched.errors(fits, matrices)
        assert scalar_errors == batched_errors
        for fit, matrix, expected in zip(fits, matrices, scalar_errors):
            assert batched.error(fit, matrix) == expected
        if k and len(fits) > 1:
            assert batched.n_batched_passes == 1
            assert batched.n_batched_fits == len(fits)

    def test_nan_columns_score_identically(self):
        """Test-set matrices may contain NaN (blow-up columns): both
        paths must report the exact same errors (inf for NaN rows)."""
        rng = np.random.default_rng(9)
        y = rng.normal(size=20)
        matrices = []
        fits = []
        for case in range(4):
            matrix = rng.normal(size=(20, 2))
            fit = fit_linear(matrix, y)
            assert fit is not None
            if case % 2:
                matrix = matrix.copy()
                matrix[case, case % 2] = np.nan
            fits.append(fit)
            matrices.append(matrix)
        batched = BatchedResidualBackend(y, 1.5)
        scalar_errors = _scalar_errors(y, 1.5, fits, matrices)
        batched_errors = batched.errors(fits, matrices)
        assert scalar_errors == batched_errors
        assert scalar_errors[1] == float("inf")
        assert scalar_errors[3] == float("inf")
        assert np.isfinite(scalar_errors[0]) and np.isfinite(scalar_errors[2])



class TestEvaluatorResidualEquivalence:
    """Population evaluation equals the per-individual reference path."""

    def test_population_bitwise_equal(self, rational_train, fast_settings,
                                      monkeypatch):
        import repro.core.evaluation as evaluation
        import repro.regression.least_squares as least_squares

        generator = ExpressionGenerator(3, fast_settings,
                                        rng=np.random.default_rng(17))
        population = [Individual(bases=generator.random_basis_functions())
                      for _ in range(25)]
        clones = [ind.clone() for ind in population]
        batched = PopulationEvaluator(rational_train.X, rational_train.y,
                                      fast_settings)
        widths_predicted = []

        def counting_predict(intercepts, coefficient_rows, stacked):
            widths_predicted.append(stacked.shape[2])
            return predict_linear_batch(intercepts, coefficient_rows, stacked)

        monkeypatch.setattr(least_squares, "predict_linear_batch",
                            counting_predict)
        monkeypatch.setattr(evaluation, "predict_linear_batch",
                            counting_predict)
        batched.evaluate_population(population)
        for individual in clones:
            evaluate_individual_inplace(individual, rational_train.X,
                                        rational_train.y, fast_settings)
        # One prediction pass per basis-width group: the rows that give the
        # fits their residual sums of squares also score their errors.
        widths = sorted({len(ind.bases) for ind in population
                         if ind.is_feasible})
        assert len(widths) > 1
        assert sorted(widths_predicted) == widths
        for a, b in zip(population, clones):
            assert a.error == b.error
            assert a.complexity == b.complexity
            assert (a.fit is None) == (b.fit is None)
            if a.fit is not None:
                assert a.fit.intercept == b.fit.intercept
                assert np.array_equal(a.fit.coefficients, b.fit.coefficients)
                assert a.fit.residual_sum_of_squares == \
                    b.fit.residual_sum_of_squares


class TestAdaptiveBudgets:
    """The LRU budgets derive from the run size; a passed cache holds."""

    def test_defaults_scale_with_population(self):
        # Floors at paper scale; the pm-pop1000 benchmark workload's budgets.
        assert cache_budgets(CaffeineSettings()) == (20000, 200000, 4096)
        assert cache_budgets(CaffeineSettings(population_size=1000)) == \
            (60000, 360000, 8000)
        small = cache_budgets(CaffeineSettings())
        big = cache_budgets(CaffeineSettings(population_size=2000))
        assert all(b > s for b, s in zip(big, small, strict=True))

    def test_explicit_values_are_honored_exactly(self, rational_train):
        """A cache handed to the engine is used as is, at its capacity."""
        settings = CaffeineSettings(population_size=2000)
        cache = BasisColumnCache(2)
        engine = CaffeineEngine(rational_train, settings=settings,
                                column_cache=cache)
        assert engine.evaluator.cache is cache
        assert engine.evaluator.cache.max_entries == 2

    def test_evaluator_and_compiler_use_resolved_budgets(self, rational_train):
        settings = CaffeineSettings(population_size=1000)
        budgets = cache_budgets(settings)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        settings)
        assert evaluator.cache.max_entries == budgets.columns
        assert evaluator.gram_pool.max_pairs == budgets.gram_pairs
        assert evaluator._column_backend.compiler.max_kernels == \
            budgets.kernels


class TestEngineResidualEquivalence:
    """Batched test-set scoring equals per-model scoring."""

    def test_batched_test_scoring_matches_scalar_freeze(self, rational_train,
                                                        rational_test):
        """The engine's batched test-set scoring equals per-model scoring."""
        from repro.data.metrics import q_tc

        base = CaffeineSettings(population_size=20, n_generations=3,
                                random_seed=3)
        result = CaffeineEngine(rational_train, rational_test, base).run()
        assert result.n_models >= 1
        for model in result.tradeoff:
            individual = Individual(bases=list(model.bases),
                                    fit=model.fit,
                                    normalization=model.normalization)
            scalar = q_tc(rational_test.y,
                          individual.predict(rational_test.X),
                          model.normalization)
            assert model.test_error == scalar

    def test_rescore_models_matches_per_model_scoring(self, rational_train,
                                                      rational_test):
        from repro.core.report import rescore_models, rescore_table
        from repro.data.metrics import q_tc

        base = CaffeineSettings(population_size=20, n_generations=3,
                                random_seed=13)
        result = CaffeineEngine(rational_train, rational_test, base).run()
        models = list(result.tradeoff)
        assert models
        batched = rescore_models(models, rational_test.X, rational_test.y)
        for model, fresh in zip(models, batched):
            expected = q_tc(rational_test.y,
                            model.predict_transformed(rational_test.X),
                            model.normalization)
            assert fresh == expected
        table = rescore_table(result.tradeoff, rational_test.X,
                              rational_test.y, title="fresh data")
        assert "fresh err %" in table and "fresh data" in table
        assert len(table.splitlines()) == 2 + len(models)

    def test_batch_test_errors_groups_mixed_widths(self, rational_train,
                                                   rational_test,
                                                   fast_settings):
        generator = ExpressionGenerator(3, fast_settings,
                                        rng=np.random.default_rng(5))
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        individuals = [Individual(bases=generator.random_basis_functions(n))
                       for n in (1, 2, 3, 2, 1)]
        evaluator.evaluate_population(individuals)
        fitted = [ind for ind in individuals if ind.is_feasible]
        assert len(fitted) >= 2
        batched = batch_test_errors(fitted, rational_test.X, rational_test.y,
                                    evaluator.normalization)
        scalar = [relative_rmse(rational_test.y,
                                individual.predict(rational_test.X),
                                evaluator.normalization)
                  for individual in fitted]
        assert batched == scalar
        with pytest.raises(ValueError):
            batch_test_errors([Individual(bases=generator
                                          .random_basis_functions(1))],
                              rational_test.X, rational_test.y, 1.0)
