"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.complexity import model_complexity
from repro.core.generator import ExpressionGenerator
from repro.core.grammar import default_grammar, validate_expression
from repro.core.individual import Individual
from repro.core.pareto import (
    crowding_distances,
    dominates,
    fast_nondominated_sort,
    nondominated_indices,
)
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight, transform_stored_value
from repro.data.metrics import error_normalization, normalized_mse, relative_rmse
from repro.doe.orthogonal import is_orthogonal_array, orthogonal_array
from repro.regression.least_squares import fit_linear

import reference_pareto

# Shared hypothesis profile: keep examples modest so the suite stays fast.
FAST = hyp_settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------
@FAST
@given(stored=st.floats(min_value=-20.0, max_value=20.0),
       bound=st.floats(min_value=1.0, max_value=15.0))
def test_weight_transform_range(stored, bound):
    value = transform_stored_value(stored, bound)
    if value != 0.0:
        assert 10.0 ** (-bound) - 1e-300 <= abs(value) <= 10.0 ** bound * (1 + 1e-9)


@FAST
@given(value=st.floats(min_value=-1e9, max_value=1e9,
                       allow_nan=False, allow_infinity=False))
def test_weight_from_value_round_trip(value):
    weight = Weight.from_value(value)
    if value == 0.0:
        assert weight.value == 0.0
    elif abs(value) >= 1e-10:
        assert weight.value == pytest.approx(value, rel=1e-9)


# ----------------------------------------------------------------------
# variable combos
# ----------------------------------------------------------------------
@FAST
@given(exponents=st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=1, max_size=6))
def test_vc_evaluation_matches_numpy(exponents):
    vc = VariableCombo(tuple(exponents))
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(10, len(exponents)))
    expected = np.prod(X ** np.array(exponents, dtype=float), axis=1)
    np.testing.assert_allclose(vc.evaluate(X), expected, rtol=1e-9)
    assert vc.total_order == sum(abs(e) for e in exponents)


@FAST
@given(exponents=st.lists(st.integers(min_value=-3, max_value=3),
                          min_size=2, max_size=6),
       seed=st.integers(min_value=0, max_value=1000))
def test_vc_crossover_preserves_gene_pool(exponents, seed):
    rng = np.random.default_rng(seed)
    parent_a = VariableCombo(tuple(exponents))
    parent_b = VariableCombo(tuple(reversed(exponents)))
    child_a, child_b = parent_a.crossover(parent_b, rng)
    for position in range(len(exponents)):
        pool = {parent_a.exponents[position], parent_b.exponents[position]}
        assert child_a.exponents[position] in pool
        assert child_b.exponents[position] in pool


# ----------------------------------------------------------------------
# generated expressions
# ----------------------------------------------------------------------
@FAST
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_variables=st.integers(min_value=1, max_value=8))
def test_generated_expressions_respect_grammar_and_depth(seed, n_variables):
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed)
    generator = ExpressionGenerator(n_variables, settings,
                                    rng=np.random.default_rng(seed))
    grammar = default_grammar()
    term = generator.random_product_term()
    validate_expression(term, grammar)
    assert term.depth <= settings.max_tree_depth
    assert term.n_nodes >= 1
    clone = term.clone()
    assert clone.render([f"x{i}" for i in range(n_variables)]) == \
        term.render([f"x{i}" for i in range(n_variables)])


@FAST
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_complexity_nonnegative_and_monotone_in_bases(seed):
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed)
    generator = ExpressionGenerator(4, settings, rng=np.random.default_rng(seed))
    bases = generator.random_basis_functions(3)
    assert model_complexity([], settings) == 0.0
    one = model_complexity(bases[:1], settings)
    three = model_complexity(bases, settings)
    assert 0.0 < one <= three
    assert three == pytest.approx(sum(model_complexity([b], settings) for b in bases))


# ----------------------------------------------------------------------
# Pareto machinery
# ----------------------------------------------------------------------
vectors_strategy = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=100.0),
              st.floats(min_value=0.0, max_value=100.0)),
    min_size=1, max_size=30)


@FAST
@given(vectors=vectors_strategy)
def test_nondominated_front_members_are_mutually_nondominated(vectors):
    front = nondominated_indices(vectors)
    assert front  # never empty for a non-empty input
    for i in front:
        for j in front:
            if i != j:
                assert not dominates(vectors[i], vectors[j])


@FAST
@given(vectors=vectors_strategy)
def test_fast_sort_partitions_population(vectors):
    fronts = fast_nondominated_sort(vectors)
    flat = sorted(i for front in fronts for i in front)
    assert flat == list(range(len(vectors)))
    # Earlier fronts are never dominated by later fronts.
    for earlier_index, front in enumerate(fronts):
        for later_front in fronts[earlier_index + 1:]:
            for i in front:
                for j in later_front:
                    assert not dominates(vectors[j], vectors[i])


@FAST
@given(vectors=vectors_strategy)
def test_crowding_distances_nonnegative(vectors):
    distances = crowding_distances(vectors)
    assert len(distances) == len(vectors)
    assert all(d >= 0.0 for d in distances)


# ----------------------------------------------------------------------
# vectorized Pareto kernels == pure-Python reference
# ----------------------------------------------------------------------
# Adversarial objective values: exact ties and signed zeros (stable-sort
# order must agree), infinities (the engine's infeasibility marker), plus
# ordinary magnitudes.  NaN is deliberately excluded: the kernels document
# it as unsupported (sort placement would differ).
_adversarial_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300,
                     float("inf"), float("-inf")]),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
)


@st.composite
def _equal_length_vectors(draw):
    n_objectives = draw(st.integers(min_value=1, max_value=3))
    vectors = draw(st.lists(
        st.tuples(*[_adversarial_value] * n_objectives),
        min_size=0, max_size=25))
    # Duplicate a slice of the population to force ties and identical points.
    if vectors and draw(st.booleans()):
        vectors = vectors + vectors[:draw(st.integers(0, len(vectors)))]
    return vectors


@FAST
@given(vectors=_equal_length_vectors())
def test_fast_sort_backends_identical(vectors):
    python_fronts = reference_pareto.fast_nondominated_sort(vectors)
    numpy_fronts = fast_nondominated_sort(vectors)
    assert numpy_fronts == python_fronts


@FAST
@given(vectors=_equal_length_vectors())
def test_nondominated_indices_backends_identical(vectors):
    assert nondominated_indices(vectors) == \
        reference_pareto.nondominated_indices(vectors)


@FAST
@given(vectors=_equal_length_vectors())
def test_crowding_backends_identical(vectors):
    python_distances = reference_pareto.crowding_distances(vectors)
    numpy_distances = crowding_distances(vectors)
    assert len(python_distances) == len(numpy_distances)
    for a, b in zip(python_distances, numpy_distances):
        # Bitwise agreement, inf included (inf == inf holds).
        assert a == b or (np.isnan(a) and np.isnan(b))


@FAST
@given(vectors=_equal_length_vectors(), seed=st.integers(0, 10_000),
       target_fraction=st.floats(min_value=0.1, max_value=1.0))
def test_rank_and_selection_backends_identical(vectors, seed, target_fraction):
    import dataclasses as dataclasses_module

    from repro.core.nsga2 import environmental_selection, rank_population

    if not vectors:
        return

    @dataclasses_module.dataclass
    class Point:
        objectives: tuple

    population = [Point(v) for v in vectors]
    # Reference NSGA-II ranking and survivor selection, built directly on
    # the pure-Python kernels: fill by fronts, truncate the partial front
    # by descending crowding with ties kept in front order.
    fronts = reference_pareto.fast_nondominated_sort(vectors)
    ranks = [0] * len(vectors)
    crowding = [0.0] * len(vectors)
    for rank, front in enumerate(fronts):
        distances = reference_pareto.crowding_distances(
            [vectors[i] for i in front])
        for i, distance in zip(front, distances):
            ranks[i] = rank
            crowding[i] = distance
    ranked = rank_population(population)
    assert [r.rank for r in ranked] == ranks
    assert [r.crowding for r in ranked] == crowding
    target = max(1, int(len(population) * target_fraction))
    survivors = []
    for front in fronts:
        if len(survivors) + len(front) <= target:
            survivors.extend(front)
            continue
        distances = reference_pareto.crowding_distances(
            [vectors[i] for i in front])
        order = sorted(range(len(front)), key=distances.__getitem__,
                       reverse=True)
        survivors.extend(front[k] for k in order[:target - len(survivors)])
        break
    assert [id(p) for p in environmental_selection(population, target)] == \
        [id(population[i]) for i in survivors]


# ----------------------------------------------------------------------
# gram-pool fits == direct fits, bit for bit
# ----------------------------------------------------------------------
@FAST
@given(n_samples=st.integers(min_value=2, max_value=120),
       n_bases=st.integers(min_value=0, max_value=15),
       scale_exponent=st.integers(min_value=-8, max_value=8),
       seed=st.integers(min_value=0, max_value=10_000),
       degenerate=st.sampled_from(["none", "duplicate", "zero", "constant"]))
def test_gram_fit_bitwise_equals_fit_linear(n_samples, n_bases,
                                            scale_exponent, seed, degenerate):
    from repro.regression.least_squares import (
        fit_linear_from_gram_batch,
        raw_normal_statistics,
    )

    rng = np.random.default_rng(seed)
    basis_matrix = rng.normal(size=(n_samples, n_bases)) * \
        10.0 ** rng.integers(-abs(scale_exponent), abs(scale_exponent) + 1,
                             size=n_bases)
    if n_bases >= 2 and degenerate == "duplicate":
        basis_matrix[:, 1] = basis_matrix[:, 0]
    elif n_bases >= 1 and degenerate == "zero":
        basis_matrix[:, 0] = 0.0
    elif n_bases >= 1 and degenerate == "constant":
        basis_matrix[:, 0] = 3.25
    y = rng.normal(size=n_samples) * 10.0 ** scale_exponent

    direct = fit_linear(basis_matrix, y)
    gram, colsums, ydots = raw_normal_statistics(basis_matrix, y)
    if n_bases == 0:
        # Basis-free fits are fit_linear's intercept-only case; the gram
        # path only ever sees individuals with at least one column.
        with pytest.raises(ValueError, match="at least one basis column"):
            fit_linear_from_gram_batch(gram[None], colsums[None],
                                       ydots[None], float(y.sum()),
                                       [basis_matrix], y)
        return
    (pooled,), predictions = fit_linear_from_gram_batch(
        gram[None], colsums[None], ydots[None], float(y.sum()),
        [basis_matrix], y)
    assert (direct is None) == (pooled is None)
    if direct is not None:
        assert np.array_equal(predictions[0], direct.predict(basis_matrix))
        assert pooled.intercept == direct.intercept
        assert np.array_equal(pooled.coefficients, direct.coefficients)
        assert pooled.residual_sum_of_squares == direct.residual_sum_of_squares
        assert pooled.rank == direct.rank
        assert pooled.singular == direct.singular


@FAST
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_individuals=st.integers(min_value=1, max_value=8))
def test_gram_evaluator_bitwise_equals_direct_evaluator(seed, n_individuals):
    from repro.core.evaluation import (PopulationEvaluator,
                                       evaluate_individual_inplace)
    from repro.core.individual import Individual

    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed, max_basis_functions=6)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(3, settings, rng=rng)
    X = np.random.default_rng(seed + 1).uniform(0.5, 2.0, size=(40, 3))
    y = np.random.default_rng(seed + 2).normal(size=40)
    population = [Individual(bases=generator.random_basis_functions())
                  for _ in range(n_individuals)]
    reference = [ind.clone() for ind in population]
    gram = PopulationEvaluator(X, y, settings)
    gram.evaluate_population(population)
    for individual in reference:
        evaluate_individual_inplace(individual, X, y, settings)
    for a, b in zip(population, reference):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)


# ----------------------------------------------------------------------
# metrics and linear algebra
# ----------------------------------------------------------------------
@FAST
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                       min_size=2, max_size=50),
       shift=st.floats(min_value=-10.0, max_value=10.0))
def test_relative_rmse_shift_invariance_of_normalization(values, shift):
    y = np.array(values)
    normalization = error_normalization(y)
    assert normalization > 0
    if normalization < 1e-6 or 0.0 < abs(shift) < 1e-6:
        return  # avoid denormal underflow corner cases
    # Shifting predictions by a constant changes the error proportionally to
    # the shift, never producing negative or NaN errors.
    error = relative_rmse(y, y + shift, normalization)
    assert error >= 0.0
    assert error == pytest.approx(abs(shift) / normalization, rel=1e-9, abs=1e-12)


@FAST
@given(n_samples=st.integers(min_value=5, max_value=60),
       n_features=st.integers(min_value=0, max_value=4),
       seed=st.integers(min_value=0, max_value=1000))
def test_linear_fit_never_worse_than_mean_model(n_samples, n_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_samples, n_features))
    y = rng.normal(size=n_samples)
    fit = fit_linear(X, y)
    assert fit is not None
    mean_rss = float(np.sum((y - y.mean()) ** 2))
    assert fit.residual_sum_of_squares <= mean_rss + 1e-6


@FAST
@given(prediction_noise=st.one_of(
    st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)))
def test_normalized_mse_zero_iff_exact(prediction_noise):
    y = np.linspace(0.0, 1.0, 20)
    prediction = y + prediction_noise
    error = normalized_mse(y, prediction)
    if prediction_noise == 0.0:
        assert error == 0.0
    else:
        assert error > 0.0


# ----------------------------------------------------------------------
# DOE
# ----------------------------------------------------------------------
@FAST
@given(n_factors=st.integers(min_value=2, max_value=13),
       levels=st.sampled_from([2, 3]))
def test_orthogonal_arrays_always_strength_two(n_factors, levels):
    design = orthogonal_array(n_factors, levels=levels)
    assert design.shape[1] == n_factors
    assert is_orthogonal_array(design, levels=levels, strength=2)


# ----------------------------------------------------------------------
# individuals
# ----------------------------------------------------------------------
@FAST
@given(seed=st.integers(min_value=0, max_value=5000))
def test_individual_evaluation_invariants(seed):
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(3, settings, rng=rng)
    X = rng.uniform(0.5, 2.0, size=(30, 3))
    y = 1.0 + X[:, 0] * X[:, 1]
    individual = Individual(bases=generator.random_basis_functions())
    individual.evaluate(X, y, settings)
    assert individual.complexity >= 0.0
    assert individual.error >= 0.0 or individual.error == float("inf")
    if individual.is_feasible:
        predictions = individual.predict(X)
        assert predictions.shape == y.shape
