"""Tests for the batch population-evaluation subsystem and structural keys."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    BasisColumnCache,
    GramPool,
    PopulationEvaluator,
    evaluate_individual_inplace,
)
from repro.core.expression import ProductTerm, UnaryOpTerm, WeightedSum, structural_key
from repro.core.functions import UNARY_OPERATORS
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight


@pytest.fixture()
def generator(fast_settings):
    return ExpressionGenerator(3, fast_settings, rng=np.random.default_rng(11))


def _random_population(generator, n: int):
    return [Individual(bases=generator.random_basis_functions())
            for _ in range(n)]


class TestStructuralKey:
    def test_clone_has_equal_key(self, generator):
        for basis in generator.random_basis_functions(4):
            assert structural_key(basis) == structural_key(basis.clone())

    def test_key_is_hashable(self, generator):
        keys = {structural_key(b) for b in generator.random_basis_functions(4)}
        assert len(keys) >= 1

    def test_different_exponents_differ(self):
        a = ProductTerm(vc=VariableCombo((1, 0, -2)))
        b = ProductTerm(vc=VariableCombo((1, 0, 2)))
        assert structural_key(a) != structural_key(b)

    def test_different_weights_differ(self):
        def make(stored):
            argument = WeightedSum(offset=Weight(stored=stored))
            return ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["abs"],
                                                argument=argument)])
        assert structural_key(make(1.0)) != structural_key(make(2.0))

    def test_different_operators_differ(self):
        argument = WeightedSum(offset=Weight(stored=1.0))
        a = ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["abs"],
                                         argument=argument.clone())])
        b = ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["sqrt"],
                                         argument=argument.clone())])
        assert structural_key(a) != structural_key(b)

    def test_operator_order_is_part_of_key(self):
        # Products are not reordered: the key encodes the exact float recipe.
        argument = WeightedSum(offset=Weight(stored=1.0))
        op_a = UnaryOpTerm(op=UNARY_OPERATORS["abs"], argument=argument.clone())
        op_b = UnaryOpTerm(op=UNARY_OPERATORS["sqrt"], argument=argument.clone())
        ab = ProductTerm(ops=[op_a.clone(), op_b.clone()])
        ba = ProductTerm(ops=[op_b.clone(), op_a.clone()])
        assert structural_key(ab) != structural_key(ba)

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            structural_key(object())


class TestBasisColumnCache:
    def test_lru_eviction(self):
        cache = BasisColumnCache(max_entries=2)
        cache.put(("a",), np.zeros(3))
        cache.put(("b",), np.ones(3))
        assert cache.get(("a",)) is not None  # refresh recency of "a"
        cache.put(("c",), np.full(3, 2.0))    # evicts "b"
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_rejected(self):
        # There is no disabled cache: the smallest one holds one entry.
        with pytest.raises(ValueError, match="at least 1"):
            BasisColumnCache(max_entries=0)
        cache = BasisColumnCache(max_entries=1)
        cache.put(("a",), np.zeros(3))
        cache.put(("b",), np.ones(3))
        assert len(cache) == 1 and ("b",) in cache

    def test_hit_rate(self):
        cache = BasisColumnCache(max_entries=4)
        cache.put(("a",), np.zeros(3))
        cache.get(("a",))
        cache.get(("missing",))
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BasisColumnCache(max_entries=-1)


class TestEvaluatorEquivalence:
    """Cached and uncached evaluation are bit-for-bit equal."""

    def _assert_same_evaluation(self, a: Individual, b: Individual):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert a.normalization == b.normalization
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_matches_legacy_individual_evaluate(self, generator, rational_train,
                                                fast_settings):
        population = _random_population(generator, 12)
        legacy = [ind.clone() for ind in population]
        for individual in legacy:
            individual.evaluate(rational_train.X, rational_train.y, fast_settings)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        evaluator.evaluate_population(population)
        for cached, uncached in zip(population, legacy):
            self._assert_same_evaluation(cached, uncached)

    def test_cache_hit_equals_cache_miss(self, generator, rational_train,
                                         fast_settings):
        individual = _random_population(generator, 1)[0]
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        first = evaluator.evaluate_individual(individual.clone())
        assert evaluator.n_fits_computed == 1
        # A structurally identical clone is served from the fit cache ...
        second = evaluator.evaluate_individual(individual.clone())
        assert evaluator.n_fits_computed == 1
        assert evaluator.n_fit_requests == 2
        assert evaluator.fit_hit_rate == pytest.approx(0.5)
        self._assert_same_evaluation(first, second)
        # ... and a weight-perturbed variant misses the fit cache but still
        # evaluates correctly against the legacy path.
        from repro.core.expression import iter_weights

        variant = individual.clone()
        perturbed = False
        for basis in variant.bases:
            for weight in iter_weights(basis):
                weight.stored = weight.stored + 0.5
                perturbed = True
        legacy = variant.clone()
        evaluator.evaluate_individual(variant)
        legacy.evaluate(rational_train.X, rational_train.y, fast_settings)
        if perturbed:
            assert evaluator.n_fits_computed == 2
        self._assert_same_evaluation(variant, legacy)

    def test_cache_disabled_still_correct(self, generator, rational_train,
                                          fast_settings):
        """A one-entry cache, the closest thing to no cache, changes
        nothing: it also bounds the fit cache to one entry."""
        population = _random_population(generator, 6)
        reference = [ind.clone() for ind in population]
        no_cache = PopulationEvaluator(rational_train.X, rational_train.y,
                                       fast_settings,
                                       cache=BasisColumnCache(1))
        cached = PopulationEvaluator(rational_train.X, rational_train.y,
                                     fast_settings)
        no_cache.evaluate_population(population)
        cached.evaluate_population(reference)
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_tiny_cache_evicts_but_stays_correct(self, generator, rational_train,
                                                 fast_settings):
        population = _random_population(generator, 10)
        reference = [ind.clone() for ind in population]
        tiny = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings, cache=BasisColumnCache(2))
        big = PopulationEvaluator(rational_train.X, rational_train.y,
                                  fast_settings)
        tiny.evaluate_population(population)
        big.evaluate_population(reference)
        assert tiny.cache.stats.evictions > 0
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_fit_evicted_within_batch_is_refitted(self, generator,
                                                  rational_train,
                                                  fast_settings):
        """A fit-cache hit when a batch begins, evicted by a one-entry fit
        cache before its turn, is refitted through the same batched path."""
        a, b = _random_population(generator, 2)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings,
                                        cache=BasisColumnCache(1))
        evaluator.evaluate_population([a.clone()])
        batch = [b.clone(), a.clone()]
        evaluator.evaluate_population(batch)
        # b's fit evicted a's before a was distributed: three fits in all.
        assert evaluator.n_fits_computed == 3
        reference = [b.clone(), a.clone()]
        for individual in reference:
            evaluate_individual_inplace(individual, rational_train.X,
                                        rational_train.y, fast_settings)
        for evaluated, expected in zip(batch, reference):
            self._assert_same_evaluation(evaluated, expected)

    def test_individual_without_bases_gets_intercept_fit(self, generator,
                                                         rational_train,
                                                         fast_settings):
        empty = Individual(bases=[])
        population = [empty] + _random_population(generator, 3)
        reference = [ind.clone() for ind in population]
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        evaluator.evaluate_population(population)
        for individual in reference:
            evaluate_individual_inplace(individual, rational_train.X,
                                        rational_train.y, fast_settings)
        assert empty.fit is not None and empty.fit.n_terms == 0
        for evaluated, expected in zip(population, reference):
            self._assert_same_evaluation(evaluated, expected)

    def test_simplify_rejects_mismatched_evaluator(self, generator,
                                                   rational_train, fast_settings):
        from repro.core.simplify import simplify_individual

        individual = _random_population(generator, 1)[0]
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        evaluator.evaluate_individual(individual)
        other_X = rational_train.X[:50]
        other_y = rational_train.y[:50]
        with pytest.raises(ValueError):
            simplify_individual(individual, other_X, other_y, fast_settings,
                                evaluator=evaluator)

    def test_infeasible_individuals_marked(self, rational_train, fast_settings):
        # x^-4 on a dataset containing zero blows up -> non-finite column.
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        bad = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        evaluator = PopulationEvaluator(X, rational_train.y, fast_settings)
        evaluator.evaluate_individual(bad)
        assert not bad.is_feasible
        assert bad.error == float("inf")

    def test_evaluate_individual_inplace_helper(self, generator, rational_train,
                                                fast_settings):
        individual = _random_population(generator, 1)[0]
        reference = individual.clone()
        evaluate_individual_inplace(individual, rational_train.X,
                                    rational_train.y, fast_settings)
        reference.evaluate(rational_train.X, rational_train.y, fast_settings)
        self._assert_same_evaluation(individual, reference)


class TestEvaluatorValidation:
    def test_rejects_1d_X(self, fast_settings):
        with pytest.raises(ValueError):
            PopulationEvaluator(np.zeros(5), np.zeros(5), fast_settings)

    def test_rejects_sample_mismatch(self, fast_settings):
        with pytest.raises(ValueError):
            PopulationEvaluator(np.zeros((5, 2)), np.zeros(4), fast_settings)

    def test_settings_validate_backend(self):
        # There is one evaluation path, so the old backend switches are
        # unknown fields.
        for field, value in (("evaluation_backend", "serial"),
                             ("evaluation_workers", 1)):
            with pytest.raises(TypeError, match=field):
                CaffeineSettings(**{field: value})

    def test_settings_hold_no_cache_budgets(self):
        """The settings are the paper's run settings plus fault injection:
        cache budgets derive from the run size (``cache_budgets``), so no
        cache field exists and any unknown field raises ``TypeError``."""
        assert [field.name for field in
                dataclasses.fields(CaffeineSettings)] == [
            "population_size", "n_generations", "random_seed",
            "max_basis_functions", "max_tree_depth", "max_vc_exponent",
            "allow_negative_exponents", "expected_vc_variables",
            "enable_conditionals", "weight_exponent_bound",
            "weight_mutation_scale", "parameter_mutation_bias",
            "p_variable_combo", "p_operator_factor", "p_extra_sum_term",
            "max_initial_basis_functions", "basis_function_cost",
            "vc_exponent_cost", "function_set", "simplify_after_generation",
            "sag_min_relative_improvement", "fault_injection"]
        with pytest.raises(TypeError, match="cache_entries"):
            CaffeineSettings(cache_entries=10)


class TestGramPoolEquivalence:
    """Gram-pool fits are bit-for-bit identical to direct fit_linear fits
    (:func:`evaluate_individual_inplace`, the reference path)."""

    def _assert_same_evaluation(self, a: Individual, b: Individual):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)
            assert a.fit.residual_sum_of_squares == b.fit.residual_sum_of_squares
            assert a.fit.rank == b.fit.rank
            assert a.fit.singular == b.fit.singular

    @staticmethod
    def _direct(individuals, X, y, settings):
        for individual in individuals:
            evaluate_individual_inplace(individual, X, y, settings)

    def test_gram_matches_direct_on_random_populations(self, generator,
                                                       rational_train,
                                                       fast_settings):
        population = _random_population(generator, 25)
        reference = [ind.clone() for ind in population]
        gram = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings)
        gram.evaluate_population(population)
        self._direct(reference, rational_train.X, rational_train.y,
                     fast_settings)
        assert gram.gram_pool.n_pairs_computed > 0
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_gram_pairs_reused_across_generations(self, generator,
                                                  rational_train, fast_settings):
        """Re-evaluating overlapping individuals hits the pair pool: the
        second batch (clones refitted, since a one-entry cache also bounds
        the fit cache to one entry) computes no new pair dots."""
        population = _random_population(generator, 10)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings,
                                        cache=BasisColumnCache(1))
        evaluator.evaluate_population(population)
        pairs_after_first = evaluator.gram_pool.n_pairs_computed
        assert pairs_after_first > 0
        evaluator.evaluate_population([ind.clone() for ind in population])
        assert evaluator.gram_pool.n_pairs_computed == pairs_after_first
        assert evaluator.gram_pool.pair_hit_rate > 0.0

    def test_gram_infeasible_individuals_match_direct(self, rational_train,
                                                      fast_settings):
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        bad = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        gram = PopulationEvaluator(X, rational_train.y, fast_settings)
        a, b = bad.clone(), bad.clone()
        gram.evaluate_individual(a)
        self._direct([b], X, rational_train.y, fast_settings)
        assert not a.is_feasible and not b.is_feasible
        self._assert_same_evaluation(a, b)

    def test_gram_tiny_pool_still_correct(self, generator, rational_train,
                                          fast_settings):
        """A pool far smaller than one batch thrashes but never lies."""
        population = _random_population(generator, 12)
        reference = [ind.clone() for ind in population]
        tiny = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings)
        tiny._fit_backend.pool = GramPool(rational_train.y, max_pairs=3)
        tiny.evaluate_population(population)
        self._direct(reference, rational_train.X, rational_train.y,
                     fast_settings)
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_settings_validate_fit_backend(self):
        # Gram-pool fits and the NumPy Pareto sort are the only paths, so
        # the old backend switches are unknown fields.
        for field, value in (("fit_backend", "gram"),
                             ("pareto_backend", "numpy")):
            with pytest.raises(TypeError, match=field):
                CaffeineSettings(**{field: value})


class TestPicklableFunctionSet:
    """The default function set round-trips through pickle (so problems,
    settings and results cross ``Session(jobs > 1)`` worker processes)."""

    def test_default_function_set_round_trips(self):
        import pickle as pickle_module

        from repro.core.functions import default_function_set

        function_set = default_function_set()
        restored = pickle_module.loads(pickle_module.dumps(function_set))
        assert restored == function_set
        x = np.linspace(0.1, 2.0, 7)
        for original, copy in zip(
                function_set.unary + function_set.binary,
                restored.unary + restored.binary):
            args = (x,) * original.arity
            assert np.array_equal(original(*args), copy(*args),
                                  equal_nan=True)

    def test_operator_bearing_tree_round_trips(self, generator):
        import pickle as pickle_module

        X = np.linspace(0.5, 1.5, 12).reshape(4, 3)
        for basis in generator.random_basis_functions(4):
            restored = pickle_module.loads(pickle_module.dumps(basis))
            assert structural_key(restored) == structural_key(basis)
            assert np.array_equal(basis.evaluate(X), restored.evaluate(X),
                                  equal_nan=True)


class TestSharedColumnCache:
    """One BasisColumnCache serves several evaluators via dataset keys."""

    def test_same_data_shares_columns(self, generator, rational_train,
                                      fast_settings):
        from repro.core.evaluation import dataset_fingerprint

        population = _random_population(generator, 8)
        shared = BasisColumnCache(max_entries=5000)
        y_other = rational_train.y * 2.0 + 1.0
        first = PopulationEvaluator(rational_train.X, rational_train.y,
                                    fast_settings, cache=shared)
        second = PopulationEvaluator(rational_train.X, y_other,
                                     fast_settings, cache=shared)
        assert first.dataset_key == second.dataset_key == \
            (dataset_fingerprint(rational_train.X),
             fast_settings.function_set.fingerprint())
        first.evaluate_population([ind.clone() for ind in population])
        computed_by_first = first.n_columns_computed
        assert computed_by_first > 0
        # Same X, different target: every column comes from the shared cache.
        second.evaluate_population([ind.clone() for ind in population])
        assert second.n_columns_computed == 0
        assert second.column_hit_rate == 1.0

    def test_different_function_sets_never_collide(self, rational_train,
                                                   fast_settings):
        """Same X but a different operator binding gets its own namespace:
        structural keys identify operators by name, so cross-set sharing is
        only safe when the implementations provably match."""
        from repro.core.functions import rational_function_set

        shared = BasisColumnCache(max_entries=5000)
        full = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings, cache=shared)
        rational = PopulationEvaluator(
            rational_train.X, rational_train.y,
            fast_settings.copy(function_set=rational_function_set()),
            cache=shared)
        assert full.dataset_key != rational.dataset_key

    def test_different_data_never_collides(self, generator, rational_train,
                                           fast_settings):
        population = _random_population(generator, 6)
        shared = BasisColumnCache(max_entries=5000)
        X_other = rational_train.X * 1.5
        first = PopulationEvaluator(rational_train.X, rational_train.y,
                                    fast_settings, cache=shared)
        second = PopulationEvaluator(X_other, rational_train.y,
                                     fast_settings, cache=shared)
        assert first.dataset_key != second.dataset_key
        first.evaluate_population([ind.clone() for ind in population])
        shared_clones = [ind.clone() for ind in population]
        second.evaluate_population(shared_clones)
        # The shared cache must not have served columns evaluated on the
        # wrong X: results match a private-cache evaluation bit for bit.
        private = PopulationEvaluator(X_other, rational_train.y, fast_settings)
        private_clones = [ind.clone() for ind in population]
        private.evaluate_population(private_clones)
        assert second.n_columns_computed == private.n_columns_computed
        for a, b in zip(shared_clones, private_clones):
            assert a.error == b.error
            assert a.complexity == b.complexity


class TestEndToEndReproducibility:
    def test_cache_on_off_same_tradeoff(self, rational_train, rational_test):
        """Fixed seed => identical trade-off with the derived cache budget
        and with a one-entry cache (which misses nearly every lookup)."""
        base = CaffeineSettings(population_size=20, n_generations=4,
                                random_seed=7)
        cached = CaffeineEngine(rational_train, rational_test, base).run()
        uncached = CaffeineEngine(rational_train, rational_test, base,
                                  column_cache=BasisColumnCache(1)).run()
        assert [m.expression() for m in cached.tradeoff] == \
            [m.expression() for m in uncached.tradeoff]
        assert [m.train_error for m in cached.tradeoff] == \
            [m.train_error for m in uncached.tradeoff]

    def test_engines_sharing_one_cache_same_tradeoff(self, rational_train,
                                                     rational_test):
        """Sharing a column cache across runs never changes the models."""
        base = CaffeineSettings(population_size=20, n_generations=3,
                                random_seed=11)
        private = CaffeineEngine(rational_train, rational_test, base).run()
        shared = BasisColumnCache()
        first = CaffeineEngine(rational_train, rational_test, base,
                               column_cache=shared).run()
        second = CaffeineEngine(rational_train, rational_test, base,
                                column_cache=shared).run()
        for result in (first, second):
            assert [m.expression() for m in result.tradeoff] == \
                [m.expression() for m in private.tradeoff]

    def test_engine_cache_hits_accumulate(self, rational_train):
        settings = CaffeineSettings(population_size=20, n_generations=3,
                                    random_seed=5)
        engine = CaffeineEngine(rational_train, settings=settings)
        result = engine.run()
        assert result.n_models >= 1
        # Clones and crossover survivors re-use parental basis functions, so
        # a multi-generation run must see cache hits.
        assert engine.evaluator.cache.stats.hits > 0
        assert engine.evaluator.n_evaluated >= \
            settings.population_size * (settings.n_generations + 1)
