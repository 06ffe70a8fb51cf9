"""Integration-level tests for the CAFFEINE engine, SAG and result models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import CaffeineEngine
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.expression import ProductTerm
from repro.core.model import TradeoffSet
from repro.core.report import (
    comparison_table,
    format_percent,
    models_table,
    target_summary_row,
    tradeoff_table,
)
from repro.core.settings import CaffeineSettings
from repro.core.simplify import simplify_individual, simplify_population
from repro.core.variable_combo import VariableCombo


class TestEngineRun:
    @pytest.fixture(scope="class")
    def result(self, rational_train, rational_test, fast_settings):
        return CaffeineEngine(rational_train, rational_test,
                              fast_settings).run()

    def test_returns_nonempty_tradeoff(self, result):
        assert result.n_models >= 2
        assert len(result.history) == result.settings.n_generations

    def test_tradeoff_is_nondominated(self, result):
        models = list(result.tradeoff)
        for a in models:
            for b in models:
                if a is b:
                    continue
                dominates = (a.train_error <= b.train_error
                             and a.complexity <= b.complexity
                             and (a.train_error < b.train_error
                                  or a.complexity < b.complexity))
                assert not dominates

    def test_training_error_decreases_with_complexity(self, result):
        models = list(result.tradeoff)
        errors = [m.train_error for m in models]
        complexities = [m.complexity for m in models]
        assert complexities == sorted(complexities)
        assert errors == sorted(errors, reverse=True)

    def test_best_model_is_accurate(self, result):
        best = result.best_model()
        assert best.train_error < 0.10  # the ground truth is expressible

    def test_history_statistics_sane(self, result):
        best_errors = [s.best_error for s in result.history]
        assert best_errors[-1] <= best_errors[0] + 1e-12
        assert all(s.n_feasible > 0 for s in result.history)

    def test_models_predict_in_original_domain(self, result, rational_test):
        best = result.best_model()
        predictions = best.predict(rational_test.X)
        assert predictions.shape == (rational_test.n_samples,)
        assert np.all(np.isfinite(predictions))

    def test_test_tradeoff_subset_of_tradeoff(self, result):
        expressions = {m.expression() for m in result.tradeoff}
        for model in result.test_tradeoff:
            assert model.expression() in expressions

    def test_reproducible_with_same_seed(self, rational_train, rational_test):
        settings = CaffeineSettings(population_size=20, n_generations=4,
                                    random_seed=7)
        first = CaffeineEngine(rational_train, rational_test, settings).run()
        second = CaffeineEngine(rational_train, rational_test, settings).run()
        assert [m.expression() for m in first.tradeoff] == \
            [m.expression() for m in second.tradeoff]

    def test_engine_rejects_mismatched_datasets(self, rational_train):
        other = rational_train.select_variables(["a", "b"])
        with pytest.raises(ValueError):
            CaffeineEngine(rational_train, test=other)

    def test_progress_callback_invoked(self, rational_train, fast_settings):
        calls = []
        settings = fast_settings.copy(n_generations=3, population_size=20)
        CaffeineEngine(rational_train, settings=settings).run(
            progress=lambda gen, stats: calls.append(gen))
        assert calls == [0, 1, 2]


class TestBestModelSelection:
    """Regression tests for the ``best_model`` by= dispatch (it used to return
    the training-error winner for *every* value of ``by``)."""

    @pytest.fixture(scope="class")
    def result(self, rational_train, rational_test, fast_settings):
        return CaffeineEngine(rational_train, rational_test,
                              fast_settings).run()

    def test_by_test_uses_test_tradeoff(self, result):
        assert len(result.test_tradeoff) > 0
        best = result.best_model(by="test")
        assert best.expression() == \
            result.test_tradeoff.most_accurate(by="test").expression()

    def test_by_train_uses_train_tradeoff(self, result):
        best = result.best_model(by="train")
        assert best.expression() == \
            result.tradeoff.most_accurate(by="train").expression()

    def test_by_test_falls_back_without_test_data(self, rational_train,
                                                  fast_settings):
        no_test = CaffeineEngine(rational_train, settings=fast_settings).run()
        assert len(no_test.test_tradeoff) == 0
        best = no_test.best_model(by="test")
        assert best.expression() == \
            no_test.tradeoff.most_accurate(by="train").expression()

    def test_unknown_by_raises(self, result):
        with pytest.raises(ValueError):
            result.best_model(by="validation")


class TestEngineEdgeCases:
    def test_collect_stats_all_infeasible(self, rational_train, fast_settings):
        """Statistics stay well-defined when no individual is feasible."""
        engine = CaffeineEngine(rational_train, settings=fast_settings)
        infeasible = Individual(bases=[ProductTerm(vc=VariableCombo((1, 0, 0)))])
        infeasible.error = float("inf")
        infeasible.fit = None
        infeasible.complexity = 10.0
        engine.population = [infeasible]
        stats = engine._collect_stats(0)
        assert stats.n_feasible == 0
        assert stats.front_size == 0
        assert stats.best_error == float("inf")
        assert stats.median_error == float("inf")
        assert stats.best_complexity == float("inf")
        assert engine.final_front() == []


class TestSimplification:
    def test_redundant_bases_are_pruned(self, rational_train, fast_settings):
        ratio = ProductTerm(vc=VariableCombo((1, -1, 0)))
        linear = ProductTerm(vc=VariableCombo((0, 0, 1)))
        # Add measurement noise so the fit is not exact; duplicated basis
        # functions then bring no predictive benefit and must be pruned.
        noisy = rational_train.with_target(
            rational_train.y
            + 0.02 * np.std(rational_train.y)
            * np.random.default_rng(0).normal(size=rational_train.n_samples))
        individual = Individual(bases=[ratio.clone(), ratio.clone(),
                                       ratio.clone(), linear])
        individual.evaluate(noisy.X, noisy.y, fast_settings)
        simplified = simplify_individual(individual, noisy.X, noisy.y,
                                         fast_settings)
        assert simplified.n_bases < individual.n_bases
        assert simplified.error <= individual.error * 1.05

    def test_noise_bases_are_pruned(self, rational_train, fast_settings):
        generator = ExpressionGenerator(3, fast_settings,
                                        rng=np.random.default_rng(3))
        useful = ProductTerm(vc=VariableCombo((1, -1, 0)))
        individual = Individual(bases=[useful] + generator.random_basis_functions(3))
        individual.evaluate(rational_train.X, rational_train.y, fast_settings)
        simplified = simplify_individual(individual, rational_train.X,
                                         rational_train.y, fast_settings)
        assert simplified.is_feasible
        assert simplified.complexity <= individual.complexity

    def test_constant_individual_passthrough(self, rational_train, fast_settings):
        individual = Individual(bases=[])
        simplified = simplify_individual(individual, rational_train.X,
                                         rational_train.y, fast_settings)
        assert simplified.n_bases == 0
        assert simplified.is_feasible

    def test_population_helper(self, rational_train, fast_settings):
        generator = ExpressionGenerator(3, fast_settings,
                                        rng=np.random.default_rng(4))
        population = [Individual(bases=generator.random_basis_functions())
                      for _ in range(5)]
        for individual in population:
            individual.evaluate(rational_train.X, rational_train.y, fast_settings)
        simplified = simplify_population(population, rational_train.X,
                                         rational_train.y, fast_settings)
        assert len(simplified) == 5


class TestTradeoffSetAndReport:
    @pytest.fixture(scope="class")
    def tradeoff(self, rational_train, rational_test, fast_settings):
        return CaffeineEngine(rational_train, rational_test,
                              fast_settings).run().tradeoff

    def test_within_error_filter(self, tradeoff):
        tight = tradeoff.within_error(0.05, 0.05)
        for model in tight:
            assert model.train_error <= 0.05
            assert model.test_error <= 0.05

    def test_simplest_and_most_accurate(self, tradeoff):
        simplest = tradeoff.simplest()
        accurate = tradeoff.most_accurate(by="train")
        assert simplest.complexity <= accurate.complexity
        assert accurate.train_error <= simplest.train_error

    def test_closest_train_error(self, tradeoff):
        target = 0.05
        chosen = tradeoff.closest_train_error(target)
        assert all(abs(chosen.train_error - target)
                   <= abs(m.train_error - target) + 1e-12 for m in tradeoff)

    def test_empty_set_raises(self):
        empty = TradeoffSet([])
        assert empty.is_empty
        with pytest.raises(ValueError):
            empty.simplest()
        with pytest.raises(ValueError):
            empty.most_accurate()

    def test_used_variables_subset(self, tradeoff):
        for model in tradeoff:
            assert set(model.used_variables()) <= set(model.variable_names)

    def test_report_tables_render(self, tradeoff):
        text = tradeoff_table(tradeoff, title="demo")
        assert "demo" in text and "complexity" in text
        listing = models_table(tradeoff, title="models")
        assert "expression" in listing
        row = target_summary_row(tradeoff.simplest())
        assert "train" in row

    def test_comparison_table_and_percent(self):
        rows = [{"target": "PM", "caffeine_train": 0.10, "caffeine_test": 0.04,
                 "posynomial_train": 0.015, "posynomial_test": 0.12}]
        text = comparison_table(rows, title="figure4")
        assert "3.00x" in text
        assert format_percent(float("nan")) == "-"
        assert format_percent(0.123) == "12.30"
