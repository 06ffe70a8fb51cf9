"""SymbolicRegressor: sklearn protocol, predictions, shim equality."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SymbolicRegressor
from repro.core.engine import CaffeineEngine
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

SETTINGS = CaffeineSettings(population_size=16, n_generations=3,
                            random_seed=4)


def _data(seed: int = 0, n: int = 50):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n, 3))
    y = 3.0 + 2.0 * X[:, 0] / X[:, 1] + 0.5 * X[:, 2]
    return X, y


class TestSklearnProtocol:
    def test_get_set_params_round_trip(self):
        est = SymbolicRegressor(population_size=33, n_generations=7)
        params = est.get_params()
        assert params["population_size"] == 33
        assert params["n_generations"] == 7
        clone = SymbolicRegressor(**params)  # sklearn.clone does exactly this
        assert clone.get_params() == params
        clone.set_params(population_size=44, random_seed=9)
        assert clone.population_size == 44
        assert clone.random_seed == 9
        with pytest.raises(ValueError, match="invalid parameter"):
            clone.set_params(n_estimators=10)

    def test_unfitted_access_raises(self):
        est = SymbolicRegressor()
        with pytest.raises(RuntimeError, match="not fitted"):
            est.predict(np.zeros((2, 3)))
        with pytest.raises(RuntimeError, match="not fitted"):
            est.expression()

    def test_bad_model_selection_rejected_at_fit(self):
        X, y = _data()
        with pytest.raises(ValueError, match="model_selection"):
            SymbolicRegressor(model_selection="best",
                              settings=SETTINGS).fit(X, y)

    def test_predict_shape_validation(self):
        X, y = _data()
        est = SymbolicRegressor(settings=SETTINGS).fit(X, y)
        with pytest.raises(ValueError, match="n_samples"):
            est.predict(np.zeros((4, 7)))


class TestFitPredict:
    def test_fit_sets_attributes_and_predicts(self):
        X, y = _data()
        est = SymbolicRegressor(settings=SETTINGS).fit(X, y)
        assert est.n_features_in_ == 3
        assert est.feature_names_in_ == ("x0", "x1", "x2")
        assert len(est.pareto_front_) >= 1
        predictions = est.predict(X)
        assert predictions.shape == (50,)
        assert np.isfinite(predictions).all()
        # A structured search on a smooth target should beat the mean.
        assert est.score(X, y) > 0.5
        assert isinstance(est.expression(), str)

    def test_validation_data_enables_test_front(self):
        X, y = _data(0)
        X_test, y_test = _data(1)
        est = SymbolicRegressor(settings=SETTINGS).fit(
            X, y, X_test=X_test, y_test=y_test)
        assert len(est.test_pareto_front_) >= 1
        assert np.isfinite(est.best_model_.test_error)

    def test_feature_names_flow_into_expressions(self):
        X, y = _data()
        est = SymbolicRegressor(settings=SETTINGS,
                                feature_names=("vgs", "ids", "vds"))
        est.fit(X, y)
        assert est.feature_names_in_ == ("vgs", "ids", "vds")
        used = set()
        for model in est.pareto_front_:
            used.update(model.used_variables())
        assert used <= {"vgs", "ids", "vds"}

    def test_log10_target_predicts_in_original_domain(self):
        X, y = _data()
        y = 10.0 ** (0.1 * y)  # strictly positive, wide-range target
        est = SymbolicRegressor(settings=SETTINGS, log10_target=True)
        est.fit(X, y)
        predictions = est.predict(X)
        assert (predictions > 0).all()  # back-transformed via 10^(...)

    def test_column_cache_path_does_not_change_models(self, tmp_path):
        X, y = _data()
        plain = SymbolicRegressor(settings=SETTINGS).fit(X, y)
        cached = SymbolicRegressor(
            settings=SETTINGS,
            column_cache_path=str(tmp_path / "cols.cache")).fit(X, y)
        warm = SymbolicRegressor(
            settings=SETTINGS,
            column_cache_path=str(tmp_path / "cols.cache")).fit(X, y)
        for other in (cached, warm):
            assert ([m.train_error for m in plain.pareto_front_]
                    == [m.train_error for m in other.pareto_front_])


class TestShimEquality:
    def test_estimator_matches_engine(self):
        """Fixed-seed bit-for-bit equality of the facade and a bare engine."""
        X, y = _data()
        X_test, y_test = _data(1)
        est = SymbolicRegressor(settings=SETTINGS).fit(
            X, y, X_test=X_test, y_test=y_test)

        train = Dataset(X, y, variable_names=("x0", "x1", "x2"))
        test = Dataset(X_test, y_test, variable_names=("x0", "x1", "x2"))
        engine = CaffeineEngine(train, test, settings=SETTINGS).run()

        assert ([(m.train_error, m.test_error, m.complexity, m.expression())
                 for m in engine.tradeoff]
                == [(m.train_error, m.test_error, m.complexity,
                     m.expression())
                    for m in est.pareto_front_])
        assert (engine.best_model().expression()
                == est.best_model_.expression())

    def test_individual_params_build_matching_settings(self):
        X, y = _data()
        est = SymbolicRegressor(population_size=16, n_generations=3,
                                random_seed=4, max_basis_functions=15,
                                max_tree_depth=8).fit(X, y)
        reference = SymbolicRegressor(settings=SETTINGS).fit(X, y)
        assert ([m.train_error for m in est.pareto_front_]
                == [m.train_error for m in reference.pareto_front_])
