"""HTTP serving of frozen fronts: responses equal the offline computations.

A served ``/predict`` must return bit-for-bit what the frozen model's
``predict`` produces, and ``/rescore`` must equal
:func:`repro.core.report.rescore_models` (non-finite errors map to JSON
null).  The profiler behind ``/stats`` is tested for its percentile and
throughput arithmetic since the benchmark trajectory's ``serving`` section
is built from it.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.artifact import load_front, save_front
from repro.core.report import rescore_models
from repro.estimator import SymbolicRegressor
from repro.serve import RequestProfiler, make_server


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 2.0, size=(32, 2))
    y = 1.0 + 2.0 * X[:, 0] / X[:, 1]
    est = SymbolicRegressor(population_size=20, n_generations=3,
                            random_seed=0).fit(X, y)
    return est, X, y


@pytest.fixture(scope="module")
def server(fitted, tmp_path_factory):
    est, X, y = fitted
    path = tmp_path_factory.mktemp("serve") / "front.caffeine"
    save_front(est.result_, path)
    server = make_server(str(path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _post_status(server, path, payload) -> int:
    try:
        request = urllib.request.Request(
            server.url + path, data=json.dumps(payload).encode("utf-8"))
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


def _post_raw(server, path, body: bytes):
    """(status, parsed JSON body) of a POST with a verbatim request body."""
    request = urllib.request.Request(
        server.url + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, server):
        health = _get(server, "/healthz")
        assert health["status"] == "ok"
        assert health["n_models"] == server.front.n_models
        assert health["n_variables"] == 2
        assert health["cold_load_ms"] > 0

    def test_models_listing(self, server):
        listing = _get(server, "/models")
        assert len(listing["models"]) == server.front.n_models
        assert listing["models"][0]["expression"]
        assert listing["dataset_fingerprint"] == \
            server.front.dataset_fingerprint

    def test_predict_equals_selected_model(self, server, fitted):
        est, X, _ = fitted
        response = _post(server, "/predict", {"X": X.tolist()})
        assert response["n_rows"] == X.shape[0]
        np.testing.assert_array_equal(np.asarray(response["predictions"]),
                                      est.predict(X))
        assert response["model"]["expression"] == est.expression()

    def test_predict_all_models(self, server, fitted):
        est, X, _ = fitted
        response = _post(server, "/predict",
                         {"X": X.tolist(), "all_models": True})
        predictions = np.asarray(response["predictions"], dtype=float)
        assert predictions.shape == (server.front.n_models, X.shape[0])
        for row, model in zip(predictions, server.front.models):
            np.testing.assert_array_equal(row, model.predict(X))

    def test_predict_selection_knobs(self, server):
        front = server.front
        simplest = float(min(m.complexity for m in front.models))
        response = _post(server, "/predict",
                         {"X": [[1.0, 1.0]], "by": "train",
                          "complexity_max": simplest})
        assert response["model"]["complexity"] <= simplest
        response = _post(server, "/predict",
                         {"X": [[1.0, 1.0]], "model_index": 0})
        assert response["model"]["index"] == 0

    def test_rescore_equals_rescore_models(self, server, fitted):
        est, X, y = fitted
        response = _post(server, "/rescore",
                         {"X": X.tolist(), "y": y.tolist()})
        offline = rescore_models(list(est.pareto_front_), X, y)
        assert len(response["errors"]) == len(offline)
        for served, computed in zip(response["errors"], offline):
            if served is None:
                assert not np.isfinite(computed)
            else:
                assert served == computed

    def test_stats_accumulate(self, server):
        _post(server, "/predict", {"X": [[1.0, 1.0]]})
        stats = _get(server, "/stats")
        predict = stats["steps"]["predict"]
        assert predict["count"] >= 1
        assert predict["p50_ms"] > 0
        assert predict["rows_per_second"] > 0


class TestRejections:
    def test_missing_x(self, server):
        assert _post_status(server, "/predict", {}) == 400

    def test_feature_count_mismatch(self, server):
        assert _post_status(server, "/predict",
                            {"X": [[1.0, 2.0, 3.0]]}) == 400

    def test_unsatisfiable_complexity_bound(self, server):
        assert _post_status(server, "/predict",
                            {"X": [[1.0, 1.0]],
                             "complexity_max": -1.0}) == 400

    def test_deeply_nested_body_is_a_400(self, server):
        status, body = _post_raw(server, "/predict", b"[" * 100000)
        assert status == 400
        assert "nested too deeply" in body["error"]
        assert _get(server, "/healthz")["status"] == "ok"

    # Five spellings that float() / json.loads turn into NaN or infinity.
    @pytest.mark.parametrize("spelling", ['"nan"', '"inf"', "1e400", "NaN",
                                          "Infinity"])
    def test_non_finite_input_rejected(self, server, spelling):
        status, body = _post_raw(
            server, "/predict",
            f'{{"X": [[1.0, {spelling}]]}}'.encode())
        assert status == 400
        assert "'X'" in body["error"]
        status, body = _post_raw(
            server, "/rescore",
            f'{{"X": [[1.0, 1.0], [1.5, 1.0]], "y": [2.0, {spelling}]}}'
            .encode())
        assert status == 400
        assert "'y'" in body["error"]

    def test_unknown_paths(self, server):
        assert _post_status(server, "/nope", {"X": []}) == 404
        try:
            _get(server, "/nope")
            status = 200
        except urllib.error.HTTPError as error:
            error.read()
            status = error.code
        assert status == 404


class TestRequestProfiler:
    def test_percentiles_nearest_rank(self):
        profiler = RequestProfiler()
        for ms in range(1, 101):  # 1..100 ms
            profiler.record("step", ms / 1000.0, rows=10)
        snapshot = profiler.snapshot()["steps"]["step"]
        assert snapshot["count"] == 100
        assert snapshot["p50_ms"] == pytest.approx(50.0)
        assert snapshot["p95_ms"] == pytest.approx(95.0)
        assert snapshot["p99_ms"] == pytest.approx(99.0)
        assert snapshot["total_rows"] == 1000
        assert snapshot["rows_per_second"] == pytest.approx(
            1000 / snapshot["total_seconds"])

    def test_profile_step_context(self):
        profiler = RequestProfiler()
        with profiler.profile_step("work", rows=5):
            pass
        snapshot = profiler.snapshot()["steps"]["work"]
        assert snapshot["count"] == 1
        assert snapshot["total_rows"] == 5

    def test_sample_window_is_bounded(self):
        profiler = RequestProfiler(max_samples=8)
        for i in range(100):
            profiler.record("step", float(i))
        assert len(profiler._samples["step"]) == 8
        assert profiler.snapshot()["steps"]["step"]["count"] == 100

    def test_metrics_gauges(self):
        profiler = RequestProfiler()
        profiler.set_metric("cold_load_ms", 12.5)
        assert profiler.snapshot()["metrics"]["cold_load_ms"] == 12.5


class TestServerLoading:
    def test_make_server_accepts_front_object(self, fitted, tmp_path):
        est, X, _ = fitted
        path = tmp_path / "front.caffeine"
        save_front(est.result_, path)
        front = load_front(path)
        server = make_server(front, port=0)
        try:
            assert server.front is front
            # no cold load happened: the caller already held the front
            assert "cold_load_ms" not in \
                server.profiler.snapshot()["metrics"]
        finally:
            server.server_close()
