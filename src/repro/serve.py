"""Stdlib HTTP prediction service over a frozen Pareto front.

``python -m repro serve artifact.bin --port 8000`` loads a
:class:`~repro.core.artifact.FrozenFront` and answers batched prediction
requests -- stateless, thread-per-request
(:class:`http.server.ThreadingHTTPServer`), no dependencies beyond the
standard library, so instances shard horizontally behind any balancer.

Endpoints (all JSON):

* ``GET /healthz`` -- liveness: target name, model count, cold-load ms.
* ``GET /models`` -- the trade-off's per-model metadata (complexity,
  train/test error, expression), i.e. what a designer picks from.
* ``GET /stats`` -- per-step latency percentiles and throughput from the
  in-process :class:`RequestProfiler` (p50/p95/p99 ms, rows/sec).
* ``POST /predict`` -- body ``{"X": [[...], ...]}`` plus optional model
  selection: ``"model_index"``, or ``"complexity_max"`` and/or ``"by"``
  (``"test"``/``"train"``), the
  :meth:`~repro.core.artifact.FrozenFront.select` contract.  With
  ``"all_models": true`` the response carries one prediction row per
  frozen model.  Predictions run through the batched kernel path
  (:func:`~repro.regression.least_squares.predict_linear_batch`) and are
  bit-identical to the originating run's models.
* ``POST /rescore`` -- body ``{"X": ..., "y": ...}``: per-model relative
  RMS errors on the posted data, bit-for-bit
  :func:`repro.core.report.rescore_models` (asserted by the test suite
  and the ``serving-smoke`` CI job).

Requests whose feature count disagrees with the artifact, or whose ``X``
or ``y`` holds a non-finite value (``NaN``, ``Infinity``, ``"nan"``,
``1e400``, ...), are rejected with HTTP 400, as is any body that is not a
JSON object (including one nested too deeply to parse).  Everything else
about the posted data is the caller's business -- a frozen front exists to
be applied to data it has never seen.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.artifact import FrozenFront, load_front

__all__ = ["RequestProfiler", "FrontHTTPServer", "make_server", "serve_front"]


def _percentile_ms(sorted_seconds: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted sample list, in milliseconds."""
    if not sorted_seconds:
        return float("nan")
    rank = max(0, min(len(sorted_seconds) - 1,
                      int(np.ceil(fraction * len(sorted_seconds))) - 1))
    return 1000.0 * sorted_seconds[rank]


class RequestProfiler:
    """Thread-safe per-step timing: latency percentiles and throughput.

    Each :meth:`profile_step` context manager records one duration (and the
    number of data rows it covered) under a step name; :meth:`snapshot`
    reduces every step's samples to count, p50/p95/p99 latency and rows/sec
    -- the numbers the ``serving`` section of the benchmark trajectory and
    the ``GET /stats`` endpoint report.  Bounded memory: only the newest
    ``max_samples`` durations per step are retained (counters keep exact
    totals).
    """

    def __init__(self, max_samples: int = 4096) -> None:
        self.max_samples = int(max_samples)
        self._lock = threading.Lock()
        self._samples: Dict[str, List[float]] = {}
        self._counts: Dict[str, int] = {}
        self._rows: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}
        self._metrics: Dict[str, float] = {}

    @contextmanager
    def profile_step(self, name: str, rows: int = 0):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - started, rows=rows)

    def record(self, name: str, seconds: float, rows: int = 0) -> None:
        with self._lock:
            samples = self._samples.setdefault(name, [])
            samples.append(float(seconds))
            if len(samples) > self.max_samples:
                del samples[: len(samples) - self.max_samples]
            self._counts[name] = self._counts.get(name, 0) + 1
            self._rows[name] = self._rows.get(name, 0) + int(rows)
            self._seconds[name] = self._seconds.get(name, 0.0) + float(seconds)

    def set_metric(self, name: str, value: float) -> None:
        """Record a one-off gauge (e.g. ``cold_load_ms``)."""
        with self._lock:
            self._metrics[name] = float(value)

    def snapshot(self) -> dict:
        """JSON-ready summary of every step and gauge recorded so far."""
        with self._lock:
            steps = {}
            for name, samples in self._samples.items():
                ordered = sorted(samples)
                total_seconds = self._seconds[name]
                total_rows = self._rows[name]
                steps[name] = {
                    "count": self._counts[name],
                    "total_rows": total_rows,
                    "total_seconds": total_seconds,
                    "p50_ms": _percentile_ms(ordered, 0.50),
                    "p95_ms": _percentile_ms(ordered, 0.95),
                    "p99_ms": _percentile_ms(ordered, 0.99),
                    "rows_per_second": (total_rows / total_seconds
                                        if total_seconds > 0 and total_rows
                                        else 0.0),
                }
            return {"steps": steps, "metrics": dict(self._metrics)}


# ----------------------------------------------------------------------
class FrontHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one frozen front."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], front: FrozenFront,
                 profiler: Optional[RequestProfiler] = None,
                 quiet: bool = True) -> None:
        self.front = front
        self.profiler = profiler if profiler is not None else RequestProfiler()
        self.quiet = quiet
        super().__init__(address, _FrontRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _FrontRequestHandler(BaseHTTPRequestHandler):
    server_version = "caffeine-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - cosmetic
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body is empty (send a JSON object)")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except RecursionError:
            raise ValueError("request body is nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    @staticmethod
    def _finite_array(payload: dict, key: str) -> np.ndarray:
        values = payload.get(key)
        if values is None:
            raise ValueError(f"request body is missing {key!r}")
        array = np.asarray(values, dtype=float)
        if not np.isfinite(array).all():
            raise ValueError(f"{key!r} holds non-finite values "
                             "(NaN or infinity); send finite numbers")
        return array

    @classmethod
    def _matrix(cls, payload: dict, key: str, n_variables: int) -> np.ndarray:
        X = cls._finite_array(payload, key)
        if X.ndim == 1 and n_variables == 1:
            X = X.reshape(-1, 1)
        return X

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        front = self.server.front
        if self.path == "/healthz":
            stats = self.server.profiler.snapshot()
            self._send_json({
                "status": "ok",
                "target": front.target_name,
                "n_models": front.n_models,
                "n_variables": front.n_variables,
                "cold_load_ms": stats["metrics"].get("cold_load_ms"),
            })
        elif self.path == "/models":
            self._send_json({
                "target": front.target_name,
                "variable_names": list(front.variable_names),
                "dataset_fingerprint": front.dataset_fingerprint,
                "models": front.describe(),
            })
        elif self.path == "/stats":
            self._send_json(self.server.profiler.snapshot())
        else:
            self._send_json({"error": f"unknown path {self.path!r}"},
                            status=404)

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        front = self.server.front
        profiler = self.server.profiler
        try:
            payload = self._read_json()
            if self.path == "/predict":
                X = self._matrix(payload, "X", front.n_variables)
                with profiler.profile_step("predict", rows=X.shape[0]
                                           if X.ndim == 2 else 0):
                    response = self._predict(front, payload, X)
            elif self.path == "/rescore":
                X = self._matrix(payload, "X", front.n_variables)
                y = self._finite_array(payload, "y")
                with profiler.profile_step("rescore", rows=X.shape[0]
                                           if X.ndim == 2 else 0):
                    errors = front.rescore(X, y)
                    response = {"target": front.target_name,
                                "n_rows": int(X.shape[0]),
                                "errors": [_jsonable(e) for e in errors]}
            else:
                self._send_json({"error": f"unknown path {self.path!r}"},
                                status=404)
                return
        except (ValueError, TypeError, json.JSONDecodeError) as error:
            self._send_json({"error": str(error)}, status=400)
            return
        self._send_json(response)

    @staticmethod
    def _predict(front: FrozenFront, payload: dict, X: np.ndarray) -> dict:
        complexity_max = payload.get("complexity_max")
        by = payload.get("by", "test")
        model_index = payload.get("model_index")
        if payload.get("all_models"):
            predictions = front.predict_all(X)
            return {
                "target": front.target_name,
                "n_rows": int(X.shape[0]),
                "models": front.describe(),
                "predictions": [[_jsonable(v) for v in row]
                                for row in predictions],
            }
        model = front.select(by=by, complexity_max=complexity_max,
                             model_index=model_index)
        predictions = front.predict(X, by=by, complexity_max=complexity_max,
                                    model_index=model_index)
        return {
            "target": front.target_name,
            "n_rows": int(X.shape[0]),
            "model": {
                "index": next(i for i, m in enumerate(front.models)
                              if m is model),
                "complexity": float(model.complexity),
                "train_error": float(model.train_error),
                "test_error": _jsonable(model.test_error),
                "expression": model.expression(),
            },
            "predictions": [_jsonable(v) for v in predictions],
        }


def _jsonable(value: float) -> Optional[float]:
    """Strict-JSON scalar: non-finite floats become None (JSON null)."""
    value = float(value)
    return value if np.isfinite(value) else None


# ----------------------------------------------------------------------
def make_server(front: Union[FrozenFront, str], host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> FrontHTTPServer:
    """Build (but do not start) a server; ``port=0`` picks a free port.

    ``front`` may be a loaded :class:`FrozenFront` or an artifact path; a
    path is loaded here with the load time recorded as the profiler's
    ``cold_load_ms`` gauge.  Call ``serve_forever()`` (typically on a
    thread) and ``shutdown()``/``server_close()`` when done.
    """
    profiler = RequestProfiler()
    if not isinstance(front, FrozenFront):
        started = time.perf_counter()
        front = load_front(front)
        profiler.set_metric("cold_load_ms",
                            1000.0 * (time.perf_counter() - started))
    server = FrontHTTPServer((host, port), front, profiler=profiler,
                             quiet=quiet)
    return server


def serve_front(path: Union[FrozenFront, str], host: str = "127.0.0.1",
                port: int = 8000, quiet: bool = False) -> None:
    """Blocking CLI entry point behind ``python -m repro serve``."""
    server = make_server(path, host=host, port=port, quiet=quiet)
    front = server.front
    print(f"Serving {front.target_name!r} ({front.n_models} models, "
          f"{front.n_variables} variables) at {server.url}")
    print("Endpoints: GET /healthz /models /stats; POST /predict /rescore")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
