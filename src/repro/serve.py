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
  frozen model.  Predictions run through the artifact's batched
  prediction path (shared basis columns, one
  :func:`~repro.regression.least_squares.predict_linear_batch` pass per
  basis width) and are bit-identical to the originating run's models.
* ``POST /rescore`` -- body ``{"X": ..., "y": ...}``: per-model relative
  RMS errors on the posted data, bit-for-bit
  :func:`repro.core.report.rescore_models` (asserted by the test suite
  and the ``serving-smoke`` CI job).

Requests whose feature count disagrees with the artifact, or whose ``X``
or ``y`` holds a non-finite value (``NaN``, ``Infinity``, ``"nan"``,
``1e400``, an integer beyond float range, ...), are rejected with HTTP 400,
as is any body that is not a JSON object (including one nested too deeply
to parse) and a missing, negative or non-integer ``Content-Length``.  A
``Content-Length`` above :data:`MAX_BODY_BYTES` is answered 413 without
reading the body, and a client that stalls mid-body for
:data:`BODY_TIMEOUT_S` seconds gets a 408; after any of these framing
errors the connection closes.  The idle wait between kept-alive requests
has no limit.  Any other exception a handler raises becomes a JSON 500, so
a client never sees a dropped connection.  Everything else about the
posted data is the caller's business -- a frozen front exists to be
applied to data it has never seen.
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

__all__ = ["RequestProfiler", "FrontHTTPServer", "make_server", "serve_front",
           "MAX_BODY_BYTES", "BODY_TIMEOUT_S"]

#: Largest request body read, in bytes.  The biggest real request -- 1000
#: rows x 13 features -- is about 0.3 MB of JSON.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a client may take to deliver the body it declared.
BODY_TIMEOUT_S = 30.0


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


class _RequestError(Exception):
    """A request answered with ``status`` and a JSON error message.

    ``close`` ends the connection after the response: set when the body's
    framing is unknown (or unread), so leftover bytes cannot be parsed as
    the next request.
    """

    def __init__(self, message: str, status: int = 400,
                 close: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


class _FrontRequestHandler(BaseHTTPRequestHandler):
    server_version = "caffeine-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - cosmetic
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int = 200,
                   close: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _respond(self, route) -> None:
        """Send ``route()``'s payload, or a JSON error for whatever it raised."""
        try:
            response = route()
        except _RequestError as error:
            self._send_json({"error": str(error)}, status=error.status,
                            close=error.close)
        except (ValueError, TypeError) as error:
            self._send_json({"error": str(error)}, status=400)
        except Exception as error:
            # A handler bug: log its traceback the way socketserver logs
            # one, and answer instead of dropping the connection.
            self.server.handle_error(self.request, self.client_address)
            self._send_json({"error": f"internal error: "
                                      f"{type(error).__name__}: {error}"},
                            status=500, close=True)
        else:
            self._send_json(response)

    def _content_length(self) -> int:
        declared = self.headers.get("Content-Length")
        if declared is None:
            raise _RequestError("request has no Content-Length (send a JSON "
                                "object with its length)", close=True)
        try:
            length = int(declared)
        except ValueError:
            raise _RequestError(f"Content-Length {declared!r} is not an "
                                "integer", close=True) from None
        if length < 0:
            raise _RequestError(f"Content-Length {length} is negative",
                                close=True)
        if length > MAX_BODY_BYTES:
            raise _RequestError(f"request body of {length} bytes exceeds the "
                                f"{MAX_BODY_BYTES}-byte limit", status=413,
                                close=True)
        if length == 0:
            raise _RequestError("request body is empty (send a JSON object)")
        return length

    def _read_json(self) -> dict:
        length = self._content_length()
        # Only the body read is timed: the idle wait for the next request
        # on a kept-alive connection stays unbounded.
        self.connection.settimeout(BODY_TIMEOUT_S)
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise _RequestError(f"request body not received within "
                                f"{BODY_TIMEOUT_S:g} s", status=408,
                                close=True) from None
        finally:
            self.connection.settimeout(None)
        if len(body) < length:
            raise _RequestError("request body ended before its "
                                "Content-Length", close=True)
        try:
            payload = json.loads(body.decode("utf-8"))
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
        message = (f"{key!r} holds non-finite values (NaN, infinity or "
                   "beyond float range); send finite numbers")
        try:
            array = np.asarray(values, dtype=float)
        except OverflowError:  # an integer literal beyond float range
            raise ValueError(message) from None
        if not np.isfinite(array).all():
            raise ValueError(message)
        return array

    @classmethod
    def _matrix(cls, payload: dict, key: str, n_variables: int) -> np.ndarray:
        X = cls._finite_array(payload, key)
        if X.ndim == 1 and n_variables == 1:
            X = X.reshape(-1, 1)
        return X

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._respond(self._get)

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        self._respond(self._post)

    def _get(self) -> dict:
        front = self.server.front
        if self.path == "/healthz":
            stats = self.server.profiler.snapshot()
            return {
                "status": "ok",
                "target": front.target_name,
                "n_models": front.n_models,
                "n_variables": front.n_variables,
                "cold_load_ms": stats["metrics"].get("cold_load_ms"),
            }
        if self.path == "/models":
            return {
                "target": front.target_name,
                "variable_names": list(front.variable_names),
                "dataset_fingerprint": front.dataset_fingerprint,
                "models": front.describe(),
            }
        if self.path == "/stats":
            return self.server.profiler.snapshot()
        raise _RequestError(f"unknown path {self.path!r}", status=404)

    def _post(self) -> dict:
        front = self.server.front
        profiler = self.server.profiler
        payload = self._read_json()
        if self.path not in ("/predict", "/rescore"):
            raise _RequestError(f"unknown path {self.path!r}", status=404)
        X = self._matrix(payload, "X", front.n_variables)
        rows = X.shape[0] if X.ndim == 2 else 0
        if self.path == "/predict":
            with profiler.profile_step("predict", rows=rows):
                return self._predict(front, payload, X)
        y = self._finite_array(payload, "y")
        with profiler.profile_step("rescore", rows=rows):
            errors = front.rescore(X, y)
            return {"target": front.target_name,
                    "n_rows": int(X.shape[0]),
                    "errors": [_jsonable(e) for e in errors]}

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
