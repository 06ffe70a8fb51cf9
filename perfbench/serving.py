"""The serving side of the benchmark: a ``python -m repro serve`` child
process and an open-loop ``/predict`` load generator.

Load comes from this one process over at most two persistent HTTP/1.1
connections, one per thread.  Requests are due on a fixed schedule; each
is timed from the moment it was due, so a stalled connection charges its
wait to the requests queued behind it, and the send lag (sent minus due)
shows how late the generator ran.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from typing import List, Optional

import numpy as np

HEADERS = {"Content-Type": "application/json"}


class ServerProcess:
    """``python -m repro serve <artifact> --port 0`` as a child process."""

    def __init__(self, artifact_path: str, src_dir: str,
                 timeout_s: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", artifact_path,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        try:
            self.host, self.port = self._read_address(timeout_s)
            self._wait_healthy(timeout_s)
        except BaseException:
            self.stop()
            raise

    def _read_address(self, timeout_s: float):
        ready, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        line = self.process.stdout.readline() if ready else ""
        if " at http://" not in line:
            raise RuntimeError(f"server did not announce its address: {line!r}")
        host, port = line.split(" at http://")[1].split()[0].split(":")
        return host, int(port)

    def _wait_healthy(self, timeout_s: float) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str):
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


@dataclasses.dataclass
class Request:
    """One scheduled ``/predict`` call and what it asked for."""

    offset_s: float
    X: np.ndarray
    options: dict

    def body(self) -> bytes:
        """The JSON body of the ``/predict`` call."""
        return json.dumps({"X": self.X.tolist(), **self.options}).encode()


@dataclasses.dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int
    payload: Optional[bytes]

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def request_mix(rng: np.random.Generator, n: int, rate: float,
                low: np.ndarray, high: np.ndarray, complexities,
                mix: dict) -> List[Request]:
    """``n`` requests due every ``1/rate`` s, drawn as ``mix`` describes.

    Exactly ``large_share`` of them carry ``large_batch`` rows, one in
    each stretch of ``1/large_share`` requests at a random place in it, so
    costly requests never bunch up and contend with each other on the
    server.  Exactly ``all_models_share`` of each size class asks for
    every model.  Within each size class, half select ``by="test"`` and
    half ``"train"``, and half carry a ``complexity_max`` from an even grid
    over the front's range.  Only the placement and the rows are random, so
    the latency distribution -- whose percentiles fall between the clusters
    of cheap and costly models -- has the same make-up in every run.
    """
    n_large = int(round(mix["large_share"] * n))
    large = np.zeros(n, dtype=bool)
    if n_large:
        step = n // n_large
        large[np.arange(n_large) * step + rng.integers(step)] = True
    rows = np.where(large, mix["large_batch"], 1)
    options = [{} for _ in range(n)]
    for group in (np.flatnonzero(large), np.flatnonzero(~large)):
        size = len(group)
        for rank, index in enumerate(rng.permutation(group)):
            options[index]["by"] = "test" if rank % 2 else "train"
        bounded = rng.permutation(group)[:size // 2]
        grid = np.linspace(min(complexities), max(complexities), len(bounded))
        for index, bound in zip(bounded, grid, strict=True):
            options[index]["complexity_max"] = float(bound)
        for index in rng.permutation(group)[
                :int(round(mix["all_models_share"] * size))]:
            options[index]["all_models"] = True
    return [Request(index / rate,
                    rng.uniform(low, high, size=(rows[index], low.size)),
                    options[index])
            for index in range(n)]


def open_loop(server: ServerProcess, connections, requests: List[Request],
              abort_lag_s: Optional[float] = None,
              tracer=None) -> List[Optional[Outcome]]:
    """Send ``requests`` on schedule over the given connections (one thread
    each); a request not yet sent when the generator falls more than
    ``abort_lag_s`` behind is dropped from the run (its outcome is None).
    With a ``tracer``, each request becomes a ``serve.predict`` span."""
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    cursor = [0]
    stop = [False]
    lock = threading.Lock()
    errors: List[BaseException] = []
    bodies = [request.body() for request in requests]
    start = time.perf_counter() + 0.01

    def worker(slot: int) -> None:
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests) or stop[0]:
                        return
                    cursor[0] += 1
                request = requests[index]
                due = start + request.offset_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if abort_lag_s is not None and sent - due > abort_lag_s:
                    stop[0] = True
                    return
                try:
                    connection = connections[slot]
                    connection.request("POST", "/predict", bodies[index],
                                       HEADERS)
                    response = connection.getresponse()
                    status, payload = response.status, response.read()
                except (OSError, http.client.HTTPException):
                    connections[slot].close()
                    connections[slot] = server.connect()
                    status, payload = 0, None
                done = time.perf_counter()
                outcomes[index] = Outcome(due, sent, done, status, payload)
                if tracer is not None:
                    tracer.record("serve.predict", sent, done)
        except BaseException as error:  # re-raised on the calling thread
            stop[0] = True
            errors.append(error)

    helpers = [threading.Thread(target=worker, args=(slot,))
               for slot in range(1, len(connections))]
    for helper in helpers:
        helper.start()
    worker(0)
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return outcomes


def nearest_rank(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(np.ceil(fraction * len(ordered))) - 1))
    return ordered[rank]


def predict_offline(front, request: Request) -> np.ndarray:
    """The request answered by the ``FrozenFront`` in this process."""
    if request.options.get("all_models"):
        return front.predict_all(request.X)
    return front.predict(request.X, by=request.options["by"],
                         complexity_max=request.options.get("complexity_max"))


def as_payload(predictions: np.ndarray):
    """Predictions as ``/predict`` encodes them (non-finite -> None)."""
    if predictions.ndim == 2:
        return [as_payload(row) for row in predictions]
    return [float(v) if np.isfinite(v) else None for v in predictions]


def served_predictions(outcome: Outcome):
    """The predictions of a 2xx response, else None."""
    if not 200 <= outcome.status < 300:
        return None
    return json.loads(outcome.payload)["predictions"]
