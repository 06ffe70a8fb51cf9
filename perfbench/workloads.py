"""The four benchmark workloads, driven only through repro's public entry
points: ``CaffeineEngine.run``, ``Session.run``, ``save_front`` /
``load_front`` and ``python -m repro serve``.

Every workload takes its inputs from the run's seed.  A search workload
repeats its search on several sub-seeds derived from that seed (more work
per run, so one run's median says more than one search would), then runs
the first sub-seed once more; the records file checks that every search of
one sub-seed -- in this process, in earlier processes, traced or not --
yields the same front fingerprint and the same deterministic counts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core.artifact as artifact
from repro import CaffeineEngine, CaffeineSettings, Problem, Session
from repro.core.expression import structural_key
from repro.core.session import SessionCallback
from repro.experiments.setup import generate_ota_datasets

import layers
import serving
from spans import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
clock = time.perf_counter


def sub_seeds(seed: int, count: int) -> List[int]:
    """``count`` engine seeds derived from the run's seed."""
    return [int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
            for index in range(count)]


def front_fingerprint(results) -> str:
    """sha256 over each front's errors, complexities and structural keys."""
    digest = hashlib.sha256()
    for result in results:
        for model in result.tradeoff:
            digest.update(repr((
                model.train_error, model.complexity,
                tuple(repr(structural_key(basis)) for basis in model.bases),
            )).encode())
    return digest.hexdigest()


def front_ok(result) -> bool:
    """Non-empty, finite train errors, and no model dominates another."""
    points = [(m.train_error, m.complexity) for m in result.tradeoff]
    if not points or not all(math.isfinite(e) for e, _ in points):
        return False
    return not any(a[0] <= b[0] and a[1] <= b[1] and a != b
                   for a in points for b in points)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blas_threads() -> Optional[int]:
    """OpenBLAS's thread count as loaded by numpy, when it can be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def code_identity() -> str:
    """sha256 of the library sources: records never mix two versions."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Records:
    """Per-seed fingerprints and counts, kept across benchmark processes."""

    def __init__(self, path: pathlib.Path, scope: str) -> None:
        self.path = path
        self.scope = scope

    def check(self, key: str, values: Dict[str, object]) -> bool:
        """True when ``values`` agree with what was first recorded under
        ``key``; names not seen before are recorded."""
        data = json.loads(self.path.read_text()) if self.path.exists() else {}
        entry = data.setdefault(f"{self.scope}|{key}", {})
        agree = all([entry.setdefault(name, value) == value
                     for name, value in values.items()])
        staged = self.path.with_suffix(".tmp")
        staged.write_text(json.dumps(data, sort_keys=True))
        os.replace(staged, self.path)
        return agree


class Run:
    """One benchmark invocation: parameters, checks and collected numbers."""

    def __init__(self, name: str, config: dict, seed: int, seconds: float,
                 trace: bool) -> None:
        self.name = name
        self.config = config
        self.params = config["workloads"][name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.lines: List[str] = []
        OUT_DIR.mkdir(exist_ok=True)
        self.records = Records(OUT_DIR / "records.json",
                               f"{code_identity()}|{name}")
        self.rng = np.random.default_rng([seed, 1])

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.lines.append(f"CHECK FAILED: {what}")

    def plan(self) -> List[tuple]:
        """(sub-seed, traced) per search repetition.

        Untraced: as many distinct sub-seeds as ``seconds`` holds at the
        workload's nominal repetition time, then the first one again.
        Traced: the first sub-seed, alternating untraced and traced.
        """
        fits = max(2, int(self.seconds // self.params["nominal_rep_s"]))
        if self.trace:
            first = sub_seeds(self.seed, 1)[0]
            return [(first, bool(i % 2)) for i in range(fits - fits % 2)]
        seeds = sub_seeds(self.seed, fits - 1)
        return [(s, False) for s in seeds] + [(seeds[0], False)]

    def write_spans(self, tracer: Tracer, part: str) -> None:
        tracer.write_jsonl(OUT_DIR / f"{self.name}.{part}.spans.jsonl")


def settings_for(params: dict, seed: int) -> CaffeineSettings:
    return CaffeineSettings(population_size=params["population_size"],
                            n_generations=params["n_generations"],
                            max_basis_functions=params["max_basis_functions"],
                            random_seed=seed)


def median(values) -> float:
    return float(statistics.median(values))


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over samples; counts stay whole numbers."""
    merged = {}
    for name, first in samples[0].items():
        values = [sample[name] for sample in samples]
        merged[name] = (statistics.median_low(values)
                        if isinstance(first, int) else median(values))
    return merged


@contextmanager
def frozen_heap():
    """Keep the cyclic collector off everything allocated so far.

    Prediction latency is timed in this process after the searches have
    left a large heap behind; a full collection over that heap would land
    on whichever request happened to trigger it.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def add_layer_self_times(metrics: Dict[str, float], tracer: Tracer) -> None:
    for name, seconds in layers.layer_self_times(tracer).items():
        metrics[name] = metrics.get(name, 0.0) + seconds


# ----------------------------------------------------------------------
# the reference front: searched, frozen, loaded (every workload)
# ----------------------------------------------------------------------
class ReferenceFront:
    """The fixed-seed PM front every workload predicts with."""

    def __init__(self, run: Run) -> None:
        self.spec = run.config["reference_front"]
        self.path = OUT_DIR / f"{run.name}.caffeine"
        self.train, self.test = generate_ota_datasets().for_target(
            self.spec["target"])

    def search(self, callbacks=()) -> tuple:
        """``Session.run`` of the reference search: (result, outcome, seconds)."""
        session = Session([Problem(self.train, self.test,
                                   name=self.spec["target"])],
                          settings=settings_for(self.spec, self.spec["seed"]),
                          callbacks=list(callbacks))
        start = clock()
        outcome = session.run()
        return outcome.single(), outcome, clock() - start

    def freeze(self, run: Run, result) -> float:
        """``save_front`` the result; returns the seconds it took."""
        start = clock()
        artifact.save_front(result, self.path)
        saved_s = clock() - start
        run.check(front_ok(result), "reference front is nondominated with "
                  "finite train errors")
        run.check(run.records.check("reference", {
            "fingerprint": front_fingerprint([result])}),
            "reference search repeats its front exactly")
        return saved_s

    def load(self, run: Run, result) -> tuple:
        """``load_front`` it back and check the round trip: (front, seconds)."""
        start = clock()
        front = artifact.load_front(self.path)
        loaded_s = clock() - start
        X = self.test.X
        run.check(np.array_equal(front.predict(X),
                                 result.best_model().predict(X),
                                 equal_nan=True),
                  "frozen front predicts exactly like the live best model")
        return front, loaded_s

    def requests(self, run: Run, front, n: int, rate: float,
                 large_share: Optional[float] = None):
        mix = dict(run.config["request_mix"])
        if large_share is not None:
            mix["large_share"] = large_share
        return serving.request_mix(
            run.rng, n, rate, self.train.X.min(axis=0),
            self.train.X.max(axis=0), [m.complexity for m in front.models],
            mix)


class ReferenceProbe:
    """Offline closed-loop predictions of the request mix on the reference
    front -- what ``predict_*`` means on the search workloads.

    A few slices of requests are answered after each search repetition,
    so the latencies sample the same stretch of time as ``run_s``.
    ``predict_p50_ms`` is the mean of the per-slice medians and the rate
    counts every request answered over the time spent answering them: a shared
    2-vCPU VM alternates between CPU speeds about 1.6x apart, and a median
    over slices flips with whichever speed held in most of them.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.tracer = Tracer(f"{run.name}-{run.seed}-probe") if run.trace \
            else None
        with self.tracing():
            self.reference = ReferenceFront(run)
            result, _, _ = self.reference.search()
            self.saved_s = self.reference.freeze(run, result)
            self.front, self.loaded_s = self.reference.load(run, result)
        self.slices: List[List[float]] = []
        self.rows = 0

    @contextmanager
    def tracing(self):
        if self.tracer is not None:
            layers.install_artifact(self.tracer)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.restore()

    def answer_slice(self) -> None:
        """Answer one freshly drawn slice of the request mix."""
        requests = self.reference.requests(
            self.run, self.front, self.run.config["probe_slice_requests"], 1.0)
        latencies = []
        with self.tracing(), frozen_heap():
            for request in requests:
                start = clock()
                serving.predict_offline(self.front, request)
                latencies.append(clock() - start)
                self.rows += len(request.X)
        self.slices.append(latencies)

    def metrics(self) -> Dict[str, float]:
        if self.tracer is None:
            return {
                "predict_p50_ms": 1e3 * statistics.fmean(
                    serving.nearest_rank(s, 0.50) for s in self.slices),
                "predict_max_rps": sum(map(len, self.slices))
                / sum(map(sum, self.slices)),
            }
        self.run.write_spans(self.tracer, "probe")
        metrics = {"artifact.save_s": self.saved_s,
                   "artifact.load_ms": 1e3 * self.loaded_s,
                   "artifact.predict_us_per_row": 1e6 * sum(
                       sum(s) for s in self.slices) / self.rows}
        add_layer_self_times(metrics, self.tracer)
        return metrics


# ----------------------------------------------------------------------
# session observation (public callbacks only)
# ----------------------------------------------------------------------
class SessionObserver(SessionCallback):
    """Callback timestamps and retries of one ``Session.run``."""

    def __init__(self) -> None:
        self.started = None
        self.end_times: List[float] = []
        self.retries = 0

    def on_session_start(self, problems) -> None:
        self.started = clock()

    def on_problem_end(self, problem, result, index, total) -> None:
        self.end_times.append(clock())

    def on_problem_retry(self, problem, failure, delay) -> None:
        self.retries += 1

    def metrics(self, outcome, wall_s: float) -> Dict[str, float]:
        problem_s = sum(outcome[name].runtime_seconds for name in outcome.names)
        workers = min(outcome.jobs, len(outcome.names))
        return {
            "session.problem_s": problem_s,
            "session.worker_busy_frac": problem_s / (workers * wall_s),
            "session.overhead_s": workers * wall_s - problem_s,
            "session.retries": self.retries,
            "session.first_end_callback_frac":
                (min(self.end_times) - self.started) / wall_s,
        }


# ----------------------------------------------------------------------
# search workloads
# ----------------------------------------------------------------------
class EngineSearch:
    """One ``CaffeineEngine.run`` per repetition (pm-pop1000, wide-20k)."""

    root_span = "core.engine.run"
    install = staticmethod(layers.install_search)

    def __init__(self, make_data: Callable[[], tuple]) -> None:
        self.make_data = make_data

    def prepare(self, run: Run) -> None:
        self.train, self.test = self.make_data()

    def build(self, run: Run, sub_seed: int):
        return CaffeineEngine(self.train, self.test,
                              settings=settings_for(run.params, sub_seed))

    def go(self, run: Run, engine) -> tuple:
        """(results, extra per-layer metrics, counts any untraced run sees)."""
        result = engine.run()
        evaluator = engine.evaluator
        return [result], {}, {
            "evaluation.columns_computed": evaluator.n_columns_computed,
            "evaluation.fits_computed": evaluator.n_fits_computed,
            "evaluation.gram_pairs_computed":
                evaluator.gram_pool.n_pairs_computed}


class SweepSearch:
    """One ``Session(jobs=2).run`` over the six OTA targets per repetition."""

    root_span = "core.session.run"

    @staticmethod
    def install(tracer: Tracer, instruments: layers.Instruments) -> None:
        # the engines run in worker processes, out of the tracer's reach
        layers.install_session(tracer)

    def prepare(self, run: Run) -> None:
        datasets = generate_ota_datasets()
        self.problems = [Problem(*datasets.for_target(name), name=name)
                         for name in datasets.performance_names]

    def build(self, run: Run, sub_seed: int):
        self.observer = SessionObserver()
        return Session(self.problems, settings=settings_for(run.params,
                                                            sub_seed),
                       jobs=run.params["jobs"], callbacks=[self.observer])

    def go(self, run: Run, session) -> tuple:
        start = clock()
        outcome = session.run()
        wall_s = clock() - start
        run.check(outcome.complete and not outcome.failures,
                  "Session.run completed every problem")
        results = [outcome[name] for name in outcome.names]
        return results, self.observer.metrics(outcome, wall_s), {}


def search_workload(run: Run, search) -> Dict[str, float]:
    """Set up, repeat the search over the plan, check, reduce.

    The inputs are rebuilt (identically) a few times before every
    repetition, so the set-up samples are spread over the run like the
    searches are.
    """
    prepare_s, build_s = [], []
    probe = ReferenceProbe(run)
    plan = run.plan()
    untraced_s, traced_s, errors, layer_samples = [], [], [], []
    began = clock()
    for index, (sub_seed, traced) in enumerate(plan):
        if index >= 2 and clock() - began > 2 * run.seconds:
            run.lines.append("stopped repeating: twice --seconds has passed")
            break
        tracer = Tracer(f"{run.name}-{run.seed}-{sub_seed}") if traced \
            else None
        for _ in range(run.config["setup_repeats"]):
            start = clock()
            search.prepare(run)
            prepare_s.append(clock() - start)
        instruments = layers.Instruments()
        if tracer is not None:
            search.install(tracer, instruments)
        try:
            start = clock()
            built = search.build(run, sub_seed)
            build_s.append(clock() - start)
            start = clock()
            results, extra, counts = search.go(run, built)
            elapsed = clock() - start
        finally:
            if tracer is not None:
                tracer.restore()
        (traced_s if traced else untraced_s).append(elapsed)
        errors.append(statistics.fmean(
            100.0 * r.best_model().test_error for r in results))
        for result in results:
            run.check(front_ok(result), f"front of sub-seed {sub_seed} is "
                      "nondominated with finite train errors")
        record = {"fingerprint": front_fingerprint(results), **counts}
        if tracer is not None:
            sample = layers.search_metrics(tracer, instruments,
                                           search.root_span)
            sample.update(extra)
            layer_samples.append(sample)
            record.update(layers.deterministic_counts(sample))
            run.write_spans(tracer, "search")
        run.check(run.records.check(str(sub_seed), record),
                  f"sub-seed {sub_seed} repeats its front and counts exactly")
        run.lines.append(
            f"sub-seed {sub_seed:>10} {'traced' if traced else 'plain '} "
            f"run {elapsed:7.3f} s  best test error {errors[-1]:6.3f} %  "
            f"fingerprint {record['fingerprint'][:12]}")
        for _ in range(run.config["probe_slices_per_search"]):
            probe.answer_slice()
    run.lines.append(f"front_test_error (mean over runs): "
                     f"{statistics.fmean(errors):.4f} %")
    run.lines.append(
        f"samples: run_s median of {len(untraced_s)} searches, setup_s "
        f"medians of {len(prepare_s)} input builds + {len(build_s)} "
        f"constructions, predict_* over {len(probe.slices)} slices of "
        f"{run.config['probe_slice_requests']} requests")
    if not run.trace:
        return {"setup_s": median(prepare_s) + median(build_s),
                "run_s": median(untraced_s),
                "peak_rss_mb": peak_rss_mb(), **probe.metrics()}
    metrics = median_metrics(layer_samples)
    for name, value in probe.metrics().items():
        metrics[name] = metrics.get(name, 0.0) + value
    metrics["model.front_test_error_pct"] = statistics.fmean(errors)
    metrics["trace.overhead_frac"] = median(traced_s) / median(untraced_s) - 1
    return metrics


def pm_pop1000(run: Run) -> Dict[str, float]:
    def make_data():
        return generate_ota_datasets().for_target(run.params["target"])
    return search_workload(run, EngineSearch(make_data))


def wide_20k(run: Run) -> Dict[str, float]:
    p = run.params

    def make_data():
        rng = np.random.default_rng([run.seed, 20000])
        n = p["n_train"] + p["n_test"]
        X = rng.uniform(p["low"], p["high"], size=(n, p["n_variables"]))
        y = (3.0 + 2.0 * X[:, 0] / X[:, 1] + 0.5 * X[:, 2] * X[:, 3] ** 2
             - 1.5 * np.log(X[:, 4]) + 0.8 * np.sqrt(X[:, 5]) / X[:, 6])
        y = y * (1.0 + p["noise"] * rng.standard_normal(n))
        cut = p["n_train"]
        problem = Problem.from_arrays(X[:cut], y[:cut], X_test=X[cut:],
                                      y_test=y[cut:], target_name="y")
        return problem.train, problem.test
    return search_workload(run, EngineSearch(make_data))


def ota_sweep_j2(run: Run) -> Dict[str, float]:
    return search_workload(run, SweepSearch())


# ----------------------------------------------------------------------
# serving workload
# ----------------------------------------------------------------------
def serve_mixed(run: Run) -> Dict[str, float]:
    # traced runs alternate untraced and traced set-ups for the overhead
    setup_plan = [run.trace and bool(i % 2)
                  for i in range(run.config["setup_repeats"])]
    setup_s, search_s, traced_s, save_s, samples = [], [], [], [], []
    server = None
    try:
        for traced in setup_plan:
            if server is not None:
                server.stop()
                server = None
            tracer = Tracer(f"{run.name}-{run.seed}-setup") if traced \
                else None
            instruments = layers.Instruments()
            if tracer is not None:
                layers.install_search(tracer, instruments)
            observer = SessionObserver()
            try:
                start = clock()
                reference = ReferenceFront(run)
                result, outcome, searched = reference.search([observer])
                save_s.append(reference.freeze(run, result))
                server = serving.ServerProcess(str(reference.path), str(SRC))
                setup_s.append(clock() - start)
            finally:
                if tracer is not None:
                    tracer.restore()
            (traced_s if traced else search_s).append(searched)
            if tracer is not None:
                sample = layers.search_metrics(tracer, instruments,
                                               "core.session.run")
                sample.update(observer.metrics(outcome, searched))
                samples.append(sample)
                run.write_spans(tracer, "setup")
        # run_s: each set-up's search plus a few more, untraced -- one
        # search is short enough that three samples would be noisy.
        for _ in range(run.params["extra_searches"]):
            search_s.append(reference.search()[2])
        load_tracer = Tracer(f"{run.name}-{run.seed}-load") if run.trace \
            else None
        front, loaded_s = reference.load(run, result)
        with frozen_heap():
            load = _drive(run, server, reference, front, load_tracer)
        _, stats = server.get("/stats")
    finally:
        if server is not None:
            server.stop()
    if load_tracer is not None:
        layers.install_artifact(load_tracer)
    try:
        offline_s, offline_rows = _verify(run, front, load["sent"])
    finally:
        if load_tracer is not None:
            load_tracer.restore()
    run.lines.append(f"front_test_error: "
                     f"{100.0 * result.best_model().test_error:.4f} %")
    run.lines.append(
        f"samples: run_s median of {len(search_s)} searches, setup_s median "
        f"of {len(setup_s)} set-ups, predict_p50 over "
        f"{len(load['latencies'])} requests at {run.params['reference_rps']:g}"
        " rps")
    run.lines.append(f"predict p95 at the reference rate: "
                     f"{load['p95_ms']:.3f} ms")
    run.lines.append("ladder (rps: passed, completion rate): " + ", ".join(
        f"{rate}: {passed} {achieved:.1f}" for rate, passed, achieved
        in load["ladder"]))
    if not run.trace:
        return {"setup_s": median(setup_s), "run_s": median(search_s),
                "peak_rss_mb": peak_rss_mb(),
                "predict_p50_ms": load["p50_ms"],
                "predict_max_rps": load["max_rps"]}
    run.write_spans(load_tracer, "load")
    served = stats["steps"]["predict"]
    metrics = median_metrics(samples)
    add_layer_self_times(metrics, load_tracer)
    metrics.update({
        "model.front_test_error_pct": 100.0 * result.best_model().test_error,
        "trace.overhead_frac": median(traced_s) / median(search_s) - 1,
        "artifact.save_s": median(save_s),
        "artifact.load_ms": 1e3 * loaded_s,
        "artifact.predict_us_per_row": 1e6 * offline_s / offline_rows,
        "serve.predict_p95_ms": load["p95_ms"],
        "serve.server_predict_p50_ms": served["p50_ms"],
        "serve.http_overhead_ms": load["back_to_back_p50_ms"]
        - load["back_to_back_server_p50_ms"],
        "serve.requests": served["count"],
        "serve.non_2xx": sum(1 for _, o in load["sent"]
                             if not 200 <= o.status < 300),
        "serve.back_to_back_p50_ms": load["back_to_back_p50_ms"],
        "loadgen.lag_p99_ms": load["lag_p99_ms"],
    })
    return metrics


def _ladder_rung(outcomes, limit_s: float) -> tuple:
    """(passed, completion rate) of one rate-ladder rung."""
    sent = [o for o in outcomes if o is not None]
    if not sent:
        return False, 0.0
    passed = (len(sent) == len(outcomes)
              and all(200 <= o.status < 300 for o in sent)
              and serving.nearest_rank([o.latency_s for o in sent], 0.95)
              <= limit_s
              and max(o.lag_s for o in sent) <= limit_s)
    span_s = max(o.done for o in sent) - min(o.due for o in sent)
    return passed, len(sent) / span_s


def _drive(run: Run, server, reference: ReferenceFront, front,
           tracer) -> dict:
    """Warm-up, the reference-rate phase and the rate ladder."""
    p = run.params
    connections = [server.connect() for _ in range(p["connections"])]
    sent = []
    try:
        # Warm-up: batch-1 requests sent back to back, which is where a
        # kept-alive connection shows its latency floor.
        warmup = reference.requests(run, front, p["warmup_requests"], 1e9,
                                    large_share=0.0)
        warm = serving.open_loop(server, connections, warmup)
        sent += zip(warmup, warm, strict=True)
        # only batch-1 requests have been served so far
        _, warm_stats = server.get("/stats")
        n_reference = max(p["min_reference_requests"], int(
            p["reference_rps"] * p["reference_share_of_seconds"]
            * run.seconds))
        requests = reference.requests(run, front, n_reference,
                                      p["reference_rps"])
        outcomes = serving.open_loop(server, connections, requests,
                                     tracer=tracer)
        sent += zip(requests, outcomes, strict=True)
        ladder, max_rps = [], 0.0
        limit_s = p["latency_limit_ms"] / 1e3
        for rate in p["ladder_rps"]:
            rung = reference.requests(run, front,
                                      max(8, int(rate * p["rung_s"])), rate)
            rung_outcomes = serving.open_loop(server, connections, rung,
                                              abort_lag_s=limit_s,
                                              tracer=tracer)
            sent += [(r, o) for r, o in zip(rung, rung_outcomes,
                                            strict=True) if o is not None]
            passed, achieved = _ladder_rung(rung_outcomes, limit_s)
            ladder.append((rate, passed, achieved))
            if not passed:
                break
            max_rps = achieved
    finally:
        for connection in connections:
            connection.close()
    latencies = [o.latency_s for o in outcomes]
    return {
        "sent": sent,
        "latencies": latencies,
        "p50_ms": 1e3 * serving.nearest_rank(latencies, 0.50),
        "p95_ms": 1e3 * serving.nearest_rank(latencies, 0.95),
        "back_to_back_p50_ms": 1e3 * serving.nearest_rank(
            [o.done - o.sent for o in warm], 0.50),
        "back_to_back_server_p50_ms": warm_stats["steps"]["predict"]["p50_ms"],
        "lag_p99_ms": 1e3 * serving.nearest_rank(
            [o.lag_s for o in outcomes], 0.99),
        "max_rps": max_rps,
        "ladder": ladder,
    }


def _verify(run: Run, front, sent) -> tuple:
    """Every sent request: 2xx and bit-identical to offline prediction.

    Returns the seconds and rows of the offline ``FrozenFront`` calls.
    """
    offline_s, offline_rows = 0.0, 0
    for request, outcome in sent:
        start = clock()
        expected = serving.predict_offline(front, request)
        offline_s += clock() - start
        offline_rows += len(request.X)
        run.check(serving.served_predictions(outcome)
                  == serving.as_payload(expected),
                  f"/predict answered {outcome.status} or differed from "
                  "FrozenFront.predict")
    return offline_s, offline_rows
