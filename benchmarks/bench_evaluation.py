"""Population-evaluation benchmark: cached subsystems vs. naive re-evaluation.

Measures the Figure-3 workload (the PM dataset, population 100) through the
batch evaluation subsystem of :mod:`repro.core.evaluation` and through the
naive per-individual path it replaced, on **two** honestly labeled workloads:

* ``offspring`` -- the engine's actual evaluation stream (initial population
  plus every generation's fresh offspring).  Fresh individuals need fresh
  linear fits, so here the gains come from the basis-column cache plus --
  since the gram pool -- from fits that gather cached normal-equation
  scalars instead of re-reducing ``n_samples``-long columns.
* ``reevaluation`` -- re-evaluating each generation's post-selection
  population, the shape of simplification passes, test-set sweeps and
  repeated analysis.  Survivors recur across generations, so the
  individual-level fit cache dominates and the speedup is large.

Each workload reports the batch evaluator's throughput, fits/sec and
cache hit rates next to the naive path.  Further sections:
``persistent_cache`` (a cold start vs one warm-started from a
:class:`~repro.core.cache_store.ColumnCacheStore` file);
``population_1000`` (one fixed-seed ``CaffeineEngine.run`` at population
1000, the ROADMAP's scaling item: wall-clock, evaluations/sec, every cache
hit rate and the size-adaptive budgets actually resolved -- per-phase
seconds come from the traced run, ``python3 perfbench/run.py --workload
pm-pop1000 --trace 1``); ``selection_variation`` (per-operator child cost
and node clones per offspring of the path-copying variation operators);
``golden_fronts`` (the fixed-seed fronts pinned in ``tests/golden``,
recomputed and compared); and ``serving``, which freezes a fixed-seed run
with :func:`~repro.core.artifact.save_front` and serves it through
:mod:`repro.serve`: artifact size, cold-load milliseconds, ``/predict``
latency percentiles and rows/sec per batch size (1/100/10000), and the
``artifact_roundtrip`` verdict -- frozen and served predictions
bit-identical to the originating run.  NSGA-II ranking time is reported
*separately* (it is selection, not evaluation) in a ``pareto_sort``
section -- and at larger population scales in ``bench_pareto.json``.

Emits machine-readable JSON (``benchmarks/output/bench_evaluation.json``;
schema documented in ``benchmarks/README.md``) so future PRs can track the
performance trajectory of the hot loop.  Every fast path is verified to
produce bit-for-bit identical errors; the outcome is recorded in the
report's ``equivalence`` block *before* the assertions fire, so the CI
trajectory gate (``benchmarks/compare_trajectory.py``) can see a violation
even in the uploaded artifact of a failed run.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.cache_store import ColumnCacheStore
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    PopulationEvaluator,
    evaluate_individual_inplace,
)
from repro.core.nsga2 import rank_population
from repro.core.settings import CaffeineSettings

from conftest import write_output

#: Regression gates.  The batch evaluator must deliver the PR-2 tentpole's
#: promised >= 2x on the fresh-offspring stream; the re-evaluation path is
#: fit-cache dominated; a warm persistent cache must never lose to a cold
#: start.  ``BENCH_RELAX_SPEEDUP_GATES=1`` (set by CI's shared noisy
#: runners) disables only the wall-clock ratio gates; the bit-for-bit
#: equivalence checks always hold.
_GATES_RELAXED = os.environ.get("BENCH_RELAX_SPEEDUP_GATES") == "1"
MIN_REEVALUATION_SPEEDUP = 0.0 if _GATES_RELAXED else 2.5
MIN_OFFSPRING_SPEEDUP_GRAM = 0.0 if _GATES_RELAXED else 2.0
MIN_WARM_CACHE_SPEEDUP = 0.0 if _GATES_RELAXED else 1.0
#: Acceptance gate for the population-1000 scaling work: canonical factor
#: ordering plus the size-adaptive kernel budget must lift the compiler's
#: kernel hit rate above the ~25% the ROADMAP flagged.  Deterministic
#: (fixed seed), so never relaxed.
MIN_POPULATION_1000_KERNEL_HIT_RATE = 0.25

#: Figure-3 workload scale: population 100 over the benchmark generation
#: budget used by the shared harness (see conftest.BENCH_SETTINGS).
WORKLOAD_SETTINGS = CaffeineSettings(
    population_size=100,
    n_generations=30,
    max_basis_functions=15,
    random_seed=2005,
)


def _capture_workloads(train):
    """Run one engine; capture its true evaluation stream and its
    per-generation populations."""
    engine = CaffeineEngine(train, settings=WORKLOAD_SETTINGS)
    offspring_batches = []
    original = engine.evaluator.evaluate_population

    def capturing(individuals):
        offspring_batches.append([ind.clone() for ind in individuals])
        return original(individuals)

    engine.evaluator.evaluate_population = capturing
    population_batches = []
    engine.initialize_population()
    population_batches.append([ind.clone() for ind in engine.population])
    for generation in range(WORKLOAD_SETTINGS.n_generations):
        engine.step(generation)
        population_batches.append([ind.clone() for ind in engine.population])
    engine.evaluator.evaluate_population = original
    return engine, offspring_batches, population_batches


#: Timing rounds; every round times the compared paths back to back
#: (round-robin), and each path reports its best round.  Interleaving means
#: background load (the rest of the benchmark suite, CI neighbours) hits all
#: paths alike instead of skewing whichever ran while the machine was busy,
#: which is what keeps the speedup gates stable.
TIMING_ROUNDS = 3


def _run_naive(engine, batches):
    """Naive per-individual evaluation (tree re-evaluation + direct fit)."""
    clones = [[ind.clone() for ind in batch] for batch in batches]
    start = time.perf_counter()
    for batch in clones:
        for individual in batch:
            evaluate_individual_inplace(individual, engine.train.X,
                                        engine.train.y, WORKLOAD_SETTINGS)
    return time.perf_counter() - start, clones


def _run_cached(engine, batches, cache=None):
    """Batch evaluation through a fresh evaluator (cold unless given a cache).

    Every round starts from the same cache state, so hit rates and work
    counters are identical across rounds (they are deterministic); only
    wall-clock varies.
    """
    clones = [[ind.clone() for ind in batch] for batch in batches]
    evaluator = PopulationEvaluator(engine.train.X, engine.train.y,
                                    WORKLOAD_SETTINGS, cache=cache)
    start = time.perf_counter()
    for batch in clones:
        evaluator.evaluate_population(batch)
    return time.perf_counter() - start, clones, evaluator


def _batches_equal(left, right) -> bool:
    """Bit-for-bit agreement of two evaluated copies of the same stream."""
    for left_batch, right_batch in zip(left, right, strict=True):
        for a, b in zip(left_batch, right_batch, strict=True):
            if a.error != b.error or a.complexity != b.complexity:
                return False
    return True


def _paired_speedup(baseline_rounds, candidate_rounds) -> float:
    """Best load-matched ratio: each round's candidate time is compared
    against the baseline time of the *same* round (they run back to back, so
    machine load hits both alike).  Comparing independent bests instead
    would let one lucky baseline round on a drifting machine mask a
    genuinely faster candidate."""
    return max(baseline / candidate for baseline, candidate
               in zip(baseline_rounds, candidate_rounds, strict=True))


def _measure(engine, batches):
    """Time naive vs. the batch evaluator; check bit-for-bit equality."""
    n_evaluations = sum(len(batch) for batch in batches)
    seconds_by_path = {"naive": [], "gram": []}
    first_results = {}
    evaluator = None
    for _round in range(TIMING_ROUNDS):
        seconds, naive = _run_naive(engine, batches)
        seconds_by_path["naive"].append(seconds)
        first_results.setdefault("naive", naive)
        seconds, cached, cached_evaluator = _run_cached(engine, batches)
        seconds_by_path["gram"].append(seconds)
        first_results.setdefault("gram", cached)
        evaluator = evaluator or cached_evaluator

    best_naive = min(seconds_by_path["naive"])
    seconds = min(seconds_by_path["gram"])
    gram = {
        "seconds": round(seconds, 4),
        "evaluations_per_second": round(n_evaluations / seconds, 1),
        "fits_per_second": round(evaluator.n_fits_computed / seconds, 1),
        "n_fits_computed": evaluator.n_fits_computed,
        "speedup": round(_paired_speedup(seconds_by_path["naive"],
                                         seconds_by_path["gram"]), 2),
        "column_cache_hit_rate": round(evaluator.column_hit_rate, 4),
        "fit_cache_hit_rate": round(evaluator.fit_hit_rate, 4),
        "column_cache_entries": len(evaluator.cache),
        "gram_pair_hit_rate": round(evaluator.gram_pool.pair_hit_rate, 4),
        "gram_pairs_computed": evaluator.gram_pool.n_pairs_computed,
        "gram_pool_entries": len(evaluator.gram_pool),
    }
    report = {
        "n_evaluations": n_evaluations,
        "naive_seconds": round(best_naive, 4),
        "naive_evaluations_per_second": round(n_evaluations / best_naive, 1),
        "backends": {"gram": gram},
    }
    return report, _batches_equal(first_results["naive"],
                                  first_results["gram"])


#: population_1000 budget: enough generations for the caches/kernels to
#: reach their steady state (the first generations are JIT warmup -- every
#: fresh skeleton is interpreted once before it can ever hit) without
#: pricing the section out of bench smoke.
POPULATION_1000_SETTINGS = CaffeineSettings(
    population_size=1000,
    n_generations=5,
    max_basis_functions=15,
    random_seed=2005,
)


def _measure_population_1000(train):
    """The ROADMAP's population >= 1000 scaling item, measured end to end.

    One fixed-seed ``CaffeineEngine.run`` at population 1000 (generation,
    evaluation, selection, simplification), reporting its wall-clock,
    evaluation throughput, every cache hit rate and the size-adaptive
    budgets the run resolved.  Per-phase seconds come from the traced run
    (``python3 perfbench/run.py --workload pm-pop1000 --trace 1``), which
    times the engine's own layers instead of a copy of its loop.
    """
    settings = POPULATION_1000_SETTINGS
    engine = CaffeineEngine(train, settings=settings)
    start = time.perf_counter()
    engine.run()
    run_seconds = time.perf_counter() - start

    evaluator = engine.evaluator
    compiler = evaluator._compiler
    n_evaluations = evaluator.n_evaluated
    return {
        "workload": "figure3-PM CaffeineEngine.run at population 1000",
        "population_size": settings.population_size,
        "n_generations": settings.n_generations,
        "n_evaluations": n_evaluations,
        "run_seconds": round(run_seconds, 4),
        "evaluations_per_second": round(n_evaluations / run_seconds, 1),
        "column_cache_hit_rate": round(evaluator.column_hit_rate, 4),
        "fit_cache_hit_rate": round(evaluator.fit_hit_rate, 4),
        "gram_pair_hit_rate": round(evaluator.gram_pool.pair_hit_rate, 4),
        "kernel_hit_rate": round(compiler.kernel_hit_rate, 4),
        "kernels_compiled": compiler.n_compiled,
        "column_cache_entries": len(evaluator.cache),
        "gram_pool_entries": len(evaluator.gram_pool),
        "resolved_basis_cache_size": settings.resolved_basis_cache_size(),
        "resolved_gram_pool_size": settings.resolved_gram_pool_size(),
        "resolved_kernel_cache_size": settings.resolved_kernel_cache_size(),
    }


#: Node classes whose ``clone`` calls the clones-per-offspring probe counts.
_CLONABLE_NODE_CLASSES = ("ProductTerm", "UnaryOpTerm", "BinaryOpTerm",
                          "ConditionalOpTerm", "WeightedSum", "WeightedTerm")


def _count_node_clones(run_once, n_calls):
    """Average expression-node ``clone()`` calls per invocation of
    ``run_once``, counted by temporarily wrapping every node class."""
    import repro.core.expression as expression_module

    counter = [0]
    originals = {}

    def counting(original):
        def wrapper(self):
            counter[0] += 1
            return original(self)
        return wrapper

    for class_name in _CLONABLE_NODE_CLASSES:
        node_class = getattr(expression_module, class_name)
        originals[node_class] = node_class.clone
        node_class.clone = counting(node_class.clone)
    try:
        for _ in range(n_calls):
            run_once()
    finally:
        for node_class, original in originals.items():
            node_class.clone = original
    return counter[0] / n_calls


def _measure_selection_variation(train):
    """Cost of the path-copying variation operators.

    * ``per_operator_child_microseconds`` -- each variation operator timed
      in isolation on fixed-seed parents (path copying shares every
      untouched subtree with the parents);
    * ``clones_per_offspring`` -- expression-node ``clone()`` calls per
      ``vary`` call (the structural measure the timing follows; 0 when no
      operator deep-copies anything).
    """
    import numpy as np

    from repro.core.generator import ExpressionGenerator
    from repro.core.individual import Individual
    from repro.core.operators import VariationOperators

    unary = ("parameter_mutation", "vc_mutation", "subtree_mutation",
             "basis_delete", "basis_add")
    binary = ("vc_crossover", "subtree_crossover", "basis_crossover",
              "basis_copy")
    generator = ExpressionGenerator(train.X.shape[1], WORKLOAD_SETTINGS,
                                    rng=np.random.default_rng(7))
    operators = VariationOperators(generator, WORKLOAD_SETTINGS,
                                   rng=np.random.default_rng(8))
    parent_a = Individual(bases=generator.random_basis_functions(6))
    parent_b = Individual(bases=generator.random_basis_functions(6))

    best = {name: float("inf") for name in unary + binary}
    repeats = 200
    for _round in range(TIMING_ROUNDS):
        for name in unary + binary:
            operator = getattr(operators, name)
            start = time.perf_counter()
            if name in unary:
                for _ in range(repeats):
                    operator(parent_a)
            else:
                for _ in range(repeats):
                    operator(parent_a, parent_b)
            best[name] = min(best[name], time.perf_counter() - start)
    return {
        "workload": "figure3-PM variation operators, fixed-seed parents",
        "per_operator_child_microseconds": {
            name: round(seconds / repeats * 1e6, 2)
            for name, seconds in best.items()},
        "clones_per_offspring": round(_count_node_clones(
            lambda: operators.vary(parent_a, parent_b), 300), 2),
    }


def _measure_golden_fronts():
    """Recompute every golden-front case and compare it with its
    checked-in fingerprints (``tests/golden``)."""
    from golden.regen import CASES, load_golden

    report = {}
    for case, compute in CASES.items():
        start = time.perf_counter()
        report[case] = {"matches": compute() == load_golden(case),
                        "seconds": round(time.perf_counter() - start, 4)}
    return report, all(entry["matches"] for entry in report.values())


def _measure_persistent_cache(engine, batches, tmp_path):
    """Cold start vs a ColumnCacheStore-warmed start on the offspring stream.

    The store is produced by one cold pass (exactly what a previous sweep or
    CI run would have left behind), then each warm round reloads it into a
    fresh cache.  Load/save costs are reported separately -- they are paid
    once per process, not per generation.
    """
    store = ColumnCacheStore(os.path.join(tmp_path, "bench-columns.cache"))
    _seconds, cold_reference, cold_evaluator = _run_cached(engine, batches)
    save_start = time.perf_counter()
    store_entries = store.save(cold_evaluator.cache)
    save_seconds = time.perf_counter() - save_start

    load_start = time.perf_counter()
    store.load(WORKLOAD_SETTINGS.resolved_basis_cache_size())
    load_seconds = time.perf_counter() - load_start

    seconds_by_path = {"cold": [], "warm": []}
    first_results = {"cold": cold_reference}
    warm_evaluator = None
    for _round in range(TIMING_ROUNDS):
        seconds, _cold, _evaluator = _run_cached(engine, batches)
        seconds_by_path["cold"].append(seconds)
        warm_cache = store.load(WORKLOAD_SETTINGS.resolved_basis_cache_size())
        seconds, warm, evaluator = _run_cached(engine, batches,
                                               cache=warm_cache)
        seconds_by_path["warm"].append(seconds)
        first_results.setdefault("warm", warm)
        warm_evaluator = warm_evaluator or evaluator

    equal = _batches_equal(first_results["cold"], first_results["warm"])
    report = {
        "workload": "offspring stream, gram fits, compiled columns",
        "cold_seconds": round(min(seconds_by_path["cold"]), 4),
        "warm_seconds": round(min(seconds_by_path["warm"]), 4),
        "speedup": round(_paired_speedup(seconds_by_path["cold"],
                                         seconds_by_path["warm"]), 2),
        "store_entries": store_entries,
        "store_bytes": os.path.getsize(store.path),
        "save_seconds": round(save_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "cold_columns_computed": cold_evaluator.n_columns_computed,
        "warm_columns_computed": warm_evaluator.n_columns_computed,
        "warm_column_hit_rate": round(warm_evaluator.column_hit_rate, 4),
    }
    return report, equal


def _measure_session_api(train):
    """Legacy ``run_caffeine`` shim vs the Problem/Session path, PR 4's API.

    Both run the same small fixed-seed workload; the section records wall
    clocks and -- the part the trajectory gate cares about -- whether the
    resulting Pareto fronts are bit-for-bit identical, which is the
    guarantee the deprecation shims advertise.
    """
    from repro.core.engine import run_caffeine
    from repro.core.problem import Problem
    from repro.core.session import Session

    settings = WORKLOAD_SETTINGS.copy(n_generations=5)

    legacy_start = time.perf_counter()
    legacy = run_caffeine(train, settings=settings)
    legacy_seconds = time.perf_counter() - legacy_start

    session_start = time.perf_counter()
    session = Session([Problem(train=train)], settings=settings).run().single()
    session_seconds = time.perf_counter() - session_start

    def front(result):
        return [(m.train_error, m.complexity, m.expression())
                for m in result.tradeoff]

    equal = front(legacy) == front(session)
    report = {
        "workload": "figure3-PM, 5 generations, fixed seed",
        "legacy_run_caffeine_seconds": round(legacy_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "n_models": legacy.n_models,
    }
    return report, equal


def _measure_serving(train, tmp_path):
    """Frozen-front artifact round trip plus served-prediction latency.

    Freezes a fixed-seed Figure-3 run with :func:`save_front`, loads it
    back with :func:`load_front`, and produces the ``artifact_roundtrip``
    verdict: the frozen front's ``predict_all``/``rescore`` and the
    responses served over HTTP must be bit-for-bit identical to the
    originating run's models and to
    :func:`~repro.core.report.rescore_models`.  The report is the
    trajectory's ``serving`` section: artifact size, save/cold-load
    wall-clocks, and -- per batch size 1/100/10000 -- the ``/predict``
    latency percentiles and throughput from the server's own
    :class:`~repro.serve.RequestProfiler` (swapped fresh per batch size so
    the percentiles are not mixed across scales).  Latency numbers are
    informational, never gated (noisy-runner rule); only the bit identity
    is asserted.
    """
    import threading
    import urllib.request

    import numpy as np

    from repro.core.artifact import load_front, save_front
    from repro.core.engine import run_caffeine
    from repro.core.report import rescore_models
    from repro.serve import RequestProfiler, make_server

    result = run_caffeine(train,
                          settings=WORKLOAD_SETTINGS.copy(n_generations=5))
    path = os.path.join(tmp_path, "bench-front.caffeine")
    save_start = time.perf_counter()
    n_models = save_front(result, path)
    save_seconds = time.perf_counter() - save_start

    # Offline round trip: bit identity against the originating run.
    front = load_front(path)
    models = list(result.tradeoff)
    X, y = train.X, train.y
    stacked = front.predict_all(X)
    equal = all(np.array_equal(row, model.predict(X))
                for row, model in zip(stacked, models, strict=True))
    equal = equal and np.array_equal(
        np.asarray(front.rescore(X, y)),
        np.asarray(rescore_models(models, X, y)), equal_nan=True)

    server = make_server(path)
    cold_load_ms = server.profiler.snapshot()["metrics"]["cold_load_ms"]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    report = {
        "workload": "figure3-PM front frozen + served over HTTP",
        "n_models": n_models,
        "artifact_bytes": os.path.getsize(path),
        "save_seconds": round(save_seconds, 4),
        "cold_load_ms": round(cold_load_ms, 3),
    }
    try:
        def post_predict(payload):
            request = urllib.request.Request(
                server.url + "/predict", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())

        # Served bit identity: one probe batch vs the frozen predictions
        # (the server maps non-finite values to JSON null).
        rng = np.random.default_rng(2005)
        probe = X[rng.integers(0, X.shape[0], size=100)]
        served = np.array(
            [np.nan if value is None else value
             for value in post_predict(
                 json.dumps({"X": probe.tolist()}).encode())["predictions"]])
        equal = equal and np.array_equal(served, front.predict(probe),
                                         equal_nan=True)

        for batch_size, n_requests in ((1, 50), (100, 20), (10000, 5)):
            batch = X[rng.integers(0, X.shape[0], size=batch_size)]
            payload = json.dumps({"X": batch.tolist()}).encode()
            server.profiler = RequestProfiler()
            for _request in range(n_requests):
                post_predict(payload)
            snapshot = server.profiler.snapshot()["steps"]["predict"]
            report[f"batch_{batch_size}"] = {
                "requests": n_requests,
                "p50_ms": round(snapshot["p50_ms"], 3),
                "p95_ms": round(snapshot["p95_ms"], 3),
                "p99_ms": round(snapshot["p99_ms"], 3),
                "rows_per_second": round(snapshot["rows_per_second"], 1),
            }
    finally:
        server.shutdown()
        server.server_close()
    return report, equal


def _measure_concurrent_store(tmp_path):
    """Two simultaneous ``ColumnCacheStore.save`` cycles on one path.

    The stores' advisory lock serializes the read-merge-write cycles, so
    the union of both writers' entries must survive -- the PR-4 fix for
    the last-writer-wins hazard.  Two threads with separate store
    instances exercise the same flock exclusion as two processes (each
    ``save`` opens the lock file independently), at bench-smoke cost.
    """
    import threading

    from repro.core.evaluation import BasisColumnCache

    import numpy as np

    path = os.path.join(tmp_path, "concurrent-columns.cache")
    n_entries = 200
    barrier = threading.Barrier(2)
    durations = {}

    def writer(worker_id):
        cache = BasisColumnCache(10000)
        for index in range(n_entries):
            cache.put((f"ds-{worker_id}", ("col", index)),
                      np.full(8, worker_id * 1000.0 + index))
        barrier.wait(timeout=30)
        start = time.perf_counter()
        ColumnCacheStore(path).save(cache)
        durations[worker_id] = time.perf_counter() - start

    threads = [threading.Thread(target=writer, args=(worker_id,))
               for worker_id in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    merged = ColumnCacheStore(path).load(max_entries=10000)
    stored = {key for key, _column in merged.items()}
    expected = {(f"ds-{worker_id}", ("col", index))
                for worker_id in (1, 2) for index in range(n_entries)}
    no_lost_entries = expected <= stored
    report = {
        "entries_per_writer": n_entries,
        "stored_entries": len(merged),
        "first_save_seconds": round(min(durations.values()), 4),
        "second_save_seconds": round(max(durations.values()), 4),
    }
    return report, no_lost_entries


def _measure_sort(population):
    """NSGA-II ranking time on one realistic population."""
    repeats = 5
    start = time.perf_counter()
    for _ in range(repeats):
        rank_population(population)
    seconds = (time.perf_counter() - start) / repeats
    return {"population_size": len(population),
            "numpy_seconds": round(seconds, 6)}


def test_population_evaluation_throughput(benchmark, bench_datasets,
                                          tmp_path):
    train, _ = bench_datasets.for_target("PM")
    engine, offspring_batches, population_batches = _capture_workloads(train)

    offspring_report, offspring_equal = _measure(engine, offspring_batches)
    reevaluation_report, reevaluation_equal = _measure(engine,
                                                       population_batches)
    cache_report, cache_equal = _measure_persistent_cache(
        engine, offspring_batches, str(tmp_path))
    population_1000_report = _measure_population_1000(train)
    selection_variation_report = _measure_selection_variation(train)
    golden_report, golden_equal = _measure_golden_fronts()
    sort_report = _measure_sort(population_batches[-1])
    session_report, session_equal = _measure_session_api(train)
    serving_report, artifact_equal = _measure_serving(train, str(tmp_path))
    concurrent_report, concurrent_ok = _measure_concurrent_store(
        str(tmp_path))

    equivalence = {
        "offspring_naive_vs_gram": offspring_equal,
        "reevaluation_naive_vs_gram": reevaluation_equal,
        "golden_fronts": golden_equal,
        "cold_vs_warm_cache": cache_equal,
        "legacy_shim_vs_session": session_equal,
        "artifact_roundtrip": artifact_equal,
        "concurrent_store_writers_lose_nothing": concurrent_ok,
    }
    equivalence["verified"] = all(equivalence.values())

    report = {
        "workload": "figure3-PM",
        "population_size": WORKLOAD_SETTINGS.population_size,
        "n_generations": WORKLOAD_SETTINGS.n_generations,
        "offspring": offspring_report,
        "reevaluation": reevaluation_report,
        "persistent_cache": cache_report,
        "population_1000": population_1000_report,
        "selection_variation": selection_variation_report,
        "golden_fronts": golden_report,
        "pareto_sort": sort_report,
        "session_api": session_report,
        "serving": serving_report,
        "concurrent_store": concurrent_report,
        "equivalence": equivalence,
    }
    write_output("bench_evaluation.json", json.dumps(report, indent=2))

    # Bit-for-bit equivalence is non-negotiable (never relaxed in CI).
    assert equivalence["verified"], \
        f"fast paths are not bit-for-bit identical: {equivalence}"

    gram_offspring = offspring_report["backends"]["gram"]
    gram_reevaluation = reevaluation_report["backends"]["gram"]
    assert gram_reevaluation["speedup"] >= MIN_REEVALUATION_SPEEDUP, \
        (f"re-evaluation speedup regressed: "
         f"{gram_reevaluation['speedup']}x < {MIN_REEVALUATION_SPEEDUP}x")
    assert gram_offspring["speedup"] >= MIN_OFFSPRING_SPEEDUP_GRAM, \
        (f"gram offspring-stream speedup regressed: "
         f"{gram_offspring['speedup']}x < {MIN_OFFSPRING_SPEEDUP_GRAM}x")
    assert cache_report["speedup"] >= MIN_WARM_CACHE_SPEEDUP, \
        (f"warm persistent cache lost to a cold start: "
         f"{cache_report['speedup']}x < {MIN_WARM_CACHE_SPEEDUP}x")
    assert population_1000_report["kernel_hit_rate"] > \
        MIN_POPULATION_1000_KERNEL_HIT_RATE, \
        (f"population-1000 kernel hit rate regressed: "
         f"{population_1000_report['kernel_hit_rate']} <= "
         f"{MIN_POPULATION_1000_KERNEL_HIT_RATE}")
    assert selection_variation_report["clones_per_offspring"] == 0.0, \
        "variation operators deep-copy tree material again"
    # Offspring reuse parental basis functions even though their fits are
    # fresh; survivors recur wholesale; offspring grams are mostly gathers;
    # a store-warmed cache serves nearly every column from disk.
    assert gram_offspring["column_cache_hit_rate"] > 0.5
    assert gram_reevaluation["fit_cache_hit_rate"] > 0.5
    assert gram_offspring["gram_pair_hit_rate"] > 0.5
    assert cache_report["warm_column_hit_rate"] > 0.9

    # ------------------------------------------------------------------
    # Timed section: one warm-cache population evaluation (the unit of work
    # the evolutionary loop repeats every generation).
    # ------------------------------------------------------------------
    final_batch = population_batches[-1]
    evaluator = PopulationEvaluator(engine.train.X, engine.train.y,
                                    WORKLOAD_SETTINGS)
    evaluator.evaluate_population([ind.clone() for ind in final_batch])

    def evaluate_final_population():
        evaluator.evaluate_population([ind.clone() for ind in final_batch])

    benchmark(evaluate_final_population)
