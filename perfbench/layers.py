"""Which public functions of ``repro`` the traced run wraps, and the
per-layer metrics it reduces the spans and counters to.

Module-level functions are wrapped where their callers look them up
(``repro.core.engine.select_and_rerank``, not only its defining module),
because ``from x import f`` binds the name in the importing module.
"""

from __future__ import annotations

from typing import Dict, List

import repro.core.artifact as artifact
import repro.core.engine as engine
import repro.core.generator as generator
import repro.core.operators as operators
from repro.core.compile import TreeCompiler
from repro.core.evaluation import (BatchedResidualBackend,
                                   CompiledColumnBackend, GramFitBackend,
                                   PopulationEvaluator)
from repro.core.model import SymbolicModel
from repro.core.session import Session
from repro.core.variable_combo import VariableCombo

from spans import LAYERS, Tracer, layer_of

#: operators that may decline and fall back to parameter mutation
FALLIBLE_OPERATORS = ("vc_mutation", "vc_crossover", "subtree_mutation",
                      "subtree_crossover", "basis_crossover", "basis_delete",
                      "basis_add", "basis_copy")

#: span names of the blocking search steps
VARY = "core.operators.vary"
STEP = "core.engine.step"
SELECT = "core.nsga2.select_and_rerank"
RESIDUAL_BATCH = "core.evaluation.residual_errors"
CANONICALIZE = ("core.compile.canonicalize_factors",
                "core.compile.canonicalize_fresh_product_term")
FITS = ("core.evaluation.fit_batch", "core.evaluation.fit")
RESIDUAL = (RESIDUAL_BATCH, "core.evaluation.residual_error")


class Instruments:
    """The library objects a traced run observes, collected as they are built."""

    def __init__(self) -> None:
        self.evaluators: List[PopulationEvaluator] = []
        self.column_backends: List[CompiledColumnBackend] = []


def install_session(tracer: Tracer) -> None:
    """Session-level span only: ``jobs > 1`` runs engines in worker processes."""
    tracer.wrap(Session, "run", "core.session.run")


def install_search(tracer: Tracer, instruments: Instruments) -> None:
    """Wrap every in-process search layer's public entry points."""
    install_session(tracer)
    tracer.wrap(engine.CaffeineEngine, "run", "core.engine.run")
    tracer.wrap(engine.CaffeineEngine, "step", STEP)
    tracer.wrap(engine.CaffeineEngine, "initialize_population",
                "core.engine.initialize_population")
    tracer.wrap(generator.ExpressionGenerator, "random_basis_functions",
                "core.generator.random_basis_functions")
    tracer.wrap(generator.ExpressionGenerator, "random_product_term",
                "core.generator.random_product_term", outermost=True)
    tracer.wrap(VariableCombo, "random", "core.variable_combo.random")
    tracer.wrap(operators.VariationOperators, "vary", VARY)
    for name in FALLIBLE_OPERATORS:
        tracer.count_none(operators.VariationOperators, name,
                          "operators.fallbacks")
    tracer.wrap(generator, "canonicalize_factors", CANONICALIZE[0])
    tracer.wrap(operators, "canonicalize_factors", CANONICALIZE[0])
    tracer.wrap(operators, "canonicalize_fresh_product_term", CANONICALIZE[1])
    tracer.wrap(TreeCompiler, "compile", "core.compile.compile")
    tracer.capture(CompiledColumnBackend, "__init__",
                   instruments.column_backends)
    tracer.capture(PopulationEvaluator, "__init__", instruments.evaluators)
    tracer.wrap(PopulationEvaluator, "evaluate_population",
                "core.evaluation.evaluate_population")
    tracer.wrap(CompiledColumnBackend, "evaluate", "core.evaluation.column")
    tracer.wrap(GramFitBackend, "prepare_batch", FITS[0])
    tracer.wrap(GramFitBackend, "evaluate", FITS[1])
    tracer.wrap(BatchedResidualBackend, "errors", RESIDUAL[0])
    tracer.wrap(BatchedResidualBackend, "error", RESIDUAL[1])
    tracer.wrap(engine, "select_and_rerank", SELECT)
    tracer.wrap(engine, "rank_population_arrays",
                "core.nsga2.rank_population_arrays")
    tracer.wrap(engine, "simplify_population",
                "core.simplify.simplify_population")
    tracer.wrap(engine, "batch_test_errors", "core.model.batch_test_errors")
    tracer.wrap(SymbolicModel, "from_individual", "core.model.from_individual")


def install_artifact(tracer: Tracer) -> None:
    tracer.wrap(artifact, "save_front", "core.artifact.save_front")
    tracer.wrap(artifact, "load_front", "core.artifact.load_front")
    tracer.wrap(artifact.FrozenFront, "predict", "core.artifact.predict")
    tracer.wrap(artifact.FrozenFront, "predict_all",
                "core.artifact.predict_all")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_rate(computed: int, requests: int) -> float:
    """Share of requests served without computing (0 when none were made)."""
    return 1.0 - computed / requests if requests else 0.0


def search_metrics(tracer: Tracer, instruments: Instruments,
                   root: str) -> Dict[str, float]:
    """Per-layer metrics of one traced search, ``root`` being its top span."""
    totals = tracer.total_times()
    selfs = tracer.self_times()
    calls = tracer.calls()
    evaluators = instruments.evaluators
    compilers = [backend.compiler for backend in instruments.column_backends]
    pools = [ev.gram_pool for ev in evaluators if ev.gram_pool is not None]
    vary_calls = calls.get(VARY, 0)
    columns = sum(ev.n_columns_computed for ev in evaluators)
    fits = sum(ev.n_fits_computed for ev in evaluators)
    pairs = sum(pool.n_pairs_computed for pool in pools)
    root_s = totals.get(root, 0.0)
    metrics = {
        "operators.vary_s": totals.get(VARY, 0.0),
        "operators.vary_calls": vary_calls,
        "operators.yield": _ratio(
            vary_calls - tracer.counts["operators.fallbacks"], vary_calls),
        "generator.random_basis_s": totals.get(
            "core.generator.random_basis_functions", 0.0),
        "variable_combo.random_s": totals.get("core.variable_combo.random",
                                              0.0),
        "variable_combo.random_calls": calls.get("core.variable_combo.random",
                                                 0),
        "compile.canonicalize_s": sum(totals.get(name, 0.0)
                                      for name in CANONICALIZE),
        "evaluation.eval_s": totals.get("core.evaluation.evaluate_population",
                                        0.0),
        "evaluation.columns_s": totals.get("core.evaluation.column", 0.0),
        "evaluation.columns_computed": columns,
        "evaluation.column_hit_rate": _hit_rate(
            columns, sum(ev.n_column_requests for ev in evaluators)),
        "evaluation.column_mb_computed": sum(
            ev.n_columns_computed * ev.X.shape[0] * ev.X.itemsize
            for ev in evaluators) / 1e6,
        "evaluation.fits_s": sum(selfs.get(name, 0.0) for name in FITS),
        "evaluation.fits_computed": fits,
        "evaluation.fit_hit_rate": _hit_rate(
            fits, sum(ev.n_fit_requests for ev in evaluators)),
        "evaluation.gram_pairs_computed": pairs,
        "evaluation.gram_pair_hit_rate": _hit_rate(
            pairs, sum(pool.n_pair_requests for pool in pools)),
        "evaluation.residual_s": sum(totals.get(name, 0.0)
                                     for name in RESIDUAL),
        "evaluation.residual_passes": calls.get(RESIDUAL_BATCH, 0),
        "compile.kernel_hit_rate": _ratio(
            sum(c.n_kernel_hits for c in compilers),
            sum(c.n_kernel_requests for c in compilers)),
        "compile.kernels_compiled": sum(c.n_compiled for c in compilers),
        "nsga2.select_s": totals.get(SELECT, 0.0) + totals.get(
            "core.nsga2.rank_population_arrays", 0.0),
        "nsga2.select_calls": calls.get(SELECT, 0),
        "simplify.simplify_s": totals.get("core.simplify.simplify_population",
                                          0.0),
        "model.test_score_s": totals.get("core.model.batch_test_errors", 0.0),
        "engine.step_self_s": selfs.get(STEP, 0.0),
        "trace.run_s": root_s,
        "trace.untimed_s": selfs.get(root, 0.0),
        "trace.attributed_frac": _ratio(root_s - selfs.get(root, 0.0), root_s),
    }
    metrics.update(layer_self_times(tracer))
    return metrics


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """``<layer>.self_s`` for every layer: summed self time of its spans."""
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in tracer.self_times().items():
        per_layer[layer_of(name)] += seconds
    return {f"{layer}.self_s": seconds for layer, seconds in per_layer.items()}


def deterministic_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The counts that must repeat exactly across runs of one seed."""
    return {name: metrics[name] for name in (
        "evaluation.columns_computed", "evaluation.fits_computed",
        "evaluation.gram_pairs_computed", "compile.kernels_compiled",
        "operators.vary_calls", "operators.yield", "nsga2.select_calls",
        "evaluation.residual_passes", "variable_combo.random_calls")}
