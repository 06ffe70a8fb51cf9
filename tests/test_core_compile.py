"""Compiled tree evaluation == interpreter, bit for bit.

The compiled column evaluator (:mod:`repro.core.compile`) promises that every
evaluation path -- fresh tape, skeleton-cache reuse with different
parameters, interpreter warmup -- produces the *exact* bytes the
interpreter produces, magnitude clip and NaN semantics included.
These tests enforce that promise over random trees (hypothesis) and over
hand-built edge cases, and check the evaluator integration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.compile import (
    CompilationError,
    TreeCompiler,
    skeleton_and_params,
)
from repro.core.evaluation import PopulationEvaluator, evaluate_individual_inplace
from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    ExpressionNode,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    WeightedTerm,
)
from repro.core.functions import UNARY_OPERATORS, default_function_set
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual, evaluate_basis_column
from repro.core.operators import VariationOperators
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight

FAST = hyp_settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

OPS = default_function_set()


def _adversarial_X(rng: np.random.Generator, n_variables: int) -> np.ndarray:
    """Inputs that trigger every edge: domains errors (log/sqrt of
    negatives), division by zero, overflow past the magnitude clip, NaN."""
    return np.concatenate([
        rng.uniform(0.5, 2.0, size=(8, n_variables)),
        rng.uniform(-3.0, 3.0, size=(8, n_variables)),
        np.zeros((2, n_variables)),
        np.full((1, n_variables), 1e12),
        np.full((1, n_variables), -1e12),
        np.full((1, n_variables), np.nan),
    ])


def _column(compiler: TreeCompiler, basis: ProductTerm) -> np.ndarray:
    """The evaluator's miss path: key the tree, then evaluate by key."""
    return compiler.column_from_key(*skeleton_and_params(basis), basis)


def _assert_bitwise_equal(compiled: np.ndarray, interpreted: np.ndarray,
                          context: str = "") -> None:
    assert compiled.shape == interpreted.shape, context
    assert compiled.dtype == interpreted.dtype, context
    assert compiled.tobytes() == interpreted.tobytes(), \
        f"compiled column differs from interpreter {context}"


# ----------------------------------------------------------------------
# property tests over random trees
# ----------------------------------------------------------------------
@FAST
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_variables=st.integers(min_value=1, max_value=6),
       conditionals=st.booleans())
def test_compiled_matches_interpreter_on_random_trees(seed, n_variables,
                                                      conditionals):
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed,
                                enable_conditionals=conditionals)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(n_variables, settings, rng=rng)
    X = _adversarial_X(rng, n_variables)
    compiler = TreeCompiler(X)
    for basis in generator.random_basis_functions(5):
        interpreted = evaluate_basis_column(basis, X)
        # Twice: first sighting (interpreter warmup) and the compiled tape.
        _assert_bitwise_equal(_column(compiler, basis), interpreted, "(warmup)")
        _assert_bitwise_equal(_column(compiler, basis), interpreted, "(tape)")


@FAST
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_variables=st.integers(min_value=1, max_value=5))
def test_skeleton_reuse_matches_interpreter_on_mutants(seed, n_variables):
    """Parameter-mutated trees reuse the parent's tape, bit for bit."""
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(n_variables, settings, rng=rng)
    operators = VariationOperators(generator, settings, rng=rng)
    X = _adversarial_X(rng, n_variables)
    compiler = TreeCompiler(X)
    basis = generator.random_product_term()
    # Force the skeleton into the compiled state (sighting + recurrence).
    _column(compiler, basis)
    _column(compiler, basis.clone())
    for _ in range(4):
        mutant = operators.parameter_mutation(
            Individual(bases=[basis.clone()])).bases[0]
        _assert_bitwise_equal(_column(compiler, mutant),
                              evaluate_basis_column(mutant, X), "(mutant)")
    vc_mutant = operators.vc_mutation(Individual(bases=[basis.clone()]))
    if vc_mutant is not None:
        mutant = vc_mutant.bases[0]
        _assert_bitwise_equal(_column(compiler, mutant),
                              evaluate_basis_column(mutant, X), "(vc mutant)")


@FAST
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_skeleton_walk_matches_lowering_order(seed):
    """The skeleton walk and the tape builder agree on parameter order."""
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed, enable_conditionals=True)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(4, settings, rng=rng)
    X = rng.uniform(0.5, 2.0, size=(10, 4))
    compiler = TreeCompiler(X)
    for basis in generator.random_basis_functions(4):
        _skeleton, params = skeleton_and_params(basis)
        kernel = compiler.compile(basis)
        assert kernel.compiled_params == params
        _assert_bitwise_equal(kernel(params),
                              evaluate_basis_column(basis, X), "(order)")


@FAST
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_individuals=st.integers(min_value=1, max_value=6))
def test_evaluator_backends_bitwise_identical(seed, n_individuals):
    """PopulationEvaluator (compiled columns, gram fits, batched residuals)
    == the interpreter reference path, bit for bit."""
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed, max_basis_functions=6)
    rng = np.random.default_rng(seed)
    generator = ExpressionGenerator(3, settings, rng=rng)
    X = np.random.default_rng(seed + 1).uniform(0.2, 2.0, size=(40, 3))
    y = np.random.default_rng(seed + 2).normal(size=40)
    population = [Individual(bases=generator.random_basis_functions())
                  for _ in range(n_individuals)]
    reference = [ind.clone() for ind in population]
    compiled = PopulationEvaluator(X, y, settings)

    def interpret(individuals):
        for individual in individuals:
            evaluate_individual_inplace(individual, X, y, settings)

    compiled.evaluate_population(population)
    interpret(reference)
    # Second pass: parameter mutants hit the compiled skeleton cache.
    operators = VariationOperators(generator, settings, rng=rng)
    mutants = [operators.parameter_mutation(ind.clone()) for ind in population]
    mutant_reference = [ind.clone() for ind in mutants]
    compiled.evaluate_population(mutants)
    interpret(mutant_reference)
    for a, b in zip(population + mutants, reference + mutant_reference):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)


# ----------------------------------------------------------------------
# hand-built edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    X = np.array([[0.5, 2.0], [1.5, 0.0], [-1.0, 3.0], [1e12, -1e12],
                  [np.nan, 1.0]])

    def check(self, basis: ProductTerm) -> None:
        compiler = TreeCompiler(self.X)
        interpreted = evaluate_basis_column(basis, self.X)
        _assert_bitwise_equal(_column(compiler, basis), interpreted)
        _assert_bitwise_equal(_column(compiler, basis.clone()), interpreted)
        _assert_bitwise_equal(_column(compiler, basis.clone()), interpreted)

    def test_constant_vc_only(self):
        self.check(ProductTerm(vc=VariableCombo((0, 0))))

    def test_plain_monomial(self):
        self.check(ProductTerm(vc=VariableCombo((2, -1))))

    def test_magnitude_clip_maps_to_nan(self):
        basis = ProductTerm(vc=VariableCombo((4, 0)))  # (1e12)^4 -> clip
        column = _column(TreeCompiler(self.X), basis)
        assert np.isnan(column[3])
        self.check(basis)

    def test_division_by_zero_and_log_of_negative(self):
        inv = UnaryOpTerm(op=OPS.operator("inv"),
                          argument=WeightedSum(
                              offset=Weight.from_value(0.0),
                              terms=[WeightedTerm(
                                  weight=Weight.from_value(1.0),
                                  term=ProductTerm(vc=VariableCombo((0, 1))))]))
        ln = UnaryOpTerm(op=OPS.operator("ln"),
                         argument=WeightedSum(
                             offset=Weight.from_value(0.0),
                             terms=[WeightedTerm(
                                 weight=Weight.from_value(1.0),
                                 term=ProductTerm(vc=VariableCombo((1, 0))))]))
        self.check(ProductTerm(vc=None, ops=[inv, ln]))

    def test_binary_weight_arguments_both_sides(self):
        expr = WeightedSum(offset=Weight.from_value(0.5),
                           terms=[WeightedTerm(
                               weight=Weight.from_value(2.0),
                               term=ProductTerm(vc=VariableCombo((1, 0))))])
        power = BinaryOpTerm(op=OPS.operator("pow"), left=expr,
                             right=Weight.from_value(2.0))
        division = BinaryOpTerm(op=OPS.operator("div"),
                                left=Weight.from_value(1.0),
                                right=expr.clone())
        self.check(ProductTerm(vc=None, ops=[power, division]))

    def test_empty_weighted_sum_argument(self):
        sqrt = UnaryOpTerm(op=OPS.operator("sqrt"),
                           argument=WeightedSum(offset=Weight.from_value(4.0)))
        self.check(ProductTerm(vc=None, ops=[sqrt]))

    def test_conditional_with_weight_and_expression_thresholds(self):
        def sum_of(index):
            return WeightedSum(offset=Weight.from_value(0.0),
                               terms=[WeightedTerm(
                                   weight=Weight.from_value(1.0),
                                   term=ProductTerm(vc=VariableCombo(
                                       tuple(1 if i == index else 0
                                             for i in range(2)))))])

        lte = OPS.operator("min")  # pseudo-record carrying a name
        for threshold in (Weight.from_value(1.0), sum_of(1)):
            conditional = ConditionalOpTerm(op=lte, test=sum_of(0),
                                            threshold=threshold,
                                            if_true=sum_of(1),
                                            if_false=sum_of(0))
            self.check(ProductTerm(vc=None, ops=[conditional]))

    def test_negative_zero_offset_distinct_from_positive_zero(self):
        for offset in (0.0, -0.0):
            weight = Weight.from_value(1.0)
            weight_sum = WeightedSum(
                offset=Weight(stored=offset, exponent_bound=10.0),
                terms=[WeightedTerm(weight=weight,
                                    term=ProductTerm(vc=VariableCombo((1, 0))))])
            self.check(ProductTerm(
                vc=None, ops=[UnaryOpTerm(op=OPS.operator("abs"),
                                          argument=weight_sum)]))


# ----------------------------------------------------------------------
# unknown node types and API behavior
# ----------------------------------------------------------------------
class _ExoticNode(ExpressionNode):
    """An op-term the compiler has never heard of."""

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return np.tanh(X[:, 0])

    def clone(self):
        return _ExoticNode()


class _HollowNode(ExpressionNode):
    """A node without even an evaluate implementation."""

    def clone(self):
        return _HollowNode()


def test_unknown_node_is_rejected():
    """Only the expression module's node classes key and compile; the
    evaluator refuses anything else before a column is computed, while the
    interpreter still evaluates the node through its own ``evaluate``."""
    X = np.array([[0.5], [2.0], [-3.0]])
    basis = ProductTerm(vc=VariableCombo((2,)), ops=[_ExoticNode()])
    with pytest.raises(CompilationError):
        skeleton_and_params(basis)
    compiler = TreeCompiler(X)
    with pytest.raises(CompilationError, match="_ExoticNode"):
        compiler.compile(basis)
    assert compiler.n_compiled == 0
    evaluator = PopulationEvaluator(X, np.array([1.0, 2.0, 4.0]))
    with pytest.raises(CompilationError):
        evaluator.evaluate_individual(Individual(bases=[basis]))
    assert evaluator.n_columns_computed == 0
    assert np.isfinite(evaluate_basis_column(basis, X)).all()


def test_node_without_evaluate_is_rejected():
    X = np.array([[0.5], [2.0]])
    basis = ProductTerm(vc=VariableCombo((1,)), ops=[_HollowNode()])
    with pytest.raises(CompilationError):
        skeleton_and_params(basis)
    with pytest.raises(CompilationError, match="_HollowNode"):
        TreeCompiler(X).compile(basis)
    with pytest.raises(NotImplementedError):
        evaluate_basis_column(basis, X)


def test_variable_count_mismatch_raises_like_interpreter():
    basis = ProductTerm(vc=VariableCombo((1, 2, 3)))
    with pytest.raises(ValueError, match="columns"):
        _column(TreeCompiler(np.ones((4, 2))), basis)


def test_kernel_cache_respects_capacity_and_warmup():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(10, 2))
    compiler = TreeCompiler(X, max_kernels=1)
    a = ProductTerm(vc=VariableCombo((1, 0)))
    b = ProductTerm(vc=VariableCombo((0, 1)))
    for basis in (a, b, a, b):  # first sightings, then compilations
        _column(compiler, basis)
    assert compiler.n_interpreted == 2
    assert compiler.n_compiled == 2
    assert len(compiler._kernels) == 1  # LRU capacity enforced
    # a one-kernel LRU that keeps evicting still evaluates bit-for-bit
    interpreted = evaluate_basis_column(a, X)
    _assert_bitwise_equal(_column(compiler, b), evaluate_basis_column(b, X))
    _assert_bitwise_equal(_column(compiler, a), interpreted)
    with pytest.raises(ValueError, match="max_kernels"):
        TreeCompiler(X, max_kernels=0)


def test_compiled_kernel_evaluates_its_own_tree():
    X = np.array([[0.5, 1.0], [2.0, 3.0]])
    basis = ProductTerm(vc=VariableCombo((1, -1)))
    kernel = TreeCompiler(X).compile(basis)
    _assert_bitwise_equal(kernel(kernel.compiled_params),
                          evaluate_basis_column(basis, X))


class TestCanonicalFactorOrder:
    """Commutative factor-order variants collapse to one kernel."""

    def _order_variants(self):
        """Two trees identical up to the order of their product factors."""
        op_a = UnaryOpTerm(op=UNARY_OPERATORS["abs"],
                           argument=WeightedSum(offset=Weight(stored=1.0)))
        op_b = UnaryOpTerm(op=UNARY_OPERATORS["sqrt"],
                           argument=WeightedSum(offset=Weight(stored=2.0)))
        ab = ProductTerm(vc=VariableCombo((1, 0)),
                         ops=[op_a.clone(), op_b.clone()])
        ba = ProductTerm(vc=VariableCombo((1, 0)),
                         ops=[op_b.clone(), op_a.clone()])
        return ab, ba

    def test_canonicalized_variants_share_key_and_kernel(self):
        from repro.core.compile import canonicalize_factors
        from repro.core.expression import structural_key

        ab, ba = self._order_variants()
        assert structural_key(ab) != structural_key(ba)  # pre-normalization
        canonicalize_factors(ab)
        canonicalize_factors(ba)
        assert structural_key(ab) == structural_key(ba)
        assert skeleton_and_params(ab) == skeleton_and_params(ba)

        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 2.0, size=(12, 2))
        compiler = TreeCompiler(X)
        first = _column(compiler, ab)    # first sighting: interpreted
        second = _column(compiler, ba)   # recurrence: compiles one tape
        third = _column(compiler, ab)    # served by the cached kernel
        assert compiler.n_compiled == 1
        assert compiler.n_kernel_hits == 1
        assert compiler.kernel_hit_rate == pytest.approx(1.0 / 3.0)
        # One canonical evaluation order => identical bits across variants
        # and against the interpreter on the canonical tree.
        _assert_bitwise_equal(first, second)
        _assert_bitwise_equal(second, third)
        _assert_bitwise_equal(first, evaluate_basis_column(ab, X))
        _assert_bitwise_equal(first, evaluate_basis_column(ba, X))

    def test_nested_order_variants_merge_post_order(self):
        """Outer factor lists must sort against *canonical* inner keys.

        Each tree here holds two outer factors that tie on everything
        before their nested products and carry OPPOSITE raw inner factor
        orders; only the trailing weight (3.0 vs 4.0) disambiguates them
        canonically.  A pre-order walk sorts the outer list while the
        nested orders still disagree, so the two canonically-identical
        trees end with different outer orders (and different structural
        keys) -- the post-order walk merges them to one.
        """
        from repro.core.compile import canonicalize_factors
        from repro.core.expression import structural_key

        def unary(name, term):
            return UnaryOpTerm(op=UNARY_OPERATORS[name],
                               argument=WeightedSum(
                                   offset=Weight(stored=1.0),
                                   terms=[WeightedTerm(
                                       weight=Weight(stored=2.0),
                                       term=term)]))

        def nested(abs_first):
            ops = [unary("abs", ProductTerm(vc=VariableCombo((1,)))),
                   unary("sqrt", ProductTerm(vc=VariableCombo((1,))))]
            return ProductTerm(ops=ops if abs_first
                               else list(reversed(ops)))

        def outer_factor(abs_first, trailing):
            return UnaryOpTerm(op=UNARY_OPERATORS["log10"],
                               argument=WeightedSum(
                                   offset=Weight(stored=1.0),
                                   terms=[WeightedTerm(
                                       weight=Weight(stored=2.0),
                                       term=nested(abs_first)),
                                       WeightedTerm(
                                           weight=Weight(stored=trailing),
                                           term=ProductTerm(
                                               vc=VariableCombo((1,))))]))

        def tree(first_abs_first):
            return ProductTerm(ops=[outer_factor(first_abs_first, 3.0),
                                    outer_factor(not first_abs_first, 4.0)])

        variants = [tree(True), tree(False)]
        assert structural_key(variants[0]) != structural_key(variants[1])
        for v in variants:
            canonicalize_factors(v)
        keys_after = {structural_key(v) for v in variants}
        assert len(keys_after) == 1
        # Idempotent: a second pass changes nothing.
        for v in variants:
            canonicalize_factors(v)
        assert {structural_key(v) for v in variants} == keys_after

    def test_canonicalization_is_idempotent_and_recursive(self):
        from repro.core.compile import canonicalize_factors
        from repro.core.expression import structural_key

        ab, ba = self._order_variants()
        # Nest the order variants one level down inside a weighted sum.
        outer_ab = ProductTerm(ops=[UnaryOpTerm(
            op=UNARY_OPERATORS["log10"],
            argument=WeightedSum(offset=Weight(stored=0.5),
                                 terms=[WeightedTerm(weight=Weight(stored=1.0),
                                                     term=ab)]))])
        outer_ba = ProductTerm(ops=[UnaryOpTerm(
            op=UNARY_OPERATORS["log10"],
            argument=WeightedSum(offset=Weight(stored=0.5),
                                 terms=[WeightedTerm(weight=Weight(stored=1.0),
                                                     term=ba)]))])
        canonicalize_factors(outer_ab)
        canonicalize_factors(outer_ba)
        assert structural_key(outer_ab) == structural_key(outer_ba)
        before = structural_key(outer_ab)
        canonicalize_factors(outer_ab)
        assert structural_key(outer_ab) == before

    def test_generator_and_operators_emit_canonical_trees(self):
        from repro.core.compile import canonicalize_factors
        from repro.core.expression import structural_key

        settings = CaffeineSettings(p_operator_factor=0.9,
                                    population_size=10, n_generations=1)
        generator = ExpressionGenerator(2, settings,
                                        rng=np.random.default_rng(23))
        operators = VariationOperators(generator, settings)
        population = [Individual(bases=generator.random_basis_functions())
                      for _ in range(12)]
        children = [operators.vary(population[i], population[(i + 1) % 12])
                    for i in range(12)]
        for individual in population + children:
            for basis in individual.bases:
                key_before = structural_key(basis)
                canonicalize_factors(basis)
                assert structural_key(basis) == key_before
