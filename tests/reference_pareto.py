"""Pure-Python reference Pareto kernels: the oracle for ``repro.core.pareto``.

These are the original, loop-based implementations of the three Pareto
kernels.  :mod:`repro.core.pareto` ships only the vectorized NumPy versions;
the property tests in ``tests/test_properties.py`` and
``tests/test_core_pareto_nsga2.py`` compare them against these, which must
agree exactly: same front membership, fronts in ascending index order, and
crowding distances from the same floating-point operations in the same
order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.pareto import dominates

__all__ = ["nondominated_indices", "fast_nondominated_sort",
           "crowding_distances"]


def nondominated_indices(
        objective_vectors: Sequence[Sequence[float]]) -> List[int]:
    n = len(objective_vectors)
    result = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if i != j and dominates(objective_vectors[j], objective_vectors[i]):
                dominated = True
                break
        if not dominated:
            result.append(i)
    return result


def fast_nondominated_sort(
        objective_vectors: Sequence[Sequence[float]]) -> List[List[int]]:
    n = len(objective_vectors)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objective_vectors[i], objective_vectors[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objective_vectors[j], objective_vectors[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        # Canonical ascending order (fronts are sets; the discovery order of
        # the peeling loop is an implementation accident the vectorized
        # kernels should not have to replicate).
        next_front.sort()
        current += 1
        fronts.append(next_front)
    fronts.pop()  # last front is always empty
    return fronts


def crowding_distances(
        objective_vectors: Sequence[Sequence[float]]) -> List[float]:
    n = len(objective_vectors)
    if n == 0:
        return []
    n_objectives = len(objective_vectors[0])
    distances = [0.0] * n
    for m in range(n_objectives):
        order = sorted(range(n), key=lambda i, m=m: objective_vectors[i][m])
        lowest = objective_vectors[order[0]][m]
        highest = objective_vectors[order[-1]][m]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = highest - lowest
        if span <= 0 or not (span < float("inf")):
            continue
        for position in range(1, n - 1):
            previous_value = objective_vectors[order[position - 1]][m]
            next_value = objective_vectors[order[position + 1]][m]
            distances[order[position]] += (next_value - previous_value) / span
    return distances
