#!/usr/bin/env python3
"""Full paper flow: symbolic models of a CMOS OTA's performances.

This example reproduces the paper's end-to-end flow on the library's
simulation substrate:

1. sample the OTA's 13-dimensional operating-point design space with a full
   orthogonal-hypercube DOE (243 training samples at dx = 0.10, 243 testing
   samples at dx = 0.03);
2. extract the six performances (ALF, fu, PM, voffset, SRp, SRn) for every
   sample with the square-law OTA model;
3. run CAFFEINE on a chosen performance and print the error/complexity
   trade-off plus the most interesting (test-trade-off) models.

Run with::

    python examples/ota_modeling.py            # models the phase margin
    python examples/ota_modeling.py ALF        # or any other performance
"""

from __future__ import annotations

import sys

from repro.core import CaffeineEngine, CaffeineSettings
from repro.core.report import models_table, tradeoff_table
from repro.experiments import generate_ota_datasets


def main(target: str = "PM") -> None:
    datasets = generate_ota_datasets()
    print(datasets.summary())
    if target not in datasets.performance_names:
        raise SystemExit(f"unknown performance {target!r}; "
                         f"choose from {datasets.performance_names}")

    settings = CaffeineSettings(
        population_size=80,
        n_generations=40,
        random_seed=0,
    )
    print(f"\nRunning CAFFEINE on {target} "
          f"(population {settings.population_size}, "
          f"{settings.n_generations} generations)...")
    train, test = datasets.for_target(target)
    result = CaffeineEngine(train, test, settings).run()
    print(f"done in {result.runtime_seconds:.1f} s; "
          f"{result.n_models} models in the trade-off\n")

    print(tradeoff_table(result.tradeoff,
                         title=f"{target}: training-error vs complexity trade-off"))
    print()
    print(models_table(result.test_tradeoff,
                       title=f"{target}: models on the testing-error trade-off "
                             "(the most interesting ones)"))

    best = result.best_model()
    print(f"\nBest {target} model by testing error:")
    print(f"  {target} ~ {best.expression()}")
    print(f"  train {best.train_error_percent:.2f}%  "
          f"test {best.test_error_percent:.2f}%  "
          f"uses {len(best.used_variables())} of "
          f"{len(best.variable_names)} design variables")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "PM")
