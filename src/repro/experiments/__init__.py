"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to one artifact of the paper's evaluation section:

* :mod:`repro.experiments.setup`    -- the common experimental setup
  (Section 6.1): OTA + orthogonal-hypercube DOE -> train/test datasets;
* :mod:`repro.experiments.figure3`  -- error/complexity trade-off curves;
* :mod:`repro.experiments.table1`   -- models under 10 % train and test error;
* :mod:`repro.experiments.table2`   -- the PM model sequence;
* :mod:`repro.experiments.figure4`  -- CAFFEINE vs posynomial comparison;
* :mod:`repro.experiments.ablation` -- extensions: grammar / multi-objective
  ablations against plain GP.

The benchmark harness under ``benchmarks/`` simply calls these drivers with
reduced budgets and prints the same rows/series the paper reports;
``EXPERIMENTS.md`` records the measured numbers next to the paper's.
"""

from repro.experiments.setup import (
    OtaDatasets,
    generate_ota_datasets,
    problems_for_targets,
    session_for_targets,
)
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.ablation import AblationResult, run_ablation

__all__ = [
    "OtaDatasets",
    "generate_ota_datasets",
    "problems_for_targets",
    "session_for_targets",
    "Figure3Result",
    "run_figure3",
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Figure4Result",
    "run_figure4",
    "AblationResult",
    "run_ablation",
]
