"""Golden-front fingerprints: fixed-seed fronts stay bit-identical.

The checked-in ``tests/golden/*.json`` files pin the fronts of fixed-seed
workloads (recipe and regeneration instructions in
``tests/golden/regen.py``).  Any change that alters an evolved front --
a different error bit, complexity or basis structure -- fails here.
"""

from __future__ import annotations

import pytest

from golden.regen import (CASES, front_fingerprint, load_golden,
                          ota_datasets, pm_settings)
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import BasisColumnCache
from repro.core.settings import CaffeineSettings


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_fronts(case):
    assert CASES[case]() == load_golden(case)


def test_one_entry_column_cache_keeps_the_front():
    # Cache budgets never change a front: a one-entry column cache (which
    # also bounds the fit cache to one entry) evicts almost everything.
    train, test = ota_datasets().for_target("PM")
    result = CaffeineEngine(train, test, settings=pm_settings(),
                            column_cache=BasisColumnCache(1)).run()
    assert front_fingerprint([result]) == load_golden("pm_pop100")["PM"]


def test_default_settings_fingerprint_is_pinned():
    # Checkpoints and artifacts carry this digest; a change here means
    # every stored checkpoint stops resuming.
    assert CaffeineSettings().fingerprint() == (
        "050ad1f8b367a8d7dd7df6de510f2f1efd354b372476316fb5d0293cccaa81f1")
