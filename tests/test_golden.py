"""Golden-front fingerprints: fixed-seed fronts stay bit-identical.

The checked-in ``tests/golden/*.json`` files pin the fronts of fixed-seed
workloads (recipe and regeneration instructions in
``tests/golden/regen.py``).  Any change that alters an evolved front --
a different error bit, complexity or basis structure -- fails here.
"""

from __future__ import annotations

import pytest

from golden.regen import (CASES, front_fingerprint, load_golden, pm_settings,
                          run_target)
from repro.core.settings import CaffeineSettings


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_fronts(case):
    assert CASES[case]() == load_golden(case)


#: settings that must never change a front: each variant reruns the
#: ``pm_pop100`` case and must reproduce its golden fingerprint
RESULT_NEUTRAL_VARIANTS = {
    "gram-pool-0": dict(gram_pool_size=0),
    "gram-pool-0-no-column-cache": dict(gram_pool_size=0, basis_cache_size=0),
}


@pytest.mark.parametrize("variant", sorted(RESULT_NEUTRAL_VARIANTS))
def test_result_neutral_settings_keep_the_front(variant):
    result = run_target("PM", pm_settings(**RESULT_NEUTRAL_VARIANTS[variant]))
    assert front_fingerprint([result]) == load_golden("pm_pop100")["PM"]


def test_default_settings_fingerprint_is_pinned():
    # Checkpoints and artifacts carry this digest; a change here means
    # every stored checkpoint stops resuming.
    assert CaffeineSettings().fingerprint() == (
        "050ad1f8b367a8d7dd7df6de510f2f1efd354b372476316fb5d0293cccaa81f1")
