"""Golden-front fingerprints: the fixed-seed workloads and their recipe.

Every ``tests/golden/<case>.json`` file pins the sha256 fingerprints of the
Pareto fronts one fixed-seed workload evolves.  A front's fingerprint digests,
model by model in trade-off order, ``repr((train_error, complexity,
tuple(repr(structural_key(b)) for b in model.bases)))`` -- the errors and
complexities to the last bit and every basis function's exact structure.
``tests/test_golden.py`` recomputes each case and compares, so any change
that alters an evolved front by a single bit fails tier-1.  This is what
keeps refactors of the engine bit-identical without keeping old code paths
alive as oracles.

Cases (all on the paper's Figure-3 OTA data, ``generate_ota_datasets()``):

``pm_pop100``
    PM at population 100 x 10 generations, 15 bases, seed 2005.
``pm_pop1000``
    PM at population 1000 x 3 generations, 15 bases, seed 2005.
``ota_fast``
    all six OTA targets at ``CaffeineSettings.fast_settings(2005)``.
``checkpoint_resume``
    fu at ``fast_settings(2005)``, interrupted after generation 6 and
    resumed from its checkpoint (equals the uninterrupted ``ota_fast`` fu
    front).
``artifact_roundtrip``
    the ``pm_pop100`` result frozen with ``save_front`` and loaded with
    ``load_front``: the loaded front plus its ``predict_all`` and
    ``rescore`` output on the PM test data, as bytes.

Regenerate only when a change is *meant* to alter evolved fronts, and
justify every regeneration in ``CHANGES.md``::

    PYTHONPATH=src python tests/golden/regen.py              # every case
    PYTHONPATH=src python tests/golden/regen.py pm_pop100    # named cases
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
import tempfile
from typing import Callable, Dict

from repro.core.artifact import load_front, save_front
from repro.core.engine import CaffeineEngine
from repro.core.expression import structural_key
from repro.core.settings import CaffeineSettings
from repro.experiments.setup import generate_ota_datasets

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
SEED = 2005
OTA_TARGETS = ("ALF", "fu", "PM", "voffset", "SRp", "SRn")
#: the checkpointed run stops after this generation and is resumed
INTERRUPT_AFTER = 6


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


@functools.lru_cache(maxsize=None)
def ota_datasets():
    return generate_ota_datasets()


def pm_settings(**overrides) -> CaffeineSettings:
    """Settings of the ``pm_pop100`` case, with optional field overrides."""
    fields = dict(population_size=100, n_generations=10,
                  max_basis_functions=15, random_seed=SEED)
    fields.update(overrides)
    return CaffeineSettings(**fields)


def run_target(target: str, settings: CaffeineSettings):
    train, test = ota_datasets().for_target(target)
    return CaffeineEngine(train, test, settings=settings).run()


@functools.lru_cache(maxsize=None)
def pm_pop100_result():
    return run_target("PM", pm_settings())


def case_pm_pop100() -> Dict[str, str]:
    return {"PM": front_fingerprint([pm_pop100_result()])}


def case_pm_pop1000() -> Dict[str, str]:
    result = run_target("PM", pm_settings(population_size=1000,
                                          n_generations=3))
    return {"PM": front_fingerprint([result])}


def case_ota_fast() -> Dict[str, str]:
    return {target: front_fingerprint(
        [run_target(target, CaffeineSettings.fast_settings(SEED))])
        for target in OTA_TARGETS}


class _Interrupt:
    """Progress callback raising KeyboardInterrupt after one generation."""

    def __init__(self, generation: int) -> None:
        self.generation = generation

    def __call__(self, generation, stats) -> None:
        if generation == self.generation:
            raise KeyboardInterrupt


def case_checkpoint_resume() -> Dict[str, str]:
    train, test = ota_datasets().for_target("fu")
    settings = CaffeineSettings.fast_settings(SEED)
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "fu.ckpt"
        try:
            CaffeineEngine(train, test, settings=settings).run(
                _Interrupt(INTERRUPT_AFTER), checkpoint=path)
        except KeyboardInterrupt:
            pass
        else:
            raise RuntimeError("the checkpointed run was not interrupted")
        result = CaffeineEngine(train, test, settings=settings).run(
            checkpoint=path, resume=True)
    return {"fu": front_fingerprint([result])}


def case_artifact_roundtrip() -> Dict[str, str]:
    _, test = ota_datasets().for_target("PM")
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "pm.front"
        save_front(pm_pop100_result(), path)
        front = load_front(path)
    digest = hashlib.sha256(front_fingerprint([front]).encode())
    digest.update(front.predict_all(test.X).tobytes())
    digest.update(repr(front.rescore(test.X, test.y)).encode())
    return {"PM": digest.hexdigest()}


CASES: Dict[str, Callable[[], Dict[str, str]]] = {
    "pm_pop100": case_pm_pop100,
    "pm_pop1000": case_pm_pop1000,
    "ota_fast": case_ota_fast,
    "checkpoint_resume": case_checkpoint_resume,
    "artifact_roundtrip": case_artifact_roundtrip,
}


def golden_path(case: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{case}.json"


def load_golden(case: str) -> Dict[str, str]:
    """The checked-in fingerprints of one case."""
    return json.loads(golden_path(case).read_text())["fingerprints"]


def write_golden(case: str) -> Dict[str, str]:
    fingerprints = CASES[case]()
    document = {"case": case, "seed": SEED, "fingerprints": fingerprints}
    golden_path(case).write_text(json.dumps(document, indent=2) + "\n")
    return fingerprints


def main(argv) -> int:
    unknown = [case for case in argv if case not in CASES]
    if unknown:
        print(f"unknown case(s) {unknown}; known: {sorted(CASES)}",
              file=sys.stderr)
        return 2
    for case in argv or CASES:
        for name, fingerprint in write_golden(case).items():
            print(f"{case:20s} {name:8s} {fingerprint}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
