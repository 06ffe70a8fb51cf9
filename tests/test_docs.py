"""The advertised API cannot rot: doctest the package quickstart.

The package docstring of :mod:`repro` *is* the documentation users see
first; its examples run here (and in CI's examples-smoke job) so a
refactor that breaks the quickstart breaks the build.  Every script under
``examples/`` is imported here too: their work is guarded by
``__main__``, so importing checks that every name they use still exists.
"""

from __future__ import annotations

import doctest
import importlib.util
import pathlib

import pytest

import repro

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parents[1]
                   / "examples").glob("*.py"))


def test_package_docstring_examples_run():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0, "the quickstart lost its examples"
    assert results.failed == 0


def test_advertised_names_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name}"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
