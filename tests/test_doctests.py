"""Run the Examples blocks in module docstrings as doctests.

Every public class/function with an ``Examples`` section is executable
documentation; this test keeps those examples from rotting.  Modules
whose examples involve nondeterministic output (timings) are excluded
explicitly rather than silently skipped.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = [
    "repro.core.frequent_directions",
    "repro.core.arams",
    "repro.core.baselines",
    "repro.core.forgetting",
    "repro.cluster.optics",
    "repro.cluster.hdbscan",
    "repro.embed.pca",
    "repro.embed.umap",
    "repro.data.stream",
    "repro.data.xpcs",
    "repro.parallel.comm",
    "repro.pipeline.preprocess",
    "repro.pipeline.drift",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
    # Each listed module must actually contain at least one example —
    # otherwise the list silently stops guarding anything.
    assert results.attempted > 0, f"{module_name} has no doctests; remove it from MODULES"
