"""Golden cross-backend accuracy fixture: selection replays on any machine.

``tests/golden/backend_accuracy.json`` freezes the auto-selector's full
evidence over a seeded (d, rank, drift) x target grid: per-candidate
measured error, modeled throughput, qualification and the winner.
Accuracy is measured on seeded probe streams and throughput comes from
the deterministic cost model (never wall-clock), so every *decision*
replays exactly: keys, ints, ``selected`` and ``meets_target`` compare
with ``==``.  The float fields ``error`` and ``modeled_rows_per_sec``
compare at a declared ``rtol`` (:data:`FLOAT_RTOL`), not bitwise:
numpy's OpenBLAS build picks its GEMM/LAPACK kernels per CPU
(DYNAMIC_ARCH), so the BLAS-derived errors move in their last bits from
one machine to the next — e.g. FD's error in the first regime reads
``...59192`` on one x86 host against the fixture's ``...591974``, and
the randomized backend's errors differ by up to ~1e-13 relative.  A
mismatch beyond that means backend numerics or the selector changed; if
intentional, regenerate with::

    PYTHONPATH=src python tools/gen_backend_golden.py

and review the fixture diff like code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.backends

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "backend_accuracy.json"


@pytest.fixture(scope="module")
def recomputed():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        from gen_backend_golden import compute_golden
    finally:
        sys.path.remove(str(REPO / "tools"))
    return compute_golden()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


#: Relative tolerance for the BLAS-derived float fields below; every
#: other field compares exactly.
FLOAT_RTOL = 1e-9
FLOAT_FIELDS = ("error", "modeled_rows_per_sec")


def _assert_replays(got, want, path="fixture", tolerant=False):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_replays(got[key], want[key], f"{path}.{key}", key in FLOAT_FIELDS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_replays(g, w, f"{path}[{i}]")
    elif tolerant:
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=FLOAT_RTOL, abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.timeout(300)
def test_fixture_replays_exactly(recomputed, golden):
    """Same probes, same decisions; floats within :data:`FLOAT_RTOL`."""
    _assert_replays(recomputed, golden)


def test_selector_choice_matches_golden_winner(golden):
    """The golden winner is the fastest qualifying candidate per regime
    (or the most accurate when nothing qualifies) — i.e. the fixture is
    internally consistent, not just frozen."""
    for regime in golden["regimes"]:
        candidates = regime["candidates"]
        qualifying = {
            name: c for name, c in candidates.items() if c["meets_target"]
        }
        if qualifying:
            expected = max(
                qualifying.items(),
                key=lambda kv: (kv[1]["modeled_rows_per_sec"], kv[0]),
            )[0]
        else:
            expected = min(
                candidates.items(), key=lambda kv: (kv[1]["error"], kv[0])
            )[0]
        assert regime["selected"] == expected, regime


def test_nonfd_backend_wins_some_regime(golden):
    """The portfolio pays off: at least one regime has a non-FD backend
    both qualifying on the error target and out-throughputting FD."""
    payoff = [
        regime
        for regime in golden["regimes"]
        if regime["selected"] != "fd"
        and regime["candidates"][regime["selected"]]["meets_target"]
        and (
            regime["candidates"][regime["selected"]]["modeled_rows_per_sec"]
            > regime["candidates"]["fd"]["modeled_rows_per_sec"]
        )
    ]
    assert payoff, "no regime where a non-FD backend qualified and won"


def test_every_candidate_probed_everywhere(golden):
    from repro.core.selector import AUTO_CANDIDATES

    for regime in golden["regimes"]:
        assert set(regime["candidates"]) == set(AUTO_CANDIDATES)
        for candidate in regime["candidates"].values():
            assert candidate["error"] >= 0.0
            assert candidate["modeled_rows_per_sec"] > 0.0
