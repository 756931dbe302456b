"""Core sketching throughput: the repo's perf trajectory (BENCH_core.json).

Times the rotation kernels and the end-to-end sketchers at
representative ``(d, l)`` shapes and writes the numbers to
``benchmarks/BENCH_core.json`` so later PRs can be gated on them:

- ``rotation_*_d16384_l64`` — one shrink rotation of a ``128 x 16384``
  buffer (the LCLS detector regime), SVD kernel vs Gram kernel.  The
  tentpole claim is the Gram kernel's >= 1.5x rotation throughput here.
- ``fd_stream_*`` / ``rank_adaptive_*`` / ``arams_*`` — streaming
  rows/sec (and seconds per rotation where the sketcher counts them)
  with the automatic kernel choice.
- ``tree_merge_*`` — latency of a 16-way binary tree merge.
- ``ingest_*_d16384_l64`` — the end-to-end ingest hot path on the
  representative LCLS shape (float32 ``256 x 256`` frames cropped to
  ``128 x 128``, guard on): the staged chain kept as the test oracle
  (``tests/staged_oracle.py``: screen -> whole-stack preprocess ->
  partial_fit, one full-frame copy per stage) vs the fused sweep
  (``repro.pipeline.ingest``) fed the guard's certificates the way
  ``MonitoringPipeline.consume`` feeds it, exact float64 tier and
  float32 frame-math tier.  The gate is the fused float32 tier's >= 2x
  rows/sec over staged, measured in the same run.

``test_regression_vs_baseline`` gates a fresh run against the committed
JSON through the shared comparator (``benchmarks/_gate.py``: >25%
per-case slowdown fails; skips cleanly when no baseline exists).  The
baseline is captured at import time and rewritten only under
``pytest --update-baseline``, so a gating run never dirties the tree.

Absolute numbers are machine-dependent; the committed baseline tracks
*relative* movement on whatever machine regenerates it, which is why the
gate is a generous 25%.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from _gate import compare_cases, load_baseline, write_baseline

from repro.core.arams import ARAMS, ARAMSConfig
from repro.core.frequent_directions import FrequentDirections
from repro.core.merge import tree_merge
from repro.core.rank_adaptive import RankAdaptiveFD
from repro.linalg.svd import RotationWorkspace, fd_rotate
from repro.obs.clock import StopWatch
from repro.obs.registry import NullRegistry
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.preprocess import Preprocessor

BASELINE_PATH = Path(__file__).parent / "BENCH_core.json"
TESTS = Path(__file__).resolve().parent.parent / "tests"

sys.path.insert(0, str(TESTS))
try:
    from staged_oracle import staged_apply_flat
finally:
    sys.path.remove(str(TESTS))

# Read the committed baseline BEFORE any test can rewrite it.
_BASELINE = load_baseline(BASELINE_PATH)


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall seconds (best-of filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        with StopWatch() as sw:
            fn()
        best = min(best, sw.elapsed)
    return best


def _measure_rotation(kernel: str, d: int = 16384, ell: int = 64) -> float:
    rng = np.random.default_rng(0)
    b = rng.standard_normal((2 * ell, d))
    ws = RotationWorkspace(2 * ell, d)
    out = np.zeros((ell, d))
    fd_rotate(b, ell, kernel=kernel, workspace=ws, out=out)  # warm up
    return _best_of(lambda: fd_rotate(b, ell, kernel=kernel, workspace=ws, out=out))


def _measure_stream(make_sketcher, rows: int, d: int) -> dict:
    x = np.random.default_rng(1).standard_normal((rows, d))
    make_sketcher().partial_fit(x[: rows // 4])  # warm up
    holder = {}

    def run():
        sk = make_sketcher()
        sk.partial_fit(x)
        holder["sk"] = sk

    seconds = _best_of(run)
    sk = holder["sk"]
    out = {"rows_per_sec": rows / seconds}
    n_rot = getattr(sk, "n_rotations", None)
    if n_rot:
        out["seconds_per_rotation"] = seconds / n_rot
    return out


def _measure_ingest(mode: str, rows: int = 1024) -> dict:
    """End-to-end ingest on the LCLS shape: guard + preprocess + sketch.

    ``staged`` is the oracle chain (one full-frame copy per stage);
    ``fused`` / ``fused_fast`` run the fused sweep on the float64
    (bit-identical) / float32 (frame math) tier.
    """
    rng = np.random.default_rng(7)
    frames = rng.gamma(2.0, 1.0, size=(rows, 256, 256)).astype(np.float32)
    pre = Preprocessor(threshold=0.5, crop=(128, 128))
    precision = "float32" if mode == "fused_fast" else "float64"

    def run():
        guard = FrameGuard(GuardConfig(), registry=NullRegistry())
        sk = ARAMS(d=128 * 128, config=ARAMSConfig(ell=64, precision=precision))
        batch = guard.screen(frames)
        if mode == "staged":
            sk.partial_fit(staged_apply_flat(pre, batch.accepted))
        else:
            FusedIngest(sk, pre, registry=NullRegistry()).sweep(
                batch.accepted,
                certified_finite=guard.config.max_nonfinite_fraction == 0.0,
                nonneg=batch.accepted_nonneg,
                norms=batch.accepted_norms,
            )

    run()  # warm up
    return {"rows_per_sec": rows / _best_of(run)}


@pytest.fixture(scope="module")
def core_numbers() -> dict:
    """Measure every case once per session (shapes are the expensive part)."""
    cases: dict[str, dict[str, float]] = {}

    svd_s = _measure_rotation("svd")
    gram_s = _measure_rotation("gram")
    cases["rotation_svd_d16384_l64"] = {"seconds_per_rotation": svd_s}
    cases["rotation_gram_d16384_l64"] = {"seconds_per_rotation": gram_s}
    cases["rotation_speedup_d16384_l64"] = {"speedup": svd_s / gram_s}

    cases["fd_stream_d4096_l32"] = _measure_stream(
        lambda: FrequentDirections(d=4096, ell=32), rows=2048, d=4096
    )
    cases["fd_stream_d16384_l64"] = _measure_stream(
        lambda: FrequentDirections(d=16384, ell=64), rows=1024, d=16384
    )
    cases["rank_adaptive_d4096_l32"] = _measure_stream(
        lambda: RankAdaptiveFD(
            d=4096, ell=32, epsilon=0.1, nu=8, rng=np.random.default_rng(2)
        ),
        rows=2048,
        d=4096,
    )
    cases["arams_d4096_l32"] = _measure_stream(
        lambda: ARAMS(
            d=4096, config=ARAMSConfig(ell=32, beta=0.8, epsilon=0.1, nu=8, seed=0)
        ),
        rows=2048,
        d=4096,
    )

    staged = _measure_ingest("staged")
    fused = _measure_ingest("fused")
    fast = _measure_ingest("fused_fast")
    cases["ingest_staged_d16384_l64"] = staged
    cases["ingest_fused_d16384_l64"] = fused
    cases["ingest_fused_fast_d16384_l64"] = fast
    cases["ingest_fused_speedup_d16384_l64"] = {
        "speedup": fast["rows_per_sec"] / staged["rows_per_sec"]
    }

    rng = np.random.default_rng(3)
    sketches = [
        FrequentDirections(d=4096, ell=32).fit(rng.standard_normal((128, 4096))).sketch
        for _ in range(16)
    ]
    tree_merge(sketches, 32)  # warm up
    cases["tree_merge_p16_d4096_l32"] = {
        "seconds": _best_of(lambda: tree_merge(sketches, 32))
    }
    return cases


def test_gram_rotation_speedup(core_numbers, table):
    """Acceptance bar: >= 1.5x rotation throughput at (d=16384, l=64)."""
    svd_s = core_numbers["rotation_svd_d16384_l64"]["seconds_per_rotation"]
    gram_s = core_numbers["rotation_gram_d16384_l64"]["seconds_per_rotation"]
    speedup = core_numbers["rotation_speedup_d16384_l64"]["speedup"]
    table(
        "rotation kernels, 128 x 16384 buffer, ell=64",
        ["kernel", "sec/rotation", "rotations/sec"],
        [["svd", svd_s, 1.0 / svd_s], ["gram", gram_s, 1.0 / gram_s]],
    )
    print(f"speedup: {speedup:.2f}x")
    assert speedup >= 1.5


def test_fused_ingest_speedup(core_numbers, table):
    """Acceptance bar: fused float32 ingest >= 2x staged rows/sec at
    d=16384 (256 x 256 float32 frames cropped to 128 x 128, guard on),
    compared within the same run so machine variance cancels."""
    staged = core_numbers["ingest_staged_d16384_l64"]["rows_per_sec"]
    fused = core_numbers["ingest_fused_d16384_l64"]["rows_per_sec"]
    fast = core_numbers["ingest_fused_fast_d16384_l64"]["rows_per_sec"]
    speedup = core_numbers["ingest_fused_speedup_d16384_l64"]["speedup"]
    table(
        "ingest hot path, 1024 float32 256x256 frames -> crop 128x128, ell=64",
        ["path", "rows/sec"],
        [
            ["staged (oracle chain)", staged],
            ["fused float64 (bit-identical)", fused],
            ["fused float32 frame math", fast],
        ],
    )
    print(f"fused-fast speedup over staged: {speedup:.2f}x")
    assert fused > staged  # the exact tier must already win
    assert speedup >= 2.0


def test_streaming_rates_positive(core_numbers, table):
    rows = [
        [name, m.get("rows_per_sec", ""), m.get("seconds_per_rotation", "")]
        for name, m in core_numbers.items()
        if "rows_per_sec" in m
    ]
    table("streaming throughput", ["case", "rows/sec", "sec/rotation"], rows)
    assert all(r[1] > 0 for r in rows)


def test_write_baseline(core_numbers, update_baseline):
    """Refresh benchmarks/BENCH_core.json (only under --update-baseline)."""
    if not update_baseline:
        pytest.skip("baseline unchanged; rerun with --update-baseline to refresh")
    write_baseline(
        BASELINE_PATH,
        core_numbers,
        command="PYTHONPATH=src python -m pytest benchmarks/bench_core.py -s "
                "--update-baseline",
    )
    assert load_baseline(BASELINE_PATH)["cases"]


def test_regression_vs_baseline(core_numbers, table):
    """Fail when any case regressed >25% against the committed baseline."""
    if _BASELINE is None:
        pytest.skip("no committed BENCH_core.json baseline; run once with "
                    "--update-baseline and commit it")
    rows, failures = compare_cases(core_numbers, _BASELINE, name="core")
    table(
        "regression vs committed baseline (ratio > 1 = slower)",
        ["case", "metric", "baseline", "fresh", "ratio"],
        rows,
    )
    assert not failures, "; ".join(failures)


# pytest-benchmark variants of the headline cases, for --benchmark-* tooling.
def test_bench_rotation_gram(benchmark):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((128, 16384))
    ws = RotationWorkspace(128, 16384)
    out = np.zeros((64, 16384))
    benchmark(lambda: fd_rotate(b, 64, kernel="gram", workspace=ws, out=out))


def test_bench_rotation_svd(benchmark):
    rng = np.random.default_rng(0)
    b = rng.standard_normal((128, 16384))
    out = np.zeros((64, 16384))
    benchmark(lambda: fd_rotate(b, 64, kernel="svd", out=out))


def test_bench_fd_stream(benchmark):
    x = np.random.default_rng(1).standard_normal((2048, 4096))
    benchmark(lambda: FrequentDirections(d=4096, ell=32).partial_fit(x))
