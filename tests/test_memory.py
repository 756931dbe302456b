"""Memory regressions: traced peaks of the calls that touch every retained row.

A ``retain="rows"`` pipeline keeps each consumed frame's preprocessed
row once.  Analysis, checkpoints and resume read those rows in place,
so none of them may allocate another full copy; the k-NN search behind
UMAP and ABOD holds two distance blocks.  On the way in, the
preprocessing kernel crops frames before it upcasts or repairs them, so
its scratch is sized to the rows it writes, and the guard counts the
pixels of suspect frames without copying them.  Peaks are measured with
``tracemalloc``, which sees numpy's data buffers.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.arams import ARAMS, ARAMSConfig
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.embed.knn import knn_brute
from repro.obs.registry import NullRegistry
from repro.pipeline.checkpoint import (
    load_pipeline_checkpoint,
    save_pipeline_checkpoint,
)
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor

FRAMES, SIDE, BATCH = 400, 64, 50


def _traced_peak(fn) -> int:
    """Peak bytes allocated, above the start level, while ``fn()`` runs."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - base


@pytest.fixture(scope="module")
def pipe():
    gen = BeamProfileGenerator(BeamProfileConfig(shape=(SIDE, SIDE)), seed=0)
    images, _ = gen.sample(FRAMES)
    p = MonitoringPipeline(
        image_shape=(SIDE, SIDE),
        seed=0,
        n_latent=10,
        umap={"n_epochs": 30, "n_neighbors": 10},
        sketch=ARAMSConfig(ell=16, beta=0.9, epsilon=0.1, nu=4, seed=0),
    )
    for start in range(0, FRAMES, BATCH):
        p.consume(images[start : start + BATCH])
    return p


def _row_bytes(p: MonitoringPipeline) -> int:
    return p.n_images * p.sketcher.d * 8


class TestRetainedRows:
    def test_analyze_projects_rows_in_place(self, pipe):
        peak = _traced_peak(pipe.analyze)
        assert peak < 0.5 * _row_bytes(pipe)

    def test_checkpoint_save_writes_rows_in_place(self, pipe, tmp_path):
        peak = _traced_peak(lambda: save_pipeline_checkpoint(pipe, tmp_path))
        assert peak < 1.5 * _row_bytes(pipe)

    def test_checkpoint_load_adopts_rows(self, pipe, tmp_path):
        save_pipeline_checkpoint(pipe, tmp_path)
        loaded = []
        peak = _traced_peak(lambda: loaded.append(load_pipeline_checkpoint(tmp_path)))
        assert loaded[0].n_images == pipe.n_images
        assert peak < 1.5 * _row_bytes(pipe)


def test_knn_holds_two_distance_blocks():
    x = np.random.default_rng(0).standard_normal((3000, 20))
    peak = _traced_peak(lambda: knn_brute(x, 15))
    assert peak < 2.5 * (1024 * x.shape[0] * 8)


# The ingest shape in miniature: float32 frames center-cropped to half
# their side, as the LCLS benchmark crops 256x256 frames to 128x128.
CROPPED = Preprocessor(threshold=0.02, normalize="l2", center=True, crop=(32, 32))


@pytest.fixture(scope="module")
def beam_float32():
    gen = BeamProfileGenerator(BeamProfileConfig(shape=(SIDE, SIDE)), seed=0)
    return gen.sample(64)[0].astype(np.float32)


class TestIngestScratch:
    def test_apply_flat_scratch_is_crop_sized(self, beam_float32):
        out = np.empty((beam_float32.shape[0], 32 * 32))
        peak = _traced_peak(lambda: CROPPED.apply_flat(beam_float32, out=out))
        assert peak < 2 * out.nbytes

    def test_certified_sweep_scratch_is_crop_sized(self, beam_float32):
        out = np.empty((beam_float32.shape[0], 32 * 32))
        sk = ARAMS(32 * 32, ARAMSConfig(ell=8, seed=0))
        eng = FusedIngest(sk, CROPPED, registry=NullRegistry())
        peak = _traced_peak(
            lambda: eng.sweep(beam_float32, certified_finite=True, nonneg=True, out=out)
        )
        assert peak < 2 * out.nbytes

    def test_guard_copies_no_suspect_frames(self, beam_float32):
        # Every beam frame holds zero pixels, so each one gets the exact
        # dead-pixel count; the first batch arms the guard's state.
        guard = FrameGuard(GuardConfig(norm_sigma=40), registry=NullRegistry())
        guard.screen(beam_float32[:8])
        rest = beam_float32[8:]
        assert all(np.count_nonzero(f) < f.size for f in rest)
        batches = []
        peak = _traced_peak(lambda: batches.append(guard.screen(rest)))
        assert batches[0].n_accepted == rest.shape[0]
        assert peak < 0.25 * rest.nbytes
