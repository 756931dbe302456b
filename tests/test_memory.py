"""Memory regressions: traced peaks of the calls that touch every retained row.

A ``retain="rows"`` pipeline keeps each consumed frame's preprocessed
row once.  Analysis, checkpoints and resume read those rows in place,
so none of them may allocate another full copy; the k-NN search behind
UMAP and ABOD holds two distance blocks.  Peaks are measured with
``tracemalloc``, which sees numpy's data buffers.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.embed.knn import knn_brute
from repro.pipeline.checkpoint import (
    load_pipeline_checkpoint,
    save_pipeline_checkpoint,
)
from repro.pipeline.monitor import MonitoringPipeline

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
