"""Snapshot publication: bit-identity with ingest, immutability, retention.

The load-bearing acceptance test lives here: interleaving
:meth:`~repro.serve.snapshot.SnapshotStore.publish` with ingest leaves
the sketching state **bit-identical** to an unpublished run — same
buffer bytes, same counters, same retained rows.  The read path must
never tax or perturb the write path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.linalg.svd import thin_svd
from repro.obs.registry import Registry
from repro.pipeline.monitor import MonitoringPipeline
from repro.serve import SnapshotStore
from repro.serve.snapshot import _sketch_spectrum

pytestmark = pytest.mark.serve

SHOTS, SIDE, BATCH = 600, 32, 100


@pytest.fixture(scope="module")
def stream() -> np.ndarray:
    rng = np.random.default_rng(41)
    return np.abs(rng.normal(1.0, 0.25, (SHOTS, SIDE, SIDE)))


def _make_pipe() -> MonitoringPipeline:
    return MonitoringPipeline(
        image_shape=(SIDE, SIDE),
        seed=0,
        sketch=ARAMSConfig(ell=16, beta=0.8, epsilon=0.05, seed=0),
        registry=Registry(),
    )


def _ingest(pipe: MonitoringPipeline, stream: np.ndarray) -> MonitoringPipeline:
    for start in range(0, SHOTS, BATCH):
        pipe.consume(stream[start : start + BATCH])
    return pipe


def _state_fingerprint(pipe: MonitoringPipeline) -> dict:
    """Every piece of mutable sketching state, as comparable bytes/ints."""
    fd = pipe.sketcher.sketcher
    return {
        "buffer": fd._buffer.tobytes(),
        "next_zero": fd._next_zero,
        "sketch_rows": fd._sketch_rows,
        "n_rotations": fd.n_rotations,
        "ell": pipe.sketcher.ell,
        "n_images": pipe.n_images,
        "n_offered": pipe.n_offered,
        "retained": pipe.retained_rows.tobytes(),
    }


class TestBitIdentity:
    def test_publishing_leaves_ingest_bit_identical(self, stream):
        """The acceptance regression: publish ON vs OFF, same state bytes."""
        bare = _ingest(_make_pipe(), stream)

        published = _make_pipe()
        store = published.attach_snapshot_store(
            SnapshotStore(registry=published.registry), every_batches=2
        )
        _ingest(published, stream)

        assert store.published >= 2  # the interleaving actually happened
        a, b = _state_fingerprint(bare), _state_fingerprint(published)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], f"publication perturbed ingest state: {key}"

    def test_mid_stream_publish_equals_end_state(self, stream):
        """Publishing between every pair of batches still changes nothing."""
        bare = _ingest(_make_pipe(), stream)
        pipe = _make_pipe()
        store = SnapshotStore(registry=pipe.registry)
        for start in range(0, SHOTS, BATCH):
            pipe.consume(stream[start : start + BATCH])
            store.publish(pipe)
        assert _state_fingerprint(pipe) == _state_fingerprint(bare)
        assert store.published == SHOTS // BATCH


class TestSnapshotContents:
    @pytest.fixture(scope="class")
    def published(self, stream):
        pipe = _make_pipe()
        store = pipe.attach_snapshot_store(
            SnapshotStore(registry=pipe.registry), every_batches=2
        )
        _ingest(pipe, stream)
        return pipe, store

    def test_arrays_are_immutable(self, published):
        _, store = published
        snap = store.latest()
        for name in (
            "sketch",
            "singular_values",
            "basis",
            "explained_variance_ratio",
            "reservoir",
        ):
            arr = getattr(snap, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[tuple(0 for _ in arr.shape)] = 0.0

    def test_spectrum_matches_exact_svd(self, published):
        _, store = published
        snap = store.latest()
        _, s_ref, vt_ref = thin_svd(np.asarray(snap.sketch))
        k = snap.k
        assert np.allclose(snap.singular_values[:k], s_ref[:k], rtol=1e-10)
        # Basis columns span the same directions (signs may differ).
        dots = np.abs(np.einsum("ij,ij->j", snap.basis, vt_ref[:k].T))
        assert np.all(dots > 1.0 - 1e-9)

    def test_basis_is_orthonormal(self, published):
        _, store = published
        snap = store.latest()
        gram = snap.basis.T @ snap.basis
        assert np.allclose(gram, np.eye(snap.k), atol=1e-10)

    def test_bookkeeping_matches_pipeline(self, published):
        pipe, store = published
        snap = store.latest()
        assert snap.n_images == pipe.n_images
        assert snap.n_offered == pipe.n_offered
        assert snap.d == SIDE * SIDE
        assert 0 < snap.k <= pipe.n_latent
        assert snap.reservoir.shape[1] == snap.k
        assert 0 < snap.reservoir.shape[0] <= store.reservoir_size
        stats = snap.stats()
        assert stats["epoch"] == snap.epoch
        assert len(stats["singular_values"]) == snap.singular_values.shape[0]


class TestSpectrumFastPath:
    def test_raw_rows_fall_back_to_exact_factorization(self):
        """Rows that are not diag(s) @ Vt must not take the norm fast path."""
        rng = np.random.default_rng(3)
        b = rng.normal(size=(6, 40))
        s, vt = _sketch_spectrum(b)
        _, s_ref, vt_ref = thin_svd(b)
        assert np.allclose(s[: len(s_ref)], s_ref, rtol=1e-9)
        k = min(len(s), len(s_ref))
        dots = np.abs(np.einsum("ij,ij->i", vt[:k], vt_ref[:k]))
        assert np.all(dots > 1.0 - 1e-9)

    def test_orthogonal_form_is_read_directly(self):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.normal(size=(40, 5)))
        s_true = np.array([9.0, 5.0, 2.0, 1.0, 0.5])
        b = s_true[:, np.newaxis] * q.T
        s, vt = _sketch_spectrum(b)
        assert np.allclose(s, s_true, rtol=1e-12)
        assert np.allclose(np.abs(np.einsum("ij,ij->i", vt, q.T)), 1.0)


class TestRetention:
    def test_keep_evicts_oldest_epochs(self, stream):
        pipe = _make_pipe()
        store = SnapshotStore(keep=3, registry=pipe.registry)
        for start in range(0, SHOTS, BATCH):
            pipe.consume(stream[start : start + BATCH])
            store.publish(pipe)
        total = SHOTS // BATCH
        assert store.published == total
        assert store.epochs() == [total - 2, total - 1, total]
        assert (total - 3) not in store
        with pytest.raises(KeyError):
            store.get(1)
        assert store.latest().epoch == total
        assert store.get(total - 1).epoch == total - 1

    def test_empty_store_raises(self):
        store = SnapshotStore(registry=Registry())
        with pytest.raises(KeyError):
            store.latest()

    def test_publish_before_data_raises(self):
        pipe = _make_pipe()
        store = SnapshotStore(registry=pipe.registry)
        with pytest.raises(RuntimeError):
            store.publish(pipe)

    def test_metrics_track_publication(self, stream):
        registry = Registry()
        pipe = MonitoringPipeline(
            image_shape=(SIDE, SIDE),
            seed=0,
            sketch=ARAMSConfig(ell=16, beta=0.8, epsilon=0.05, seed=0),
            registry=registry,
        )
        store = pipe.attach_snapshot_store(
            SnapshotStore(registry=registry), every_batches=3
        )
        _ingest(pipe, stream)
        published = registry.get_sample("serve_snapshots_published_total")
        assert published.value == store.published
        assert registry.get_sample("serve_snapshot_epoch").value == store.latest().epoch
