"""Cross-module integration tests: the paper's claims end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import adjusted_rand_index, cluster_purity
from repro.core.arams import ARAMSConfig
from repro.core.errors import relative_covariance_error
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
from repro.data.stream import EventStream
from repro.data.synthetic import sharded_synthetic_dataset, synthetic_dataset
from repro.parallel.runner import DistributedSketchRunner
from repro.pipeline.monitor import MonitoringPipeline


class TestSketchToLatentConsistency:
    def test_sampled_adaptive_sketch_supports_pca(self):
        """ARAMS with both accelerations still yields a usable basis."""
        a = synthetic_dataset(n=2000, d=256, rank=60, profile="exponential",
                              rate=0.05, seed=0)
        from repro.core.arams import ARAMS
        from repro.embed.pca import SketchPCA

        sk = ARAMS(d=256, config=ARAMSConfig(ell=16, beta=0.75, epsilon=0.02,
                                             nu=8, seed=0)).fit(a)
        pca = SketchPCA(sk.compact_sketch(), n_components=10)
        z = pca.transform(a)
        recon = pca.inverse_transform(z)
        rel = np.sum((a - recon) ** 2) / np.sum(a * a)
        # Compare against the best possible rank-10 residual: the
        # sketch basis must be within 20% of the optimum.
        import scipy.linalg

        s = scipy.linalg.svdvals(a)
        optimal = np.sum(s[10:] ** 2) / np.sum(s**2)
        assert rel < optimal * 1.2


class TestDistributedPipeline:
    def test_sharded_sketch_matches_single_stream_quality(self):
        shards = sharded_synthetic_dataset(8, 250, 128, rank=60,
                                           profile="cubic", rate=0.05, seed=1)
        data = np.vstack(shards)
        dist = DistributedSketchRunner(ell=24, strategy="tree").run(shards)
        from repro.core.frequent_directions import FrequentDirections

        single = FrequentDirections(128, 24).fit(data)
        e_dist = relative_covariance_error(data, dist.sketch)
        e_single = relative_covariance_error(data, single.sketch)
        assert e_dist <= 2 * e_single + 1e-6


class TestBeamScenario:
    @pytest.mark.slow
    def test_exotic_profiles_separate_in_embedding(self):
        """Fig. 5: exotic modes deviate from the zero-order manifold."""
        cfg = BeamProfileConfig(shape=(48, 48), exotic_fraction=0.06)
        gen = BeamProfileGenerator(cfg, seed=2)
        images, truth = gen.sample(400)
        pipe = MonitoringPipeline(
            image_shape=(48, 48), seed=0, n_latent=12,
            umap={"n_epochs": 120, "n_neighbors": 12},
            sketch=ARAMSConfig(ell=20, beta=0.9, epsilon=0.1, nu=5, seed=0),
        )
        res = pipe.consume(images).analyze()
        emb = res.embedding
        exotic = truth["exotic"]
        zero_center = emb[~exotic].mean(axis=0)
        d_zero = np.linalg.norm(emb[~exotic] - zero_center, axis=1)
        d_exotic = np.linalg.norm(emb[exotic] - zero_center, axis=1)
        # Exotic shots sit farther from the main cloud on average.
        assert np.median(d_exotic) > np.median(d_zero) * 1.5


class TestDiffractionScenario:
    @pytest.mark.slow
    def test_quadrant_classes_recovered(self):
        """Fig. 6: diffraction shots cluster by quadrant weights."""
        cfg = DiffractionConfig(shape=(48, 48), n_classes=4, speckle=0.15)
        gen = DiffractionGenerator(cfg, seed=3)
        images, truth = gen.sample(400)
        pipe = MonitoringPipeline(
            image_shape=(48, 48), seed=0, n_latent=10,
            umap={"n_epochs": 150, "n_neighbors": 15},
            optics={"min_samples": 15},
            sketch=ARAMSConfig(ell=16, beta=0.9, seed=0),
            outlier_contamination=None,
        )
        res = pipe.consume(images).analyze()
        assert res.n_clusters >= 3
        assert cluster_purity(truth["label"], res.labels) > 0.85
        assert adjusted_rand_index(truth["label"], res.labels) > 0.5


class TestStreamingScenario:
    def test_event_stream_through_pipeline(self):
        gen = BeamProfileGenerator(BeamProfileConfig(shape=(32, 32)), seed=4)
        stream = EventStream(gen, n_shots=200, rep_rate=120.0, batch_size=64)
        pipe = MonitoringPipeline(
            image_shape=(32, 32), seed=0, n_latent=8,
            umap={"n_epochs": 60, "n_neighbors": 10},
            sketch=ARAMSConfig(ell=12, beta=0.85, epsilon=0.1, nu=4, seed=0),
        )
        for images, _, _ in stream.batches():
            pipe.consume(images)
        assert pipe.n_images == 200
        res = pipe.analyze()
        assert res.embedding.shape == (200, 2)
        # Online throughput beats the LCLS-I rep rate at this frame size.
        assert pipe.throughput_hz() > 120.0

    def test_retain_latent_stream_close_to_rows_mode(self):
        """Bounded-memory mode should yield a comparable latent geometry."""
        gen = BeamProfileGenerator(BeamProfileConfig(shape=(32, 32)), seed=5)
        images, _ = gen.sample(300)

        def run(retain):
            pipe = MonitoringPipeline(
                image_shape=(32, 32), seed=0, n_latent=8,
                umap={"n_epochs": 50, "n_neighbors": 10},
                sketch=ARAMSConfig(ell=16, beta=1.0, seed=0),
                retain=retain,
            )
            for i in range(0, 300, 100):
                pipe.consume(images[i : i + 100])
            return pipe.analyze().latent

        rows = run("rows")
        latent = run("latent")
        # Same shapes; geometry similar: compare pairwise-distance spearman-ish.
        assert rows.shape[0] == latent.shape[0]
        sub = np.arange(0, 300, 10)
        d_rows = np.linalg.norm(rows[sub][:, None] - rows[sub][None], axis=-1).ravel()
        d_lat = np.linalg.norm(latent[sub][:, None] - latent[sub][None], axis=-1).ravel()
        corr = np.corrcoef(d_rows, d_lat)[0, 1]
        assert corr > 0.8


class TestOperationalScenarios:
    def test_checkpointed_pipeline_restart(self, tmp_path):
        """A monitoring deployment that restarts mid-run must produce
        the same sketch as one that never stopped."""
        from repro.core.frequent_directions import FrequentDirections
        from repro.core.persistence import load_sketcher, save_sketcher
        from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
        from repro.pipeline.preprocess import Preprocessor

        gen = BeamProfileGenerator(BeamProfileConfig(shape=(32, 32)), seed=0)
        images, _ = gen.sample(300)
        pre = Preprocessor(normalize="l2", center=True)
        rows = pre.apply_flat(images)

        continuous = FrequentDirections(1024, 12).fit(rows)
        first = FrequentDirections(1024, 12)
        first.partial_fit(rows[:140])
        ckpt = save_sketcher(first, tmp_path / "mid.npz")
        second = load_sketcher(ckpt)
        second.partial_fit(rows[140:])
        np.testing.assert_allclose(continuous.sketch, second.sketch, atol=1e-10)

    @pytest.mark.slow
    def test_hdbscan_backend_recovers_diffraction_classes(self):
        """Fig. 6 scenario through the alternative clustering backend."""
        from repro.cluster.metrics import cluster_purity
        from repro.data.diffraction import DiffractionConfig, DiffractionGenerator

        cfg = DiffractionConfig(shape=(48, 48), n_classes=4, speckle=0.15)
        gen = DiffractionGenerator(cfg, seed=3)
        images, truth = gen.sample(400)
        pipe = MonitoringPipeline(
            image_shape=(48, 48), seed=0, n_latent=10,
            umap={"n_epochs": 150, "n_neighbors": 15},
            cluster_method="hdbscan",
            hdbscan={"min_cluster_size": 30},
            sketch=ARAMSConfig(ell=16, beta=0.9, seed=0),
            outlier_contamination=None,
        )
        res = pipe.consume(images).analyze()
        assert res.n_clusters >= 3
        assert cluster_purity(truth["label"], res.labels) > 0.85
