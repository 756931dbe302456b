"""Unit tests for the end-to-end monitoring pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor


@pytest.fixture(scope="module")
def beam_images():
    gen = BeamProfileGenerator(BeamProfileConfig(shape=(32, 32)), seed=0)
    images, truth = gen.sample(250)
    return images, truth


def make_pipe(**kw):
    defaults = dict(
        image_shape=(32, 32),
        seed=0,
        n_latent=10,
        umap={"n_epochs": 60, "n_neighbors": 10},
        sketch=ARAMSConfig(ell=16, beta=0.9, epsilon=0.1, nu=4, seed=0),
    )
    defaults.update(kw)
    return MonitoringPipeline(**defaults)


class TestValidation:
    def test_bad_retain(self):
        with pytest.raises(ValueError, match="retain"):
            make_pipe(retain="all")

    def test_bad_n_latent(self):
        with pytest.raises(ValueError, match="n_latent"):
            make_pipe(n_latent=1)

    def test_analyze_before_consume(self):
        with pytest.raises(RuntimeError, match="no data"):
            make_pipe().analyze()

    def test_sketcher_before_consume(self):
        with pytest.raises(RuntimeError, match="no data"):
            _ = make_pipe().sketcher

    def test_dimension_change_rejected(self, beam_images, rng):
        pipe = make_pipe()
        pipe.consume(beam_images[0][:10])
        with pytest.raises(ValueError, match="dimension"):
            pipe.consume(rng.random((4, 16, 16)))


class TestConsume:
    def test_counts_and_timers(self, beam_images):
        images, _ = beam_images
        pipe = make_pipe()
        pipe.consume(images[:100]).consume(images[100:150])
        assert pipe.n_images == 150
        assert pipe.sketch_time > 0
        assert pipe.preprocess_time > 0
        assert 0 < pipe.throughput_hz() < np.inf

    def test_analyze_output_shapes(self, beam_images):
        images, _ = beam_images
        res = make_pipe().consume(images).analyze()
        n = len(images)
        assert res.latent.shape[0] == n
        assert res.embedding.shape == (n, 2)
        assert res.labels.shape == (n,)
        assert res.outliers.shape == (n,)
        assert res.outlier_scores.shape == (n,)
        assert set(res.timings) >= {"project", "umap", "optics", "abod"}

    def test_batched_equals_oneshot_counts(self, beam_images):
        images, _ = beam_images
        one = make_pipe().consume(images)
        many = make_pipe()
        for i in range(0, len(images), 50):
            many.consume(images[i : i + 50])
        assert one.n_images == many.n_images
        assert one.sketcher.ell == many.sketcher.ell

    def test_outliers_disabled(self, beam_images):
        images, _ = beam_images
        res = make_pipe(outlier_contamination=None).consume(images).analyze()
        assert not res.outliers.any()
        assert "abod" not in res.timings

    def test_retain_latent_bounded_memory(self, beam_images):
        images, _ = beam_images
        pipe = make_pipe(retain="latent")
        for i in range(0, len(images), 50):
            pipe.consume(images[i : i + 50])
        res = pipe.analyze()
        assert res.embedding.shape == (len(images), 2)
        assert pipe.retained_rows.size == 0  # no raw rows kept

    def test_n_clusters_property(self, beam_images):
        images, _ = beam_images
        res = make_pipe().consume(images).analyze()
        assert res.n_clusters == len(set(res.labels.tolist()) - {-1})


class TestSharded:
    def test_consume_sharded_matches_counts(self, beam_images):
        images, _ = beam_images
        pipe = make_pipe()
        pipe.consume_sharded(images[:120], n_ranks=4)
        assert pipe.n_images == 120
        assert pipe.sketch_time > 0

    def test_mixed_ingestion(self, beam_images):
        images, _ = beam_images
        pipe = make_pipe()
        pipe.consume(images[:80])
        pipe.consume_sharded(images[80:160], n_ranks=4)
        res = pipe.analyze()
        assert res.embedding.shape == (160, 2)

    def test_sketch_time_is_wall_time(self, beam_images):
        """The virtual makespan stays out of the wall-clock sketch stage."""
        from repro.obs.clock import StopWatch
        from repro.parallel.cost_model import CommCostModel

        images, _ = beam_images
        pipe = make_pipe()
        with StopWatch() as sw:
            pipe.consume_sharded(
                images[:120], n_ranks=4, cost_model=CommCostModel(alpha=100.0)
            )
        assert 0 < pipe.sketch_time < sw.elapsed
        makespan = pipe.registry.get_sample(
            "parallel_makespan_seconds", {"strategy": "tree"}
        )
        assert makespan.count == 1
        assert makespan.sum >= 100.0 > sw.elapsed  # alpha per merge message


class TestQuality:
    def test_beam_axes_track_physics(self, beam_images):
        """Fig. 5's core claim at small scale: embedding axes correlate
        with asymmetry and circularity."""
        from repro.data.beam import measured_circularity
        from repro.pipeline.results import embedding_axis_correlations

        images, truth = beam_images
        res = make_pipe(umap={"n_epochs": 150, "n_neighbors": 15}).consume(
            images
        ).analyze()
        corr = embedding_axis_correlations(
            res.embedding,
            {
                "asymmetry": truth["asymmetry"],
                "circularity": measured_circularity(images),
            },
            mask=~truth["exotic"],
        )
        # Thresholds are modest: this test runs at reduced resolution
        # (32x32, 250 shots, 150 epochs); the Fig. 5 bench exercises the
        # full-strength configuration and demands stronger correlations.
        assert corr["asymmetry"][0] > 0.35
        assert corr["circularity"][0] > 0.4

    def test_custom_preprocessor_honoured(self, beam_images):
        images, _ = beam_images
        pre = Preprocessor(crop=(16, 16), normalize="l2", center=False)
        pipe = make_pipe(preprocessor=pre)
        pipe.consume(images[:60])
        assert pipe.sketcher.d == 256


class TestClusterBackends:
    def test_hdbscan_backend(self, beam_images):
        images, _ = beam_images
        res = make_pipe(
            cluster_method="hdbscan",
            hdbscan={"min_cluster_size": 20},
        ).consume(images).analyze()
        assert "hdbscan" in res.timings
        assert res.labels.shape == (len(images),)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="cluster_method"):
            make_pipe(cluster_method="kmeans")

    def test_backends_agree_on_cluster_scale(self, beam_images):
        """Both backends should see the same broad structure (beam data:
        one dominant manifold, few clusters)."""
        images, _ = beam_images
        res_o = make_pipe().consume(images).analyze()
        res_h = make_pipe(cluster_method="hdbscan").consume(images).analyze()
        assert abs(res_o.n_clusters - res_h.n_clusters) <= 4


class TestStageSeconds:
    """A stage's seconds have one source, the supervisor's
    ``analyze.<stage>`` span: ``stages``, ``timings`` and the span
    histogram agree, for a degraded stage too."""

    @pytest.mark.parametrize("umap_fails", [False, True])
    def test_timings_stages_and_spans_agree(self, beam_images, monkeypatch, umap_fails):
        if umap_fails:

            def boom(*a, **kw):
                raise RuntimeError("synthetic UMAP failure")

            monkeypatch.setattr("repro.pipeline.monitor.UMAP", boom)
        pipe = make_pipe()
        res = pipe.consume(beam_images[0][:120]).analyze()
        assert list(res.timings) == ["project", "umap", "optics", "abod"]
        for name, stage in res.stages.items():
            span = pipe.registry.get_sample(
                "repro_span_seconds", {"span": f"analyze.{name}"}
            )
            assert span.count == 1
            assert res.timings[name] == stage.seconds == span.sum
        assert res.stages["umap"].ok is not umap_fails
        assert res.stages["umap"].seconds > 0


class TestStrideSample:
    """Regression: the float linspace construction could floor two grid
    points onto the same index and return fewer than min(take, total)
    rows after the duplicates collapsed."""

    def test_exact_count_for_all_small_totals(self):
        from repro.pipeline.monitor import _stride_sample

        rng = np.random.default_rng(0)
        for total in range(1, 40):
            parts = [rng.standard_normal((total, 3))]
            for take in range(1, 2 * total + 2):
                out = _stride_sample(parts, total, take)
                assert out.shape == (min(take, total), 3), (total, take)
                # Rows are distinct stream positions in order.
                ref = parts[0]
                idx = [int(np.argmax((ref == row).all(axis=1))) for row in out]
                assert idx == sorted(set(idx)), (total, take)

    def test_first_and_last_rows_always_included(self):
        from repro.pipeline.monitor import _stride_sample

        parts = [np.arange(17, dtype=float).reshape(17, 1)]
        out = _stride_sample(parts, 17, 5)
        assert out[0, 0] == 0.0 and out[-1, 0] == 16.0
