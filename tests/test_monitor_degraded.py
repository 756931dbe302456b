"""Fail-soft analysis: every stage failure becomes a DegradedResult.

The monitor must never lose the sketch to an analysis-stage crash; each
stage (project → umap → optics/hdbscan → abod) substitutes its
documented fallback and the degradation is surfaced in the result, the
metrics and the HTML report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.obs.registry import Registry
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.supervisor import DegradedResult, StageFailure, StageSupervisor


class Boom:
    """A stage stand-in that always explodes."""

    def __init__(self, *a, **kw):
        raise RuntimeError("synthetic stage failure")


def make_pipe(registry=None, **kw):
    defaults = dict(
        image_shape=(16, 16),
        seed=0,
        n_latent=6,
        umap={"n_epochs": 30, "n_neighbors": 8},
        sketch=ARAMSConfig(ell=10, beta=1.0, epsilon=None, nu=4, seed=0),
        registry=registry or Registry(),
    )
    defaults.update(kw)
    return MonitoringPipeline(**defaults)


@pytest.fixture
def fed_pipe():
    pipe = make_pipe()
    frames = np.abs(np.random.default_rng(3).normal(1.0, 0.3, (90, 16, 16)))
    pipe.consume(frames)
    return pipe


class TestSupervisorUnit:
    def test_ok_path(self):
        sup = StageSupervisor(Registry())
        assert sup.run("s", lambda: 42, lambda: 0, "zero") == 42
        assert sup.results["s"].ok

    def test_exception_substitutes_fallback(self):
        registry = Registry()
        sup = StageSupervisor(registry)
        out = sup.run("s", Boom, lambda: "plan-b", "plan B")
        assert out == "plan-b"
        r = sup.results["s"]
        assert r.status == "degraded"
        assert r.fallback == "plan B"
        assert "RuntimeError: synthetic stage failure" == r.error
        assert registry.counter(
            "pipeline_stage_failures_total", labels={"stage": "s"}
        ).value == 1
        assert registry.gauge("pipeline_degraded").value == 1.0

    def test_validator_rejects_degenerate_output(self):
        sup = StageSupervisor(Registry())
        out = sup.run(
            "s", lambda: float("nan"), lambda: 0.0, "zero",
            validate=lambda v: "got NaN" if v != v else None,
        )
        assert out == 0.0
        assert "StageFailure: got NaN" == sup.results["s"].error

    def test_fallback_errors_propagate(self):
        sup = StageSupervisor(Registry())
        with pytest.raises(ZeroDivisionError):
            sup.run("s", Boom, lambda: 1 // 0, "broken fallback")

    def test_keyboard_interrupt_propagates(self):
        sup = StageSupervisor(Registry())

        def primary():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            sup.run("s", primary, lambda: 0, "zero")

    def test_seconds_and_summary(self):
        """The stage's seconds are its ``analyze.<stage>`` span's."""
        registry = Registry()
        sup = StageSupervisor(registry)
        sup.run("s", lambda: 1, lambda: 0, "zero")
        span = registry.get_sample("repro_span_seconds", {"span": "analyze.s"})
        assert span.count == 1 and span.sum > 0
        assert sup.results["s"].to_dict() == {
            "stage": "s", "status": "ok", "fallback": None,
            "error": None, "seconds": span.sum,
        }

    def test_degraded_result_roundtrip(self):
        r = DegradedResult("umap", status="degraded", fallback="pca axes",
                           error="E: boom", seconds=0.2)
        assert not r.ok
        assert DegradedResult(**r.to_dict()) == r

    def test_stage_failure_is_runtime_error(self):
        assert issubclass(StageFailure, RuntimeError)


class TestDegradedAnalysis:
    def test_project_failure_zero_latent(self, fed_pipe, monkeypatch):
        monkeypatch.setattr("repro.pipeline.monitor.SketchPCA", Boom)
        result = fed_pipe.analyze()
        assert result.degraded
        assert result.stages["project"].status == "degraded"
        assert result.stages["project"].fallback == "all-zero latent coordinates"
        np.testing.assert_array_equal(result.latent, 0.0)
        # downstream stages still produced output of the right size
        assert result.embedding.shape == (90, 2)
        assert result.labels.shape == (90,)

    def test_umap_failure_pca_axes_embedding(self, fed_pipe, monkeypatch):
        monkeypatch.setattr("repro.pipeline.monitor.UMAP", Boom)
        result = fed_pipe.analyze()
        assert result.stages["umap"].status == "degraded"
        assert "PCA axes" in result.stages["umap"].fallback
        np.testing.assert_array_equal(result.embedding, result.latent[:, :2])
        assert result.stages["project"].ok

    def test_umap_nan_layout_caught_by_validator(self, fed_pipe, monkeypatch):
        class NaNUMAP:
            def __init__(self, *a, **kw):
                pass

            def fit_transform(self, latent):
                return np.full((latent.shape[0], 2), np.nan)

        monkeypatch.setattr("repro.pipeline.monitor.UMAP", NaNUMAP)
        result = fed_pipe.analyze()
        assert result.stages["umap"].status == "degraded"
        assert "non-finite embedding" in result.stages["umap"].error
        assert np.all(np.isfinite(result.embedding))

    def test_optics_failure_all_noise(self, fed_pipe, monkeypatch):
        monkeypatch.setattr("repro.pipeline.monitor.OPTICS", Boom)
        result = fed_pipe.analyze()
        assert result.stages["optics"].status == "degraded"
        assert result.stages["optics"].fallback == "all-noise labels"
        np.testing.assert_array_equal(result.labels, -1)
        assert result.n_clusters == 0

    def test_hdbscan_failure_all_noise(self, monkeypatch):
        pipe = make_pipe(cluster_method="hdbscan")
        frames = np.abs(np.random.default_rng(3).normal(1.0, 0.3, (90, 16, 16)))
        pipe.consume(frames)
        monkeypatch.setattr("repro.pipeline.monitor.HDBSCAN", Boom)
        result = pipe.analyze()
        assert result.stages["hdbscan"].status == "degraded"
        np.testing.assert_array_equal(result.labels, -1)

    def test_abod_failure_no_outliers(self, fed_pipe, monkeypatch):
        def boom(*a, **kw):
            raise FloatingPointError("angle collapse")

        monkeypatch.setattr("repro.pipeline.monitor.abod_outliers", boom)
        result = fed_pipe.analyze()
        assert result.stages["abod"].status == "degraded"
        assert result.stages["abod"].fallback == "no outliers flagged"
        assert not result.outliers.any()
        assert "FloatingPointError" in result.stages["abod"].error

    def test_every_stage_down_still_returns(self, fed_pipe, monkeypatch):
        monkeypatch.setattr("repro.pipeline.monitor.SketchPCA", Boom)
        monkeypatch.setattr("repro.pipeline.monitor.UMAP", Boom)
        monkeypatch.setattr("repro.pipeline.monitor.OPTICS", Boom)
        monkeypatch.setattr(
            "repro.pipeline.monitor.abod_outliers", Boom,
        )
        result = fed_pipe.analyze()
        assert [s.status for s in result.stages.values()] == ["degraded"] * 4
        assert result.embedding.shape == (90, 2)
        assert result.latent.shape == (90, 6)

    def test_clean_run_not_degraded(self, fed_pipe):
        result = fed_pipe.analyze()
        assert not result.degraded
        assert set(result.stages) == {"project", "umap", "optics", "abod"}
        assert all(s.ok for s in result.stages.values())
        assert fed_pipe.registry.gauge("pipeline_degraded").value == 0.0


class TestDegradationSurfaced:
    def test_metrics_snapshot_carries_degradation(
        self, fed_pipe, monkeypatch, tmp_path
    ):
        from repro.obs.export import write_metrics

        monkeypatch.setattr("repro.pipeline.monitor.UMAP", Boom)
        fed_pipe.analyze()
        path = write_metrics(fed_pipe.registry, tmp_path / "m.prom", format="prom")
        text = path.read_text()
        assert 'pipeline_stage_failures_total{stage="umap"} 1' in text
        assert "pipeline_degraded 1" in text

    def test_health_summary_carries_stages(self, fed_pipe, monkeypatch):
        monkeypatch.setattr("repro.pipeline.monitor.OPTICS", Boom)
        fed_pipe.analyze()
        summary = fed_pipe.health_summary()
        assert summary["stages"]["optics"]["status"] == "degraded"

    def test_html_report_shows_degradation(self, fed_pipe, monkeypatch, tmp_path):
        from repro.pipeline.html_report import write_embedding_report

        monkeypatch.setattr("repro.pipeline.monitor.UMAP", Boom)
        result = fed_pipe.analyze()
        path = write_embedding_report(
            tmp_path / "report.html",
            result.embedding,
            labels=result.labels,
            stages=result.stage_summary(),
        )
        text = path.read_text()
        assert "DEGRADED ANALYSIS" in text
        assert "umap" in text

    def test_html_report_shows_guard_rejections(self, tmp_path):
        from repro.pipeline.html_report import write_embedding_report

        pipe = make_pipe(guard=True)
        frames = np.abs(np.random.default_rng(3).normal(1.0, 0.3, (60, 16, 16)))
        frames[7] = np.nan
        pipe.consume(frames)
        result = pipe.analyze()
        path = write_embedding_report(
            tmp_path / "report.html",
            result.embedding,
            labels=result.labels,
            guard=pipe.guard.summary(),
            stages=result.stage_summary(),
        )
        text = path.read_text()
        assert "1 REJECTED" in text
        assert "non_finite" in text
        assert "all stages ok" in text
