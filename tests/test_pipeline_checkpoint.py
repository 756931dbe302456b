"""Crash-consistency tests for pipeline checkpoint/resume.

The acceptance bar: a monitor killed mid-stream and resumed from its
checkpoint must produce **bit-identical** sketch bytes and identical
counters to a monitor that never stopped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.obs.registry import Registry
from repro.pipeline.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    list_generations,
    load_pipeline_checkpoint,
    prune_generations,
    save_pipeline_checkpoint,
)
from repro.pipeline.monitor import MonitoringPipeline


def make_pipe(registry=None, **kw):
    defaults = dict(
        image_shape=(16, 16),
        seed=0,
        n_latent=6,
        umap={"n_epochs": 30, "n_neighbors": 8},
        sketch=ARAMSConfig(ell=10, beta=0.9, epsilon=0.1, nu=4, seed=0),
        registry=registry or Registry(),
        guard=True,
    )
    defaults.update(kw)
    return MonitoringPipeline(**defaults)


@pytest.fixture(scope="module")
def stream():
    """A poisoned stream: NaN frames the guard must quarantine."""
    rng = np.random.default_rng(42)
    frames = np.abs(rng.normal(1.0, 0.3, (200, 16, 16)))
    frames[17] = np.nan
    frames[105, 3, 3] = np.inf
    frames[150] = 0.0
    return frames


def feed(pipe, frames, start, stop, batch=40):
    for at in range(start, stop, batch):
        end = min(at + batch, stop)
        pipe.consume(frames[at:end], shot_ids=np.arange(at, end))
    return pipe


def counter_state(registry, exclude_prefix="pipeline_checkpoint"):
    out = {}
    for inst in registry.instruments():
        if inst.kind not in ("counter", "gauge"):
            continue  # histograms carry wall-clock, never comparable
        if inst.name.startswith(exclude_prefix):
            continue  # only the resumed run writes/loads checkpoints
        out[(inst.name, tuple(sorted(inst.labels.items())))] = inst.value
    return out


class TestKillAndResume:
    def test_bit_identical_sketch_and_counters(self, tmp_path, stream):
        # Uninterrupted reference run.
        ref = feed(make_pipe(), stream, 0, 200)

        # Killed run: consume half, checkpoint, discard the object
        # (the "kill"), restore from disk, consume the rest.
        victim = feed(make_pipe(), stream, 0, 120)
        save_pipeline_checkpoint(victim, tmp_path)
        del victim
        resumed = load_pipeline_checkpoint(tmp_path, registry=Registry())
        feed(resumed, stream, 120, 200)

        assert resumed.sketcher.sketch.tobytes() == ref.sketcher.sketch.tobytes()
        assert resumed.sketcher.ell == ref.sketcher.ell
        assert resumed.sketcher.n_seen == ref.sketcher.n_seen
        assert (
            resumed.sketcher._sample_rng.bit_generator.state
            == ref.sketcher._sample_rng.bit_generator.state
        )
        assert counter_state(resumed.registry) == counter_state(ref.registry)

    def test_bookkeeping_identical(self, tmp_path, stream):
        ref = feed(make_pipe(), stream, 0, 200)
        victim = feed(make_pipe(), stream, 0, 80)
        save_pipeline_checkpoint(victim, tmp_path)
        resumed = load_pipeline_checkpoint(tmp_path)
        feed(resumed, stream, 80, 200)
        assert resumed.shot_ids == ref.shot_ids
        assert resumed.n_images == ref.n_images
        assert resumed.n_offered == ref.n_offered
        assert resumed.guard.summary()["by_reason"] == ref.guard.summary()["by_reason"]
        assert resumed.health.rank_trajectory == ref.health.rank_trajectory

    def test_latent_mode_resume(self, tmp_path, stream):
        ref = feed(make_pipe(retain="latent"), stream, 0, 160)
        victim = feed(make_pipe(retain="latent"), stream, 0, 80)
        save_pipeline_checkpoint(victim, tmp_path)
        resumed = load_pipeline_checkpoint(tmp_path)
        feed(resumed, stream, 80, 160)
        assert resumed.sketcher.sketch.tobytes() == ref.sketcher.sketch.tobytes()
        np.testing.assert_array_equal(
            np.vstack(resumed._latents), np.vstack(ref._latents)
        )

    def test_resume_then_analyze_matches(self, tmp_path, stream):
        ref = feed(make_pipe(), stream, 0, 160)
        victim = feed(make_pipe(), stream, 0, 80)
        save_pipeline_checkpoint(victim, tmp_path)
        resumed = load_pipeline_checkpoint(tmp_path)
        feed(resumed, stream, 80, 160)
        a = ref.analyze()
        b = resumed.analyze()
        np.testing.assert_array_equal(a.latent, b.latent)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.shot_ids, b.shot_ids)


class TestDurability:
    def test_generations_accumulate_and_prune(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        for stop in (80, 120, 160):
            save_pipeline_checkpoint(pipe, tmp_path, keep=2)
            feed(pipe, stream, stop - 40, stop)
        gens = list_generations(tmp_path)
        assert [g for g, _ in gens] == [2, 3]  # keep=2 pruned gen 1

    def test_corrupt_newest_falls_back(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 80)
        save_pipeline_checkpoint(pipe, tmp_path)
        feed(pipe, stream, 80, 120)
        newest = save_pipeline_checkpoint(pipe, tmp_path)

        sketch_file = newest / "sketch.npz"
        blob = bytearray(sketch_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # bit rot
        sketch_file.write_bytes(bytes(blob))

        registry = Registry()
        resumed = load_pipeline_checkpoint(tmp_path, registry=registry)
        assert resumed.n_offered == 80  # the older, intact generation
        assert registry.counter("pipeline_checkpoint_corruptions_total").value == 1

    def test_missing_payload_falls_back(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 80)
        save_pipeline_checkpoint(pipe, tmp_path)
        newest = save_pipeline_checkpoint(pipe, tmp_path)
        (newest / "state.json").unlink()
        resumed = load_pipeline_checkpoint(tmp_path)
        assert resumed.n_offered == 80

    def test_all_generations_corrupt_raises(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        gen = save_pipeline_checkpoint(pipe, tmp_path, keep=1)
        (gen / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptionError, match="corrupt"):
            load_pipeline_checkpoint(tmp_path)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_pipeline_checkpoint(tmp_path)

    def test_interrupted_tmp_dir_ignored_and_collected(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        torn = tmp_path / ".gen-000009.tmp"
        torn.mkdir(parents=True)
        (torn / "sketch.npz").write_bytes(b"partial write")
        assert list_generations(tmp_path) == []
        save_pipeline_checkpoint(pipe, tmp_path)
        assert not torn.exists()  # garbage-collected by the next commit
        assert len(list_generations(tmp_path)) == 1

    def test_format_version_gate(self, tmp_path, stream):
        import json

        pipe = feed(make_pipe(), stream, 0, 40)
        gen = save_pipeline_checkpoint(pipe, tmp_path)
        manifest = json.loads((gen / "MANIFEST.json").read_text())
        manifest["format_version"] = 999
        (gen / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptionError):
            load_pipeline_checkpoint(tmp_path)


class TestGuards:
    def test_nothing_consumed_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no data"):
            save_pipeline_checkpoint(make_pipe(), tmp_path)

    def test_forgetting_sketch_rejected(self, tmp_path, stream):
        pipe = make_pipe(
            sketch=ARAMSConfig(ell=10, beta=1.0, epsilon=None, nu=4,
                               gamma=0.9, seed=0)
        )
        feed(pipe, stream, 0, 40)
        with pytest.raises(CheckpointError, match="gamma"):
            save_pipeline_checkpoint(pipe, tmp_path)

    def test_bad_keep(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        with pytest.raises(ValueError, match="keep"):
            save_pipeline_checkpoint(pipe, tmp_path, keep=0)

    def test_unguarded_pipeline_checkpoints_too(self, tmp_path):
        # No guard, so the stream must already be clean (NaN rows crash
        # the sampler by design).
        clean = np.abs(np.random.default_rng(5).normal(1.0, 0.3, (80, 16, 16)))
        ref = feed(make_pipe(guard=None), clean, 0, 80)
        victim = feed(make_pipe(guard=None), clean, 0, 40)
        save_pipeline_checkpoint(victim, tmp_path)
        resumed = load_pipeline_checkpoint(tmp_path)
        assert resumed.guard is None
        feed(resumed, clean, 40, 80)
        assert resumed.sketcher.sketch.tobytes() == ref.sketcher.sketch.tobytes()


class TestIngestKeyCompatibility:
    """Checkpoints from before the single ingest path still resume.

    Older generations carry ``config.ingest`` ("staged" or, before the
    fused path existed, no key at all) and may name a frame-math tier in
    ``config.sketch.precision``; the loader ignores both, because every
    path now produces the float64 rows, and new checkpoints omit them.
    """

    def test_new_checkpoints_omit_the_key(self, tmp_path, stream):
        import json

        gen = save_pipeline_checkpoint(feed(make_pipe(), stream, 0, 40), tmp_path)
        config = json.loads((gen / "state.json").read_text())["config"]
        assert "ingest" not in config
        assert "precision" not in config["sketch"]

    @pytest.mark.parametrize("precision", [None, "float32", "float64"])
    @pytest.mark.parametrize("ingest", ["staged", None])
    def test_old_generations_resume_bit_identically(
        self, tmp_path, stream, ingest, precision
    ):
        import json

        from repro.pipeline.checkpoint import _sha256

        ref = feed(make_pipe(), stream, 0, 200)
        gen = save_pipeline_checkpoint(feed(make_pipe(), stream, 0, 120), tmp_path)
        state = json.loads((gen / "state.json").read_text())
        if ingest is not None:
            state["config"]["ingest"] = ingest
        if precision is not None:
            state["config"]["sketch"]["precision"] = precision
        (gen / "state.json").write_text(json.dumps(state, indent=2, sort_keys=True))
        manifest = json.loads((gen / "MANIFEST.json").read_text())
        manifest["files"]["state.json"] = {
            "sha256": _sha256(gen / "state.json"),
            "bytes": (gen / "state.json").stat().st_size,
        }
        (gen / "MANIFEST.json").write_text(json.dumps(manifest))

        resumed = load_pipeline_checkpoint(tmp_path, registry=Registry())
        assert resumed.registry.get_sample("pipeline_checkpoint_corruptions_total") is None
        feed(resumed, stream, 120, 200)
        assert resumed.sketcher.sketch.tobytes() == ref.sketcher.sketch.tobytes()
        assert resumed.shot_ids == ref.shot_ids


def _rewrite_state(gen_dir, payload: bytes = b"{}") -> None:
    """Replace state.json with checksum-valid but unreconstructable JSON."""
    import hashlib
    import json

    (gen_dir / "state.json").write_bytes(payload)
    manifest = json.loads((gen_dir / "MANIFEST.json").read_text())
    manifest["files"]["state.json"] = {
        "sha256": hashlib.sha256(payload).hexdigest(),
        "bytes": len(payload),
    }
    (gen_dir / "MANIFEST.json").write_text(json.dumps(manifest))


class TestReconstructionFailures:
    """Checksums passing does not mean the state reconstructs a pipeline."""

    def test_unreconstructable_state_falls_back(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 80)
        save_pipeline_checkpoint(pipe, tmp_path)
        feed(pipe, stream, 80, 120)
        newest = save_pipeline_checkpoint(pipe, tmp_path)
        _rewrite_state(newest)
        resumed = load_pipeline_checkpoint(tmp_path)
        assert resumed.n_offered == 80  # the older, intact generation

    def test_all_unreconstructable_raises_typed(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        gen = save_pipeline_checkpoint(pipe, tmp_path, keep=1)
        _rewrite_state(gen)
        with pytest.raises(CheckpointCorruptionError, match="reconstruct"):
            load_pipeline_checkpoint(tmp_path)


class TestPruneGenerations:
    def _three_generations(self, tmp_path, stream):
        pipe = feed(make_pipe(), stream, 0, 40)
        gens = []
        for stop in (80, 120, 160):
            gens.append(save_pipeline_checkpoint(pipe, tmp_path, keep=10))
            feed(pipe, stream, stop - 40, stop)
        return gens

    def test_prune_removes_oldest_and_reports(self, tmp_path, stream):
        gens = self._three_generations(tmp_path, stream)
        removed = prune_generations(tmp_path, keep=1)
        assert removed == gens[:2]
        assert [g for g, _ in list_generations(tmp_path)] == [3]

    def test_prune_never_deletes_newest_verified(self, tmp_path, stream):
        gens = self._three_generations(tmp_path, stream)
        # Bit-rot the two NEWEST generations: the only loadable state
        # left is gen 1, which the keep window would normally evict.
        for victim in gens[1:]:
            (victim / "sketch.npz").write_bytes(b"rotten")
        removed = prune_generations(tmp_path, keep=1)
        assert gens[0] not in removed  # the sole verified state survives
        assert gens[0].exists()
        resumed = load_pipeline_checkpoint(tmp_path)
        assert resumed.n_offered == 40  # restored from the shielded gen 1

    def test_prune_keep_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            prune_generations(tmp_path, keep=0)
