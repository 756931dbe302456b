"""Seeded stream-corruption injection and its end-to-end contract.

The load-bearing property: a corrupted stream pushed through a guarded
pipeline evolves the sketch **bit-identically** to a pre-cleaned stream
fed the same accepted batches — the guard never lets corruption touch
the accepted data, and every reject is accounted for by reason.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arams import ARAMSConfig
from repro.data.beam import BeamProfileGenerator
from repro.data.stream import (
    ArraySource,
    CorruptedEventStream,
    CorruptionPlan,
    CorruptionRule,
    EventStream,
    StreamCorruptor,
)
from repro.obs.registry import Registry
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.monitor import MonitoringPipeline


class TestRuleValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(kind="gamma-ray"),
            dict(kind="nan", prob=1.5),
            dict(kind="nan", prob=-0.1),
            dict(kind="drop", count=0),
            dict(kind="nan", pixels=0),
            dict(kind="hot", factor=0.0),
        ],
    )
    def test_bad_rules(self, kw):
        with pytest.raises(ValueError):
            CorruptionRule(**kw)

    def test_window_matching(self):
        rule = CorruptionRule("drop", first=10, last=20)
        assert not rule.matches(9)
        assert rule.matches(10) and rule.matches(20)
        assert not rule.matches(21)

    def test_plans_immutable(self):
        plan = CorruptionPlan(seed=1)
        grown = plan.nan_burst(prob=0.5)
        assert plan.rules == () and len(grown.rules) == 1
        with pytest.raises(AttributeError):
            plan.seed = 2  # type: ignore[misc]


class TestSpecRoundTrip:
    SPECS = [
        "seed=0",
        "seed=7; nan prob=0.05 pixels=32; dup prob=0.01; drop first=100 last=110",
        "seed=3; shape count=2; zero prob=0.5; hot factor=1000",
        "seed=1; nan; nan first=50",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_parse_to_spec_roundtrip(self, spec):
        plan = CorruptionPlan.parse(spec)
        assert CorruptionPlan.parse(plan.to_spec()) == plan

    def test_builders_match_parse(self):
        built = (
            CorruptionPlan(seed=7)
            .nan_burst(prob=0.05, pixels=32)
            .duplicate(prob=0.01)
            .drop(first=100, last=110)
        )
        assert built == CorruptionPlan.parse(self.SPECS[1])

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CorruptionPlan.parse("seed=0; cosmic prob=0.1")

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="parameter"):
            CorruptionPlan.parse("seed=0; nan wat=1")

    def test_parse_rejects_malformed_token(self):
        with pytest.raises(ValueError, match="key=value"):
            CorruptionPlan.parse("seed=0; nan oops")


class TestDeterminism:
    def frames(self, n=64):
        return np.abs(np.random.default_rng(0).normal(1.0, 0.2, (n, 8, 8)))

    def test_same_plan_same_output(self):
        plan = CorruptionPlan.parse("seed=9; nan prob=0.2; drop prob=0.1; dup prob=0.1")
        frames = self.frames()
        a = StreamCorruptor(plan).apply(frames, np.arange(64))
        b = StreamCorruptor(plan).apply(frames, np.arange(64))
        np.testing.assert_array_equal(a[1], b[1])
        for fa, fb in zip(a[0], b[0]):
            np.testing.assert_array_equal(fa, fb)

    def test_batch_boundaries_do_not_matter(self):
        plan = CorruptionPlan.parse("seed=9; nan prob=0.2; drop prob=0.1; dup prob=0.1")
        frames = self.frames()
        whole = StreamCorruptor(plan).apply(frames, np.arange(64))
        split_corruptor = StreamCorruptor(plan)
        parts = [split_corruptor.apply(frames[a:b], np.arange(a, b))
                 for a, b in ((0, 13), (13, 40), (40, 64))]
        split_ids = np.concatenate([p[1] for p in parts])
        np.testing.assert_array_equal(whole[1], split_ids)
        split_frames = [f for p in parts for f in p[0]]
        assert len(whole[0]) == len(split_frames)
        for fa, fb in zip(whole[0], split_frames):
            np.testing.assert_array_equal(fa, fb)

    def test_source_frames_never_mutated(self):
        plan = CorruptionPlan(seed=0).nan_burst(prob=1.0).zero(prob=1.0)
        frames = self.frames(8)
        before = frames.copy()
        StreamCorruptor(plan).apply(frames, np.arange(8))
        np.testing.assert_array_equal(frames, before)

    def test_count_caps_firings(self):
        plan = CorruptionPlan(seed=0).drop(prob=1.0, count=3)
        corruptor = StreamCorruptor(plan)
        out, ids, _ = corruptor.apply(self.frames(20), np.arange(20))
        assert len(out) == 17
        assert corruptor.stats == {"drop": 3}

    def test_first_matching_rule_wins(self):
        plan = CorruptionPlan(seed=0).zero(prob=1.0).nan_burst(prob=1.0)
        out, _, _ = StreamCorruptor(plan).apply(self.frames(4), np.arange(4))
        for frame in out:
            np.testing.assert_array_equal(frame, 0.0)

    def test_dup_and_drop_bookkeeping(self):
        plan = (CorruptionPlan(seed=0)
                .drop(first=2, last=2)
                .duplicate(first=5, last=5))
        out, ids, src = StreamCorruptor(plan).apply(self.frames(8), np.arange(8))
        assert list(ids) == [0, 1, 3, 4, 5, 5, 6, 7]
        assert list(src) == [0, 1, 3, 4, 5, 5, 6, 7]


class TestCorruptedEventStream:
    def test_truth_realigned_with_emitted_frames(self):
        source = BeamProfileGenerator(seed=0)
        plan = CorruptionPlan.parse("seed=5; drop prob=0.1; dup prob=0.1")
        stream = CorruptedEventStream(
            EventStream(source, n_shots=60, batch_size=20), plan
        )
        for frames, truth, stamps, ids in stream.batches():
            n = len(frames)
            assert ids.shape == (n,) and stamps.shape == (n,)
            for key, values in truth.items():
                assert np.asarray(values).shape[0] == n

    def test_array_source_replays_exactly(self):
        gen = BeamProfileGenerator(seed=0)
        images, truth = gen.sample(30)
        src = ArraySource(images, truth)
        a, ta = src.sample(30)
        src2 = ArraySource(images, truth)
        b, tb = src2.sample(30)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ta["mode"], tb["mode"])
        np.testing.assert_array_equal(a, images)


class TestEndToEndBitIdentity:
    """Corrupted+guarded sketch == pre-cleaned sketch, reject accounting exact."""

    PLAN = ("seed=13; nan prob=0.08 pixels=8; zero prob=0.03; "
            "dup prob=0.04; drop prob=0.04; shape prob=0.03")

    def make_pipe(self, registry, guard):
        return MonitoringPipeline(
            image_shape=(16, 16),
            seed=0,
            n_latent=6,
            umap={"n_epochs": 30, "n_neighbors": 8},
            sketch=ARAMSConfig(ell=10, beta=0.9, epsilon=0.1, nu=4, seed=0),
            registry=registry,
            guard=guard,
        )

    def test_accepted_stream_sketch_bit_identical(self):
        rng = np.random.default_rng(21)
        images = np.abs(rng.normal(1.0, 0.3, (160, 16, 16)))
        plan = CorruptionPlan.parse(self.PLAN)

        # Guarded pipeline eating the corrupted stream.
        dirty_registry = Registry()
        dirty = self.make_pipe(dirty_registry, guard=True)
        # Twin guard replaying the same decisions to pre-clean the
        # stream for the unguarded reference pipeline, preserving the
        # accepted batch boundaries.
        twin = FrameGuard(GuardConfig(expected_shape=(16, 16)),
                          registry=Registry())
        clean = self.make_pipe(Registry(), guard=None)

        corruptor = StreamCorruptor(plan)
        total_rejected = 0
        for start in range(0, 160, 40):
            ids = np.arange(start, start + 40)
            frames, out_ids, _ = corruptor.apply(images[start : start + 40], ids)
            dirty.consume(frames, shot_ids=out_ids)
            accepted = twin.screen(frames, shot_ids=out_ids)
            total_rejected += accepted.n_rejected
            if accepted.n_accepted:
                clean.consume(accepted.accepted, shot_ids=accepted.accepted_ids)

        assert corruptor.n_injected > 0 and total_rejected > 0  # scenario is live
        assert dirty.sketcher.sketch.tobytes() == clean.sketcher.sketch.tobytes()
        assert dirty.sketcher.ell == clean.sketcher.ell
        assert dirty.shot_ids == clean.shot_ids
        np.testing.assert_array_equal(dirty.retained_rows, clean.retained_rows)

        # Every reject is accounted for, by reason, in the metrics.
        summary = dirty.guard.summary()
        assert sum(summary["by_reason"].values()) == summary["rejected"]
        for reason, count in summary["by_reason"].items():
            counter = dirty_registry.counter(
                "frames_rejected_total", labels={"reason": reason}
            )
            assert counter.value == count
        assert (
            dirty_registry.counter("frames_offered_total").value
            == summary["offered"]
        )
        # Rejects stem only from the injected faults.
        kind_to_reason = {"nan": "non_finite", "zero": "zero_energy",
                          "dup": "duplicate_shot", "shape": "shape_mismatch"}
        for kind, reason in kind_to_reason.items():
            assert summary["by_reason"].get(reason, 0) == corruptor.stats.get(kind, 0)
        # Drops are not rejects; they surface as missing shot ids.
        assert summary["missing_shots"] >= corruptor.stats.get("drop", 0)

    def test_corrupted_stream_through_full_analysis(self):
        from repro.data.beam import BeamProfileConfig

        plan = CorruptionPlan.parse("seed=2; nan prob=0.1; drop prob=0.05")
        source = BeamProfileGenerator(BeamProfileConfig(shape=(16, 16)), seed=0)
        images, _ = source.sample(120)
        pipe = self.make_pipe(Registry(), guard=True)
        corruptor = StreamCorruptor(plan)
        for start in range(0, 120, 40):
            frames, ids, _ = corruptor.apply(
                images[start : start + 40], np.arange(start, start + 40)
            )
            pipe.consume(frames, shot_ids=ids)
        result = pipe.analyze()
        assert result.latent.shape[0] == pipe.n_images
        assert result.shot_ids.shape[0] == pipe.n_images
        assert np.all(np.isfinite(result.embedding))
        assert not result.degraded


@pytest.mark.guard
class TestCorruptionMatrix:
    """Every kind × rate corner, excluded from tier-1 (-m guard)."""

    @pytest.mark.parametrize("kind", ["nan", "shape", "dup", "drop", "zero", "hot"])
    @pytest.mark.parametrize("prob", [0.05, 0.3, 1.0])
    def test_guard_contains_each_kind(self, kind, prob):
        rng = np.random.default_rng(17)
        images = np.abs(rng.normal(1.0, 0.2, (80, 12, 12)))
        plan = CorruptionPlan(seed=4).with_rule(
            CorruptionRule(kind, prob=prob, factor=1e6)
        )
        corruptor = StreamCorruptor(plan)
        guard = FrameGuard(
            GuardConfig(expected_shape=(12, 12), hot_sigma=60.0,
                        norm_sigma=None),
            registry=Registry(),
        )
        accepted_frames = []
        emitted_ids = []
        for start in range(0, 80, 16):
            frames, ids, _ = corruptor.apply(
                images[start : start + 16], np.arange(start, start + 16)
            )
            emitted_ids.extend(int(s) for s in ids)
            batch = guard.screen(frames, shot_ids=ids)
            accepted_frames.extend(batch.accepted)
        # Whatever survived is exactly a subset of the clean source frames.
        for frame in accepted_frames:
            assert np.all(np.isfinite(frame))
            assert frame.shape == (12, 12)
        summary = guard.summary()
        if kind == "drop":
            assert summary["rejected"] == 0
            # Gap detection needs offered anchors on both sides, so only
            # drops strictly inside the emitted id range are countable
            # (dropping everything leaves nothing to anchor on).
            if emitted_ids:
                span = max(emitted_ids) - min(emitted_ids) + 1
                expected_missing = span - len(set(emitted_ids))
            else:
                expected_missing = 0
            assert summary["missing_shots"] == expected_missing
        else:
            assert summary["rejected"] == corruptor.stats.get(kind, 0)
        assert summary["accepted"] + summary["rejected"] == summary["offered"]
