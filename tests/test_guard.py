"""Unit tests for the FrameGuard data-plane firewall."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.arams import ARAMSConfig
from repro.obs.registry import Registry
from repro.pipeline.guard import (
    FrameGuard,
    GuardBatch,
    GuardConfig,
    QuarantinedFrame,
    QuarantineRing,
    RejectReason,
)
from repro.pipeline.monitor import MonitoringPipeline


def clean_frames(n=8, h=8, w=8, seed=0):
    return np.abs(np.random.default_rng(seed).normal(1.0, 0.1, (n, h, w)))


def _comparable(summary):
    """Guard summary minus the ring's held count (payloads are not
    checkpointed, so the live buffer legitimately empties on restore)."""
    out = dict(summary)
    out["quarantine"] = {
        k: v for k, v in out["quarantine"].items() if k != "held"
    }
    return out


def make_guard(registry=None, **kw):
    return FrameGuard(GuardConfig(**kw), registry=registry or Registry())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(max_nonfinite_fraction=-0.1),
            dict(max_nonfinite_fraction=1.1),
            dict(max_dead_fraction=2.0),
            dict(max_hot_fraction=-1.0),
            dict(hot_sigma=0.0),
            dict(min_energy=-1.0),
            dict(norm_sigma=0.0),
            dict(norm_window=1),
            dict(norm_warmup=-1),
            dict(quarantine_capacity=0),
        ],
    )
    def test_bad_thresholds(self, kw):
        with pytest.raises(ValueError):
            GuardConfig(**kw)

    def test_roundtrip_dict(self):
        cfg = GuardConfig(expected_shape=(16, 16), expected_dtype="float64",
                          norm_sigma=5.0, quarantine_capacity=7)
        assert GuardConfig.from_dict(cfg.to_dict()) == cfg

    def test_roundtrip_json_safe(self):
        import json

        cfg = GuardConfig(expected_shape=(4, 4))
        again = GuardConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg


class TestRejectRules:
    def test_clean_frames_all_pass_untouched(self):
        guard = make_guard()
        frames = clean_frames()
        batch = guard.screen(frames)
        assert batch.n_accepted == 8 and batch.n_rejected == 0
        np.testing.assert_array_equal(batch.accepted, frames)
        np.testing.assert_array_equal(batch.accepted_ids, np.arange(8))

    def test_non_finite_rejected(self):
        guard = make_guard()
        frames = clean_frames()
        frames[3, 2, 2] = np.nan
        frames[5, 1, 1] = np.inf
        batch = guard.screen(frames)
        assert batch.n_accepted == 6
        assert [q.reason for q in batch.rejected] == [RejectReason.NON_FINITE] * 2
        assert [q.shot_id for q in batch.rejected] == [3, 5]

    def test_nonfinite_fraction_tolerated(self):
        guard = make_guard(max_nonfinite_fraction=0.5)
        frames = clean_frames(2)
        frames[0, 0, 0] = np.nan  # 1/64 < 0.5 -> accepted, value untouched
        batch = guard.screen(frames)
        assert batch.n_accepted == 2
        assert np.isnan(batch.accepted[0, 0, 0])

    def test_zero_energy_rejected(self):
        guard = make_guard()
        frames = clean_frames(3)
        frames[1] = 0.0
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.ZERO_ENERGY]

    def test_dead_pixels_rejected(self):
        guard = make_guard(max_dead_fraction=0.5)
        frames = clean_frames(2)
        frames[1].flat[: 60] = 0.0  # 60/64 zero but one pixel alive
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.DEAD_PIXELS]

    def test_hot_pixel_rejected(self):
        # A single dominating pixel has |pixel|/mean ~= n_pixels, so the
        # screen needs hot_sigma < n_pixels (the default 500 targets real
        # detector frames of >= 1k pixels; these test frames have 64).
        guard = make_guard(hot_sigma=50.0)
        frames = clean_frames(2)
        frames[0, 4, 4] = 1e9  # stuck ADC dwarfs the frame mean
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.HOT_PIXELS]

    def test_hot_pixel_default_sigma_on_detector_sized_frame(self):
        guard = make_guard()
        frames = clean_frames(2, h=32, w=32)  # 1024 pixels > default 500
        frames[0, 4, 4] = 1e9
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.HOT_PIXELS]

    def test_shape_mismatch_rejected(self):
        guard = make_guard(expected_shape=(8, 8))
        frames = [clean_frames(1)[0], clean_frames(1)[0][:-1, :]]
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.SHAPE_MISMATCH]

    def test_shape_locked_from_first_frame(self):
        guard = make_guard()
        batch = guard.screen([np.ones((6, 6)), np.ones((6, 5))])
        assert [q.reason for q in batch.rejected] == [RejectReason.SHAPE_MISMATCH]

    def test_dtype_mismatch_rejected(self):
        guard = make_guard(expected_dtype="float64")
        frames = [np.ones((4, 4)), np.ones((4, 4), dtype=np.float32)]
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.DTYPE_MISMATCH]

    def test_non_numeric_dtype_always_rejected(self):
        guard = make_guard()
        frames = [np.ones((4, 4)), np.ones((4, 4), dtype=complex)]
        batch = guard.screen(frames)
        assert [q.reason for q in batch.rejected] == [RejectReason.DTYPE_MISMATCH]

    def test_duplicate_shot_rejected(self):
        guard = make_guard()
        frames = clean_frames(3)
        batch = guard.screen(frames, shot_ids=[0, 1, 1])
        assert [q.reason for q in batch.rejected] == [RejectReason.DUPLICATE_SHOT]
        # ... and across batches too
        batch2 = guard.screen(frames[:1], shot_ids=[0])
        assert [q.reason for q in batch2.rejected] == [RejectReason.DUPLICATE_SHOT]

    def test_norm_outlier_rejected_after_warmup(self):
        guard = make_guard(norm_warmup=10, norm_sigma=8.0)
        guard.screen(clean_frames(32, seed=1))
        weird = clean_frames(1, seed=2) * 1e4
        batch = guard.screen(weird)
        assert [q.reason for q in batch.rejected] == [RejectReason.NORM_OUTLIER]

    def test_norm_screen_cold_during_warmup(self):
        guard = make_guard(norm_warmup=10, norm_sigma=8.0)
        batch = guard.screen(clean_frames(2, seed=1) * np.array([1.0, 1e4])[:, None, None])
        assert batch.n_accepted == 2  # estimator not armed yet

    def test_rejected_frames_never_observed_by_norm_window(self):
        guard = make_guard(norm_warmup=2, norm_sigma=6.0)
        frames = clean_frames(40, seed=3)
        nan_frames = frames.copy()
        nan_frames[::4] += np.nan  # every 4th frame poisoned
        guard.screen(nan_frames)
        med_mixed, _ = guard.norm_scale()
        clean_guard = make_guard(norm_warmup=2, norm_sigma=6.0)
        keep = np.ones(40, dtype=bool)
        keep[::4] = False
        clean_guard.screen(frames[keep], shot_ids=np.flatnonzero(keep))
        med_clean, _ = clean_guard.norm_scale()
        assert med_mixed == pytest.approx(med_clean)


class TestBookkeeping:
    def test_missing_shots_counted(self):
        registry = Registry()
        guard = make_guard(registry)
        guard.screen(clean_frames(3), shot_ids=[0, 5, 6])  # gap of 4
        assert guard.n_missing == 4
        assert registry.counter("shots_missing_total").value == 4

    def test_counters_mirror_registry(self):
        registry = Registry()
        guard = make_guard(registry)
        frames = clean_frames(4)
        frames[1, 0, 0] = np.nan
        guard.screen(frames)
        assert registry.counter("frames_offered_total").value == 4
        assert registry.counter("frames_accepted_total").value == 3
        assert registry.counter(
            "frames_rejected_total", labels={"reason": "non_finite"}
        ).value == 1
        s = guard.summary()
        assert s["offered"] == 4 and s["accepted"] == 3 and s["rejected"] == 1
        assert s["by_reason"] == {"non_finite": 1}

    def test_every_reject_accounted_by_reason(self):
        guard = make_guard()
        frames = list(clean_frames(4))
        frames[1] = frames[1] + np.nan
        frames.append(np.zeros((8, 8)))
        frames.append(np.ones((7, 8)))
        batch = guard.screen(frames)
        s = guard.summary()
        assert sum(s["by_reason"].values()) == s["rejected"] == batch.n_rejected == 3
        assert s["by_reason"] == {
            "non_finite": 1, "shape_mismatch": 1, "zero_energy": 1,
        }

    def test_auto_ids_continue_across_batches(self):
        guard = make_guard()
        b1 = guard.screen(clean_frames(3))
        b2 = guard.screen(clean_frames(2, seed=1))
        np.testing.assert_array_equal(b1.accepted_ids, [0, 1, 2])
        np.testing.assert_array_equal(b2.accepted_ids, [3, 4])

    def test_shot_id_length_mismatch(self):
        guard = make_guard()
        with pytest.raises(ValueError, match="shot_ids length"):
            guard.screen(clean_frames(3), shot_ids=[0, 1])

    def test_bad_stack_ndim(self):
        guard = make_guard()
        with pytest.raises(ValueError, match="ndim"):
            guard.screen(np.ones((4, 4)))

    def test_empty_accepted_batch_shape(self):
        guard = make_guard(expected_shape=(8, 8))
        batch = guard.screen(np.zeros((2, 8, 8)))  # both zero_energy
        assert batch.accepted.shape == (0, 8, 8)
        assert batch.n_accepted == 0 and batch.offered == 2


class TestQuarantineRing:
    def test_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            QuarantineRing(0)

    def test_eviction_keeps_lifetime_totals(self):
        ring = QuarantineRing(capacity=3)
        for i in range(7):
            ring.push(QuarantinedFrame(i, RejectReason.NON_FINITE, "x"))
        assert len(ring) == 3
        assert ring.total == 7
        assert ring.by_reason == {"non_finite": 7}
        assert [q.shot_id for q in ring] == [4, 5, 6]  # oldest first

    def test_guard_ring_bounded(self):
        guard = make_guard(quarantine_capacity=2)
        frames = np.full((5, 4, 4), np.nan)
        guard.screen(frames)
        assert len(guard.quarantine) == 2
        assert guard.quarantine.summary()["total"] == 5

    def test_store_frames_off_keeps_metadata_only(self):
        guard = make_guard(store_frames=False)
        frames = clean_frames(1)
        frames[0, 0, 0] = np.nan
        guard.screen(frames)
        (entry,) = list(guard.quarantine)
        assert entry.frame is None and entry.reason is RejectReason.NON_FINITE

    def test_quarantined_payload_is_a_copy(self):
        guard = make_guard()
        frames = clean_frames(1)
        frames[0, 0, 0] = np.nan
        guard.screen(frames)
        (entry,) = list(guard.quarantine)
        frames[0, 1, 1] = 123.0
        assert entry.frame[1, 1] != 123.0


class TestStateRoundTrip:
    def test_screening_continues_identically(self):
        rng = np.random.default_rng(7)
        stream = np.abs(rng.normal(1.0, 0.2, (60, 6, 6)))
        stream[10, 0, 0] = np.nan
        stream[40] = 0.0

        a = make_guard(norm_warmup=5)
        a.screen(stream[:30])
        state = a.state_dict()

        b = FrameGuard(GuardConfig.from_dict(state["config"]), registry=Registry())
        b.load_state(state)
        batch_a = a.screen(stream[30:], shot_ids=range(30, 60))
        batch_b = b.screen(stream[30:], shot_ids=range(30, 60))
        np.testing.assert_array_equal(batch_a.accepted, batch_b.accepted)
        np.testing.assert_array_equal(batch_a.accepted_ids, batch_b.accepted_ids)
        assert _comparable(a.summary()) == _comparable(b.summary())

    def test_state_json_serializable(self):
        import json

        guard = make_guard()
        frames = clean_frames(4)
        frames[0, 0, 0] = np.inf
        guard.screen(frames)
        state = json.loads(json.dumps(guard.state_dict()))
        again = make_guard()
        again.load_state(state)
        assert _comparable(again.summary()) == _comparable(guard.summary())

    def test_version_mismatch_raises(self):
        guard = make_guard()
        state = guard.state_dict()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            make_guard().load_state(state)

    def test_duplicate_detection_survives_roundtrip(self):
        a = make_guard()
        a.screen(clean_frames(4), shot_ids=[0, 1, 2, 3])
        b = make_guard()
        b.load_state(a.state_dict())
        batch = b.screen(clean_frames(1), shot_ids=[2])
        assert [q.reason for q in batch.rejected] == [RejectReason.DUPLICATE_SHOT]


class TestGuardedPipeline:
    """Satellite: retain='latent' bookkeeping under a quarantined stream."""

    def make_pipe(self, **kw):
        defaults = dict(
            image_shape=(16, 16),
            seed=0,
            n_latent=6,
            umap={"n_epochs": 30, "n_neighbors": 8},
            sketch=ARAMSConfig(ell=10, beta=1.0, epsilon=None, nu=4, seed=0),
            registry=Registry(),
            guard=True,
        )
        defaults.update(kw)
        return MonitoringPipeline(**defaults)

    def poisoned_stream(self, n=120):
        rng = np.random.default_rng(11)
        frames = np.abs(rng.normal(1.0, 0.3, (n, 16, 16)))
        bad = np.arange(5, n, 17)
        frames[bad] = np.nan
        return frames, bad

    def test_latent_rows_match_accepted_frames(self):
        pipe = self.make_pipe(retain="latent")
        frames, bad = self.poisoned_stream()
        for start in range(0, len(frames), 40):
            pipe.consume(frames[start : start + 40])
        n_accepted = len(frames) - len(bad)
        assert pipe.n_images == n_accepted
        assert pipe.n_offered == len(frames)
        result = pipe.analyze()
        assert result.latent.shape[0] == n_accepted
        assert result.shot_ids.shape[0] == n_accepted
        expected_ids = np.setdiff1d(np.arange(len(frames)), bad)
        np.testing.assert_array_equal(result.shot_ids, expected_ids)

    def test_retain_rows_ids_aligned_too(self):
        pipe = self.make_pipe(retain="rows")
        frames, bad = self.poisoned_stream(80)
        pipe.consume(frames)
        result = pipe.analyze()
        expected_ids = np.setdiff1d(np.arange(80), bad)
        np.testing.assert_array_equal(result.shot_ids, expected_ids)
        assert result.embedding.shape[0] == expected_ids.shape[0]

    def test_all_rejected_batch_is_a_noop(self):
        pipe = self.make_pipe()
        pipe.consume(np.full((4, 16, 16), np.nan))
        assert pipe.n_images == 0 and pipe.n_offered == 4
        with pytest.raises(RuntimeError, match="no data"):
            pipe.analyze()

    def test_guard_disabled_by_default(self):
        pipe = MonitoringPipeline(
            image_shape=(16, 16), seed=0,
            sketch=ARAMSConfig(ell=10, beta=1.0, epsilon=None, nu=4, seed=0),
            registry=Registry(),
        )
        assert pipe.guard is None

    def test_explicit_guardconfig_inherits_image_shape(self):
        pipe = self.make_pipe(guard=GuardConfig(norm_sigma=None))
        assert pipe.guard.config.expected_shape == (16, 16)
        assert pipe.guard.config.norm_sigma is None


@pytest.mark.guard
class TestGuardMatrix:
    """Exhaustive single-fault matrix, excluded from tier-1 (-m guard)."""

    FAULTS = {
        RejectReason.NON_FINITE: lambda f: f + np.nan,
        RejectReason.ZERO_ENERGY: lambda f: np.zeros_like(f),
        RejectReason.HOT_PIXELS: lambda f: _poke(f, 1e9),
        RejectReason.SHAPE_MISMATCH: lambda f: f[:-1, :],
        RejectReason.DTYPE_MISMATCH: lambda f: f.astype(complex),
    }

    @pytest.mark.parametrize("reason", sorted(FAULTS, key=str))
    @pytest.mark.parametrize("position", [0, 7, 19])
    def test_single_fault_isolated(self, reason, position):
        frames = list(clean_frames(20, seed=5))
        frames[position] = self.FAULTS[reason](frames[position])
        # expected_shape pinned so a position-0 shape glitch cannot lock
        # the wrong shape; hot_sigma < 64 pixels (see TestRejectRules).
        guard = make_guard(expected_shape=(8, 8), hot_sigma=50.0)
        batch = guard.screen(frames)
        assert batch.n_accepted == 19
        assert [q.reason for q in batch.rejected] == [reason]
        assert [q.shot_id for q in batch.rejected] == [position]
        clean = [f for i, f in enumerate(frames) if i != position]
        np.testing.assert_array_equal(batch.accepted, np.stack(clean))


def _poke(frame, value):
    out = frame.copy()
    out[0, 0] = value
    return out


class TestOverflowRescue:
    """Regression: high-dynamic-range frames near sqrt(float64 max).

    The squared-norm reduction used for the clean certificate overflows
    to Inf for all-finite frames with pixels around 1e154; the guard
    used to read that Inf as "contains non-finite pixels" and falsely
    quarantine perfectly valid HDR data.  The rescue path recomputes
    the norm on max-rescaled copies of the suspect frames.
    """

    def _hdr_frames(self, n=8, scale=9.0e153, seed=0, h=8, w=8):
        rng = np.random.default_rng(seed)
        return np.abs(rng.normal(1.0, 0.1, (n, h, w))) * scale

    def test_hdr_frames_accepted_not_falsely_non_finite(self):
        frames = self._hdr_frames()
        assert np.isfinite(frames).all()  # genuinely clean input
        # ... yet the raw squared-norm reduction overflows:
        assert not np.isfinite(
            np.einsum("ij,ij->i", frames.reshape(8, -1), frames.reshape(8, -1))
        ).any()
        guard = make_guard(norm_sigma=None)
        batch = guard.screen(frames)
        assert batch.n_accepted == 8
        assert batch.rejected == []
        np.testing.assert_array_equal(batch.accepted, frames)
        # The rescued norms entering the window are finite and correct.
        expected = np.linalg.norm(frames.reshape(8, -1) / 9.0e153, axis=1)
        np.testing.assert_allclose(
            np.asarray(guard.state_dict()["norms"]) / 9.0e153, expected, rtol=1e-10
        )

    def test_rescued_norms_independent_of_batching(self):
        """A 128x128 HDR frame gets one rescued norm, stacked or alone."""
        frames = self._hdr_frames(n=16, h=128, w=128)
        stacked = make_guard(norm_sigma=None)
        chained = make_guard(norm_sigma=None)
        assert stacked.screen(frames).n_accepted == 16
        assert chained.screen(list(frames)).n_accepted == 16
        norms = stacked.state_dict()["norms"]
        assert np.isfinite(norms).all()
        assert norms == chained.state_dict()["norms"]

    def test_follow_up_batch_unpoisoned(self):
        guard = make_guard(norm_sigma=None)
        assert guard.screen(self._hdr_frames()).n_accepted == 8
        later = guard.screen(clean_frames(8))
        assert later.n_accepted == 8
        assert guard.reject_counts == {}

    def test_nan_in_hdr_batch_still_rejected(self):
        frames = self._hdr_frames()
        frames[3, 2, 2] = np.nan
        guard = make_guard(norm_sigma=None)
        batch = guard.screen(frames)
        assert batch.n_accepted == 7
        assert [str(q.reason) for q in batch.rejected] == ["non_finite"]
        assert [q.shot_id for q in batch.rejected] == [3]


@st.composite
def screening_stream(draw):
    """A guard configuration and a short stream of batches to screen.

    Frames are non-negative or mixed-sign, and all of them hold zero
    pixels.  Per batch, either every frame keeps its dead (zero) pixel
    count at or just under the limit and its planted pixels just under
    the hot threshold, or frames are pushed just over those limits, so
    the vectorized screen certifies some batches and hands others to
    the per-frame chain.  A bright frame exercises the norm screen.
    """
    dtype = np.dtype(draw(st.sampled_from(["float64", "float32", "int32"])))
    h, w = draw(
        st.one_of(
            st.tuples(st.integers(2, 12), st.integers(2, 12)),
            st.sampled_from([(64, 64), (128, 128), (129, 130)]),
        )
    )
    npix = h * w
    config = GuardConfig(
        max_dead_fraction=draw(st.sampled_from([0.05, 0.2, 0.5])),
        hot_sigma=draw(st.floats(2.0, 8.0)),
        max_hot_fraction=draw(st.sampled_from([0.0, 0.05])),
        norm_sigma=draw(st.sampled_from([None, 3.0, 10.0])),
        norm_window=draw(st.sampled_from([4, 256])),
        norm_warmup=draw(st.integers(0, 8)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dead_limit = int(np.floor(config.max_dead_fraction * npix))
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        within = draw(st.booleans())
        mixed = rng.random(n) < draw(st.floats(0.0, 1.0))
        frames = np.where(
            mixed[:, None, None],
            rng.normal(0.0, 1.0, (n, h, w)),
            rng.gamma(2.0, 1.0, (n, h, w)),
        )
        if dtype.kind == "i":
            frames = np.round(frames * 50.0)
        for f in frames.reshape(n, npix):
            over = not within and rng.random() < 0.5
            dead = dead_limit + 1 if over else dead_limit - int(rng.integers(2))
            f[rng.choice(npix, min(npix, max(1, dead)), replace=False)] = 0.0
            for j in rng.choice(npix, int(rng.integers(0, 3)), replace=False):
                scale = rng.uniform(1.05, 2.0) if over else rng.uniform(0.5, 0.95)
                f[j] = np.round(scale * config.hot_sigma * np.abs(f).mean())
        if draw(st.booleans()):
            frames[draw(st.integers(0, n - 1))] *= 20.0
        batches.append(frames.astype(dtype))
    if draw(st.booleans()):
        total = sum(b.shape[0] for b in batches)
        ids = np.cumsum(rng.integers(1, 4, total)).tolist()
    else:
        ids = None
    return config, batches, ids


def certified_stream(h, w):
    """Two batches of clean float64 frames the vectorized screen certifies."""
    frames = clean_frames(24, h, w, seed=7)
    return GuardConfig(), [frames[:12], frames[12:]], None


def all_rejected_stream():
    """40 clean float32 frames, then a batch of 4 bright ones the norm
    screen rejects: nothing of the second batch is accepted."""
    frames = clean_frames(40, seed=3).astype(np.float32)
    config = GuardConfig(norm_sigma=3.0, norm_warmup=8)
    return config, [frames, frames[:4] * np.float32(50.0)], None


class TestVectorizedMatchesChain:
    """``_screen_stack`` decides exactly as the per-frame rule chain.

    The same stream is screened as ``(n, h, w)`` arrays (the vectorized
    path, which falls back to the chain only for frames it cannot
    certify) and as lists of frames (always the chain) by two fresh
    guards.  Both paths reduce norms through one helper, so the norm
    windows agree bit for bit at every frame size.
    """

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(screening_stream())
    # Every norm comes from a stack reduction on one side and a
    # per-frame one on the other, at sizes past one reduction block.
    @example(stream=certified_stream(128, 128))
    @example(stream=certified_stream(129, 130))
    # An all-rejected batch comes back empty in the input dtype both ways.
    @example(stream=all_rejected_stream())
    def test_same_decisions_and_state(self, stream):
        config, batches, ids = stream
        fast = FrameGuard(config, registry=Registry())
        chain = FrameGuard(config, registry=Registry())
        pos = 0
        for frames in batches:
            sid = None if ids is None else ids[pos : pos + frames.shape[0]]
            pos += frames.shape[0]
            a = fast.screen(frames, sid)
            b = chain.screen(list(frames), sid)
            assert a.accepted_ids.tolist() == b.accepted_ids.tolist()
            assert a.accepted.shape == b.accepted.shape
            assert a.accepted.dtype == b.accepted.dtype
            assert a.accepted.tobytes() == b.accepted.tobytes()
            assert [(q.shot_id, q.reason, q.detail) for q in a.rejected] == [
                (q.shot_id, q.reason, q.detail) for q in b.rejected
            ]

        def counts(guard):
            summary = guard.summary()
            del summary["norm_median"], summary["norm_mad"]
            return summary

        assert counts(fast) == counts(chain)
        np.testing.assert_array_equal(fast.norm_scale(), chain.norm_scale())
        for name in (
            "frames_offered_total",
            "frames_accepted_total",
            "shots_missing_total",
        ):
            assert (
                fast.registry.get_sample(name).value
                == chain.registry.get_sample(name).value
            )
