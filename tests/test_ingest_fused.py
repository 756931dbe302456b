"""The one ingest path against the staged oracle.

The load-bearing contract of the preprocessing kernel
(:meth:`repro.pipeline.preprocess.Preprocessor.rows_into`) is
*bit-identity*: ``Preprocessor.apply_flat`` and the fused sweep behind
``MonitoringPipeline.consume`` must produce exactly the rows of the
staged whole-stack chain kept in
``tests/staged_oracle.py``, and a pipeline must leave its sketch in
exactly the state an oracle-driven run would — for any preprocessor
configuration, input dtype, batch split and mix of clean/corrupt
frames, guarded or not, with or without priority sampling, retaining
rows or latents.  The hypothesis suite here locks that property.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from staged_oracle import staged_apply_flat

from repro.core.arams import ARAMS, ARAMSConfig
from repro.obs.registry import NullRegistry, Registry
from repro.pipeline.guard import FrameGuard
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The oracle suites draw many independent knobs (dtype, corruption,
#: batching, preprocessor, guard, sampling, retention); give them room.
ORACLE = settings(COMMON, max_examples=150)

DTYPES = ("float64", "float32", "uint16", "int32")
_GAMMA = np.random.default_rng(0).gamma(2.0, 1.0, size=(20, 8, 8))
_GAMMA_NAN = _GAMMA.copy()
_GAMMA_NAN[[2, 11], 3, 4] = np.nan


def _fd_state(sk: ARAMS) -> dict:
    fd = sk.sketcher
    return {
        "buffer": fd._buffer.copy(),
        "next_zero": fd._next_zero,
        "n_seen": fd.n_seen,
        "sf": fd.squared_frobenius,
        "n_rotations": fd.n_rotations,
        "offered": sk.n_seen,
    }


def _assert_states_identical(a: dict, b: dict):
    assert a["buffer"].tobytes() == b["buffer"].tobytes()
    for key in ("next_zero", "n_seen", "sf", "n_rotations", "offered"):
        assert a[key] == b[key], key


@st.composite
def image_stream(draw):
    """A small stream: frames of one dtype, batch boundaries, corruption.

    Frames are float64/float32/uint16/int32; some carry HDR highlights
    ~1e6 above their background, all-zero frames, NaN pixels or whole
    NaN frames (float dtypes only), and batches may be single frames.
    """
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    n = draw(st.integers(1, 60))
    h = draw(st.integers(6, 14))
    w = draw(st.integers(6, 14))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    imgs = rng.gamma(2.0, 1.0, size=(n, h, w))
    if dtype.kind in "iu":
        imgs = np.round(imgs * 100.0)
    # A bright frame exercises the norm-outlier screen.
    if draw(st.booleans()):
        imgs[draw(st.integers(0, n - 1))] *= draw(st.floats(10.0, 200.0))
    # HDR: a few highlights ~1e6 above the frame's background.
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        imgs[i][rng.random((h, w)) < 0.05] *= 1e6
    for _ in range(draw(st.integers(0, 2))):
        imgs[draw(st.integers(0, n - 1))] = 0.0
    if dtype.kind in "iu":
        imgs = np.minimum(imgs, np.iinfo(dtype).max)
    imgs = imgs.astype(dtype)
    # NaN pixels and whole NaN frames exercise repair (guard off) or
    # quarantine (guard on).
    if dtype.kind == "f":
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, n - 1))
            imgs[i, draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = np.nan
        if draw(st.booleans()):
            imgs[draw(st.integers(0, n - 1))] = np.nan
    if n == 1 or draw(st.booleans()):
        batches = np.split(imgs, n)  # single-frame batches
    else:
        n_batches = draw(st.integers(1, min(4, n)))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(1, n - 1),
                    min_size=n_batches - 1,
                    max_size=n_batches - 1,
                    unique=True,
                )
            )
        )
        batches = np.split(imgs, cuts)
    return imgs, batches


@st.composite
def preprocessor_config(draw, h_max=6, w_max=6):
    threshold_mode = draw(st.sampled_from(["absolute", "quantile"]))
    threshold = (
        None
        if draw(st.booleans())
        else (
            draw(st.floats(0.0, 2.0))
            if threshold_mode == "absolute"
            else draw(st.floats(0.05, 0.9))
        )
    )
    crop = None if draw(st.booleans()) else (h_max, w_max)
    return Preprocessor(
        threshold=threshold,
        threshold_mode=threshold_mode,
        normalize=draw(st.sampled_from(["l2", "sum", "max", None])),
        center=draw(st.booleans()),
        crop=crop,
        repair=draw(st.booleans()),
        hot_sigma=None if draw(st.booleans()) else draw(st.floats(3.0, 8.0)),
    )


def _finite_unless_repaired(pre, imgs, batches):
    """repair=False is only specified for finite frames."""
    if pre.repair:
        return imgs, batches
    return np.nan_to_num(imgs), [np.nan_to_num(b) for b in batches]


def _pipeline(pre, shape, ell, beta, guard, retain):
    return MonitoringPipeline(
        image_shape=shape,
        preprocessor=pre,
        sketch=ARAMSConfig(ell=ell, beta=beta, seed=11),
        guard=guard,
        retain=retain,
        registry=NullRegistry(),
    )


def _oracle_pipeline(pre, batches, shape, ell, beta, guard, retain):
    """A pipeline whose sketch is fed by the staged oracle, not the sweep.

    Uses the pipeline's own guard, accounting and retention, so the only
    difference from ``consume`` is how frames become rows.
    """
    pipe = _pipeline(pre, shape, ell, beta, guard, retain)
    for b in batches:
        images, ids, _ = pipe._admit(b, None)
        if images.shape[0]:
            rows = staged_apply_flat(pre, images)
            sk = pipe._ensure_sketcher(rows.shape[1])
            sk.partial_fit(rows)
            pipe._record_batch(rows, ids, sk)
    return pipe


def _outcome(run):
    """``(result, None)``, or ``(None, "Type: message")`` if ``run`` raised."""
    try:
        return run(), None
    except (ValueError, RuntimeError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


class TestApplyFlatIsTheOracle:
    """``Preprocessor.apply_flat`` == staged chain, bit for bit."""

    @ORACLE
    @given(image_stream(), preprocessor_config())
    def test_every_batch(self, stream, pre):
        imgs, batches = stream
        for b in [imgs, *batches]:
            rows = pre.apply_flat(b)
            ref = staged_apply_flat(pre, b)
            assert rows.dtype == ref.dtype == np.float64
            assert rows.shape == ref.shape
            assert rows.tobytes() == ref.tobytes()

    def test_many_chunks(self):
        """Stacks longer than one kernel chunk still match the oracle."""
        rng = np.random.default_rng(5)
        imgs = rng.gamma(2.0, 1.0, size=(300, 12, 12))
        imgs[[3, 140, 299], 4, 4] = np.nan
        imgs[200] *= 1e6
        pre = Preprocessor(threshold=0.5, hot_sigma=4.0, crop=(10, 10))
        assert pre.apply_flat(imgs).tobytes() == staged_apply_flat(pre, imgs).tobytes()


def _dead_pixels_around_crop(dtype):
    """Frames whose NaN/Inf pixels sit inside and outside a (6, 8) crop.

    The crop window of a 10x12 frame is rows 2-7, columns 2-9.
    """
    imgs = np.random.default_rng(3).gamma(2.0, 1.0, size=(10, 10, 12)).astype(dtype)
    imgs[0, 4, 5] = np.nan  # inside
    imgs[1, 0, 0] = np.nan  # outside
    imgs[2, 3, 9] = np.inf  # inside, on the window edge
    imgs[3, 9, 11] = -np.inf  # outside
    imgs[4, :, 0] = np.nan  # a dead column outside
    imgs[4, 7, 2] = -np.inf  # and a pixel inside
    imgs[5, 2:8, 2:10] = np.nan  # the whole window
    imgs[6] = np.inf  # the whole frame
    return imgs


class TestCropBeforeRepair:
    """Without a hot-pixel clamp the kernel crops, then repairs the window.

    Dead pixels outside the window must not reach a row, and those
    inside become zeros exactly as the staged repair-then-crop chain
    makes them.
    """

    PRES = [
        Preprocessor(crop=(6, 8)),
        Preprocessor(threshold=0.5, crop=(6, 8)),
        Preprocessor(
            threshold=0.3,
            threshold_mode="quantile",
            normalize="sum",
            center=False,
            crop=(6, 8),
        ),
    ]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("pre", PRES)
    def test_exact_tier_is_the_oracle(self, dtype, pre):
        imgs = _dead_pixels_around_crop(dtype)
        given_bytes = imgs.tobytes()
        ref = staged_apply_flat(pre, imgs)
        assert np.isfinite(ref).all()
        assert pre.apply_flat(imgs).tobytes() == ref.tobytes()
        eng = FusedIngest(ARAMS(48, ARAMSConfig(ell=4)), pre, registry=NullRegistry())
        assert eng.sweep(imgs).tobytes() == ref.tobytes()
        assert imgs.tobytes() == given_bytes  # repaired in scratch, not in place


class TestPipelineMatchesOracleRun:
    """Pipelines leave the sketch an oracle-driven run would, bit for bit."""

    @ORACLE
    @given(
        image_stream(),
        preprocessor_config(),
        st.integers(3, 8),
        st.booleans(),
        st.sampled_from([1.0, 0.6]),
        st.sampled_from(["rows", "latent"]),
    )
    # A guarded stream whose hot-pixel clamp has work to do: repair must
    # run even though the guard certifies every frame finite.
    @example(
        stream=(_GAMMA, [_GAMMA[:7], _GAMMA[7:]]),
        pre=Preprocessor(hot_sigma=3.0),
        ell=4,
        guard=True,
        beta=1.0,
        retain="rows",
    )
    # Unguarded NaN pixels: no certificate, so repair must run.
    @example(
        stream=(_GAMMA_NAN, [_GAMMA_NAN[:7], _GAMMA_NAN[7:]]),
        pre=Preprocessor(),
        ell=4,
        guard=False,
        beta=1.0,
        retain="rows",
    )
    def test_fd_state_guard_and_retention(self, stream, pre, ell, guard, beta, retain):
        imgs, batches = _finite_unless_repaired(pre, *stream)
        shape = imgs.shape[1:]

        def consume_all():
            pipe = _pipeline(pre, shape, ell, beta, guard, retain)
            for b in batches:
                pipe.consume(b)
            return pipe

        pipe, error = _outcome(consume_all)
        ref, ref_error = _outcome(
            lambda: _oracle_pipeline(pre, batches, shape, ell, beta, guard, retain)
        )
        # Degenerate streams (e.g. only all-zero frames under latent
        # retention, which has no basis to project through) must fail
        # the same way on both paths.
        assert error == ref_error
        if error is not None:
            return
        assert pipe.n_offered == ref.n_offered == imgs.shape[0]
        assert pipe.n_images == ref.n_images
        assert pipe.shot_ids == ref.shot_ids
        if guard:
            assert pipe.guard.n_accepted == ref.guard.n_accepted
            assert pipe.guard.reject_counts == ref.guard.reject_counts
            assert [(q.shot_id, q.reason) for q in pipe.guard.quarantine] == [
                (q.shot_id, q.reason) for q in ref.guard.quarantine
            ]
        if pipe.n_images == 0:
            return  # everything quarantined; neither built a sketch
        _assert_states_identical(_fd_state(pipe.sketcher), _fd_state(ref.sketcher))
        if retain == "rows":
            assert pipe.retained_rows.shape == ref.retained_rows.shape
            assert pipe.retained_rows.tobytes() == ref.retained_rows.tobytes()
        else:
            assert len(pipe._latents) == len(ref._latents)
            for a, b in zip(pipe._latents, ref._latents):
                assert a.tobytes() == b.tobytes()

    @COMMON
    @given(image_stream(), preprocessor_config(), st.integers(3, 8))
    def test_sweep_returns_the_oracle_rows(self, stream, pre, ell):
        imgs, batches = _finite_unless_repaired(pre, *stream)
        ch, cw = pre.output_shape(imgs)
        sk = ARAMS(ch * cw, ARAMSConfig(ell=ell))
        eng = FusedIngest(sk, pre, registry=NullRegistry())
        for b in batches:
            assert eng.sweep(b).tobytes() == staged_apply_flat(pre, b).tobytes()


class TestEngineBehavior:
    def test_nonfinite_without_repair_matches_staged_error(self):
        """repair=False + corrupt frame raises the sketcher's exact
        error, before anything is committed."""
        imgs = np.ones((8, 6, 6))
        imgs[3, 2, 2] = np.inf
        pre = Preprocessor(repair=False, center=False, normalize=None)
        sk = ARAMS(36, ARAMSConfig(ell=4))
        eng = FusedIngest(sk, pre, registry=NullRegistry())
        with pytest.raises(ValueError, match="repair detector frames"):
            eng.sweep(imgs)
        assert sk.sketcher.n_seen == 0  # nothing half-committed
        with pytest.raises(ValueError, match="repair detector frames"):
            ARAMS(36, ARAMSConfig(ell=4)).partial_fit(staged_apply_flat(pre, imgs))

    def test_requires_a_sketcher(self):
        eng = FusedIngest(registry=NullRegistry())
        with pytest.raises(ValueError, match="sketcher"):
            eng.sweep(np.ones((2, 4, 4)))

    def test_empty_batch_is_a_noop(self):
        sk = ARAMS(16, ARAMSConfig(ell=4))
        eng = FusedIngest(sk, Preprocessor(), registry=NullRegistry())
        assert eng.sweep(np.zeros((0, 4, 4))).shape == (0, 16)
        assert sk.sketcher.n_seen == 0

    def test_counters_and_spans_flow_to_registry(self):
        reg = Registry()
        rng = np.random.default_rng(0)
        imgs = rng.gamma(2.0, 1.0, size=(300, 8, 8))
        sk = ARAMS(64, ARAMSConfig(ell=4))
        eng = FusedIngest(sk, Preprocessor(), registry=reg)
        eng.sweep(imgs)
        labels = {"precision": "float64"}
        assert reg.get_sample("fused_frames_total", labels).value == 300
        assert reg.get_sample("fused_chunks_total", labels).value == 3
        assert eng.n_chunks == 3
        # The sweep feeds the preprocess/sketch stage histograms that
        # preprocess_time / sketch_time / throughput readers use.
        from repro.obs.spans import SPAN_HISTOGRAM

        for span in ("consume.preprocess", "consume.sketch", "consume.fused"):
            sample = reg.get_sample(SPAN_HISTOGRAM, {"span": span})
            assert sample is not None and sample.count >= 1, span


class TestPipelineFusedMode:
    def _stream(self):
        rng = np.random.default_rng(0)
        imgs = rng.gamma(2.0, 1.0, size=(150, 20, 20))
        imgs[7, 3, 3] = np.nan  # quarantined by the guard
        return imgs

    def _run(self, retain="rows"):
        imgs = self._stream()
        pipe = MonitoringPipeline(
            image_shape=(20, 20), seed=0, guard=True, retain=retain,
            sketch=ARAMSConfig(ell=8, beta=1.0, seed=0),
        )
        for i in range(0, 150, 50):
            pipe.consume(imgs[i : i + 50], shot_ids=np.arange(i, i + 50))
        return pipe

    def test_sketch_rows_and_ids_match_oracle(self):
        pipe = self._run()
        imgs = self._stream()
        guard = FrameGuard(pipe.guard.config, registry=NullRegistry())
        sk = ARAMS(400, ARAMSConfig(ell=8, beta=1.0, seed=0))
        rows, ids = [], []
        for i in range(0, 150, 50):
            gb = guard.screen(imgs[i : i + 50], shot_ids=np.arange(i, i + 50))
            rows.append(staged_apply_flat(pipe.preprocessor, gb.accepted))
            sk.partial_fit(rows[-1])
            ids.extend(int(s) for s in gb.accepted_ids)
        assert pipe.sketcher.sketcher._buffer.tobytes() == sk.sketcher._buffer.tobytes()
        assert pipe.retained_rows.tobytes() == np.vstack(rows).tobytes()
        assert pipe.shot_ids == ids
        assert pipe.n_images == 149
        assert pipe.health_summary()["ingest"] == {"frames": 149, "chunks": 3}

    def test_retained_rows_survive_arena_reuse(self):
        """A later consume, here one that grows the block, keeps earlier rows."""
        fused = self._run()
        before = fused.retained_rows
        first = before.copy()
        # 149 rows fill 198 of capacity; 50 more force a growth.
        fused.consume(self._stream()[50:100], shot_ids=np.arange(900, 950))
        after = fused.retained_rows
        assert not np.shares_memory(before, after)  # the block was replaced
        assert after.shape[0] == first.shape[0] + 50
        assert np.array_equal(after[: first.shape[0]], first)

    def test_timing_views_work_in_fused_mode(self):
        fused = self._run()
        assert fused.preprocess_time > 0
        assert fused.sketch_time > 0
        assert np.isfinite(fused.throughput_hz())

    def test_ingest_mode_validated(self):
        pipe = MonitoringPipeline(image_shape=(8, 8), ingest="fused")
        assert not hasattr(pipe, "ingest")
        for mode in ("staged", "overlapped"):
            with pytest.raises(ValueError, match="ingest"):
                MonitoringPipeline(image_shape=(8, 8), ingest=mode)

    def test_shot_id_length_mismatch(self):
        pipe = MonitoringPipeline(image_shape=(4, 4))
        with pytest.raises(ValueError, match="shot_ids"):
            pipe.consume(np.ones((3, 4, 4)), shot_ids=[1, 2])
