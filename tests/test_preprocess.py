"""Unit tests for image preprocessing, all through ``Preprocessor.apply_flat``.

``apply_flat`` runs the one preprocessing kernel every ingest path uses,
so input rejection and each step's behaviour are checked there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline.preprocess import Preprocessor, repair_dead_pixels

# Single-step chains: everything else off.
OFF = dict(normalize=None, center=False, repair=False)


@pytest.fixture
def stack(rng):
    return rng.random((5, 16, 16))


def run(stack, **config):
    """apply_flat with ``config`` over the all-off chain, back as (n, h, w)."""
    pre = Preprocessor(**{**OFF, **config})
    rows = pre.apply_flat(stack)
    h, w = pre.crop if pre.crop is not None else stack.shape[1:]
    return rows.reshape(-1, h, w)


class TestThreshold:
    def test_absolute(self, stack):
        out = run(stack, threshold=0.5)
        assert np.all((out == 0) | (out >= 0.5))
        assert not np.shares_memory(out, stack)

    def test_quantile(self, stack):
        out = run(stack, threshold=0.5, threshold_mode="quantile")
        # Roughly half of each frame zeroed.
        for i in range(len(stack)):
            frac = np.mean(out[i] == 0)
            assert 0.4 < frac < 0.6

    def test_quantile_range_checked(self, stack):
        with pytest.raises(ValueError, match="quantile"):
            run(stack, threshold=1.5, threshold_mode="quantile")

    def test_unknown_mode(self, stack):
        with pytest.raises(ValueError, match="unknown mode"):
            run(stack, threshold=0.5, threshold_mode="relative")

    def test_requires_stack(self):
        with pytest.raises(ValueError, match="n, h, w"):
            run(np.zeros((4, 4)), threshold=0.1)


class TestNormalize:
    def test_sum_mode(self, stack):
        out = run(stack, normalize="sum")
        np.testing.assert_allclose(out.sum(axis=(1, 2)), 1.0)

    def test_max_mode(self, stack):
        out = run(stack, normalize="max")
        np.testing.assert_allclose(out.max(axis=(1, 2)), 1.0)

    def test_l2_mode(self, stack):
        out = run(stack, normalize="l2")
        flat = out.reshape(5, -1)
        np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0)

    def test_zero_frame_untouched(self):
        stack = np.zeros((2, 8, 8))
        stack[1] = 1.0
        out = run(stack, normalize="sum")
        assert np.all(out[0] == 0)

    def test_unknown_mode(self, stack):
        with pytest.raises(ValueError, match="unknown mode"):
            run(stack, normalize="l1")


class TestCenter:
    def test_centers_off_center_spot(self):
        img = np.zeros((1, 17, 17))
        img[0, 3, 12] = 1.0
        out = run(img, center=True)
        assert out[0, 8, 8] == 1.0

    def test_already_centered_unchanged(self):
        img = np.zeros((1, 17, 17))
        img[0, 8, 8] = 1.0
        out = run(img, center=True)
        np.testing.assert_array_equal(out, img)

    def test_total_intensity_preserved(self, stack):
        out = run(stack, center=True)
        np.testing.assert_allclose(
            out.sum(axis=(1, 2)), stack.sum(axis=(1, 2)), rtol=1e-12
        )

    def test_zero_frame_passthrough(self):
        img = np.zeros((1, 8, 8))
        np.testing.assert_array_equal(run(img, center=True), img)

    def test_center_of_mass_moved_to_middle(self, rng):
        img = np.zeros((1, 21, 21))
        img[0, 2:6, 14:19] = rng.random((4, 5))
        out = run(img, center=True)
        ys, xs = np.mgrid[:21, :21]
        total = out[0].sum()
        cy = (out[0] * ys).sum() / total
        cx = (out[0] * xs).sum() / total
        assert abs(cy - 10) < 1.0 and abs(cx - 10) < 1.0


class TestCrop:
    def test_center_crop(self):
        img = np.arange(36, dtype=float).reshape(1, 6, 6)
        out = run(img, crop=(2, 2))
        np.testing.assert_array_equal(out[0], [[14, 15], [20, 21]])

    def test_full_size_identity(self, stack):
        np.testing.assert_array_equal(run(stack, crop=(16, 16)), stack)

    def test_too_big_rejected(self, stack):
        with pytest.raises(ValueError, match="crop size"):
            run(stack, crop=(17, 16))


class TestChain:
    def test_apply_flat_shape(self, stack):
        pre = Preprocessor(threshold=0.1, normalize="l2", center=True)
        rows = pre.apply_flat(stack)
        assert rows.shape == (5, 256)
        assert rows.dtype == np.float64

    def test_crop_applied_first(self, stack):
        pre = Preprocessor(crop=(8, 8), normalize=None, center=False)
        assert pre.apply_flat(stack).shape == (5, 64)

    def test_disabled_steps_noop(self, stack):
        pre = Preprocessor(threshold=None, normalize=None, center=False)
        np.testing.assert_array_equal(pre.apply_flat(stack), stack.reshape(5, -1))

    def test_l2_rows_unit_norm(self, stack):
        pre = Preprocessor(normalize="l2", center=False)
        rows = pre.apply_flat(stack)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_integer_frames_accepted(self, stack):
        frames = np.round(stack * 1000).astype(np.uint16)
        pre = Preprocessor(threshold=100.0)
        np.testing.assert_array_equal(
            pre.apply_flat(frames), pre.apply_flat(frames.astype(np.float64))
        )

    def test_rows_written_into_out(self, stack):
        pre = Preprocessor(threshold=0.1, crop=(12, 12))
        block = np.full((7, 144), -1.0)
        rows = pre.apply_flat(stack, out=block[1:6])
        assert np.shares_memory(rows, block)
        assert rows.tobytes() == pre.apply_flat(stack).tobytes()
        assert (block[[0, 6]] == -1.0).all()  # rows outside the slot untouched

    @pytest.mark.parametrize(
        "out",
        [np.empty((5, 255)), np.empty((5, 256), np.float32), np.empty((256, 5)).T],
        ids=["shape", "dtype", "not-c-contiguous"],
    )
    def test_malformed_out_rejected(self, stack, out):
        with pytest.raises(ValueError, match="out must be"):
            Preprocessor().apply_flat(stack, out=out)

    def test_frozen_config(self):
        pre = Preprocessor()
        with pytest.raises(AttributeError):
            pre.center = False  # type: ignore[misc]


class TestDegenerateFrames:
    """Zero-variance/all-zero/non-finite frames never become NaN.

    The preprocessor sits behind the guard, but its steps must still be
    total functions — a silent NaN row would poison the one-pass sketch.
    """

    def degenerate_stack(self):
        stack = np.zeros((4, 8, 8))
        stack[1] = 1.0           # constant frame (zero variance)
        stack[2, 3, 3] = np.inf  # unrepaired Inf pixel
        stack[3] = np.random.default_rng(0).random((8, 8))
        return stack

    @pytest.mark.parametrize("mode", ["sum", "max", "l2"])
    def test_normalize_zero_scale_passthrough(self, mode):
        stack = np.zeros((2, 8, 8))
        stack[1] = np.random.default_rng(1).random((8, 8))
        out = run(stack, normalize=mode)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[0], 0.0)  # untouched, not NaN

    def test_normalize_nonfinite_scale_passthrough(self):
        stack = np.ones((1, 8, 8))
        stack[0, 0, 0] = np.inf
        out = run(stack, normalize="sum")
        np.testing.assert_array_equal(out, stack)  # not divided into NaN

    def test_center_zero_mass_passthrough(self):
        stack = np.zeros((1, 8, 8))
        out = run(stack, center=True)
        np.testing.assert_array_equal(out, stack)

    def test_center_negative_only_frame(self):
        # Clipped mass is zero even though the frame is not.
        stack = -np.ones((1, 8, 8))
        out = run(stack, center=True)
        np.testing.assert_array_equal(out, stack)

    def test_center_nonfinite_mass_no_crash(self):
        stack = np.ones((1, 8, 8))
        stack[0, 2, 2] = np.inf
        out = run(stack, center=True)  # must not crash on int(round(nan))
        np.testing.assert_array_equal(out, stack)

    def test_default_chain_stays_finite_without_repair(self):
        pre = Preprocessor(repair=False)
        rows = pre.apply_flat(np.zeros((3, 8, 8)))
        assert np.all(np.isfinite(rows))

    def test_default_chain_on_degenerate_stack(self):
        pre = Preprocessor()  # repair=True: Inf pixels zeroed first
        rows = pre.apply_flat(self.degenerate_stack())
        assert np.all(np.isfinite(rows))


class TestRepairHotPixelStats:
    """Hot-pixel statistics must come from the ORIGINAL finite pixels.

    Regression: the per-frame median/std used to be computed after the
    NaN->nan_fill substitution, so a swath of dead pixels dragged the
    median toward ``nan_fill`` and the clamp cap below the frame's real
    signal level, crushing legitimately bright frames.
    """

    def test_half_dead_uniform_bright_frame_stays_unclamped(self):
        frame = np.full((1, 10, 10), 100.0)
        frame[0, :6, :] = np.nan  # 60% dead
        out = repair_dead_pixels(frame, hot_sigma=1.5)
        # Finite pixels are uniformly 100: median 100, std 0, so the
        # cap sits at 100 and the signal must pass through untouched.
        # (With fill-then-measure stats the median was 0, std ~49, and
        # the cap ~73 clamped every live pixel.)
        assert np.all(out[0, 6:, :] == 100.0)
        assert np.all(out[0, :6, :] == 0.0)  # dead pixels filled

    def test_genuine_hot_pixel_still_clamped_next_to_dead_ones(self):
        rng = np.random.default_rng(3)
        frame = rng.normal(1.0, 0.05, (1, 12, 12))
        frame[0, 0, 0] = np.nan
        frame[0, 5, 5] = 1e6  # cosmic hit
        out = repair_dead_pixels(frame, hot_sigma=6.0)
        assert np.isfinite(out).all()
        # Clamped down to the cap (the plain std is inflated by the hit
        # itself, so the cap is loose — but strictly below the hit).
        assert out[0, 5, 5] < frame[0, 5, 5]
        # Everything else is within the cap and passes through exactly.
        keep = np.ones((12, 12), dtype=bool)
        keep[0, 0] = keep[5, 5] = False
        np.testing.assert_array_equal(out[0][keep], frame[0][keep])

    def test_kernel_repairs_with_the_same_stats(self):
        frame = np.full((1, 10, 10), 100.0)
        frame[0, :6, :] = np.nan
        pre = Preprocessor(**{**OFF, "repair": True, "hot_sigma": 1.5})
        np.testing.assert_array_equal(
            pre.apply_flat(frame), repair_dead_pixels(frame, hot_sigma=1.5).reshape(1, -1)
        )
