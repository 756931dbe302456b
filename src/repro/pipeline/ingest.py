"""Fused single-pass ingest: guard certificates → preprocess → sketch.

:class:`FusedIngest` is how the monitoring pipeline sketches frames.  A
guard-screened stack goes through the preprocessing kernel
(:meth:`~repro.pipeline.preprocess.Preprocessor.rows_into`) chunk by
chunk into a float64 row block, each processed frame written exactly
once, and the block reaches the sketcher in one ``partial_fit`` per
batch, so the priority sampler draws on whole-batch boundaries.  The
block is the caller's ``out`` when given (the monitoring pipeline
passes the next slot of its retained rows) and a reusable arena
otherwise.

The guard's certificate by-products travel with the batch: the
finiteness certificate lets the kernel skip the NaN repair pass and the
sketcher skip its own finiteness scan, and the ``min >= 0`` certificate
lets centering skip the negative-pixel clip.  Every pass runs in double
precision, so the rows are bit-identical to
:meth:`~repro.pipeline.preprocess.Preprocessor.apply_flat` and to the
staged whole-stack chain kept as the oracle in ``tests/staged_oracle.py``
— locked by the hypothesis suite in ``tests/test_ingest_fused.py``.

Observability: the sweep runs under a ``consume.fused`` span, per-stage
seconds feed the ``consume.preprocess`` / ``consume.sketch`` histograms
(so ``preprocess_time``/``sketch_time`` and throughput dashboards read
them), finer-grained ``fused.*`` histograms split the sweep, and
counters account frames and chunks.
"""

from __future__ import annotations

import numpy as np

from repro.core.arams import ARAMS
from repro.obs.clock import now
from repro.obs.spans import SPAN_HISTOGRAM
from repro.pipeline.preprocess import Preprocessor

__all__ = ["FusedIngest"]

_NONFINITE_MSG = (
    "rows contain NaN/Inf; repair detector frames first "
    "(see repro.pipeline.preprocess.repair_dead_pixels)"
)


class FusedIngest:
    """One-sweep preprocess + sketch engine.

    Parameters
    ----------
    sketcher:
        The :class:`~repro.core.arams.ARAMS` front end to feed.  May be
        ``None`` at construction when the caller supplies it per sweep
        (the monitoring pipeline builds its sketcher lazily).
    preprocessor:
        Preprocessing chain; defaults to ``Preprocessor()``.
    registry:
        Metric registry for spans/counters; ``None`` uses the process
        default.
    """

    def __init__(
        self,
        sketcher: ARAMS | None = None,
        preprocessor: Preprocessor | None = None,
        *,
        registry=None,
    ):
        self.sketcher = sketcher
        self.preprocessor = (
            preprocessor if preprocessor is not None else Preprocessor()
        )
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        self._arena: np.ndarray | None = None
        # Lifetime accounting (mirrored into registry counters).
        self.n_frames = 0
        self.n_chunks = 0
        # A constant label: dashboards and the end-to-end benchmark read
        # these counters by it.
        labels = {"precision": "float64"}
        self._frames_counter = registry.counter(
            "fused_frames_total",
            labels=labels,
            help="Frames ingested by the fused sweep",
        )
        self._chunks_counter = registry.counter(
            "fused_chunks_total",
            labels=labels,
            help="Chunks processed by the fused sweep",
        )

    def sweep(
        self,
        stack: np.ndarray,
        sketcher: ARAMS | None = None,
        *,
        certified_finite: bool = False,
        nonneg: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused preprocess + sketch of an already-screened ``(n, h, w)`` stack.

        Parameters
        ----------
        stack:
            Accepted frames (pixel values untouched by the guard).
        sketcher:
            ARAMS front end; defaults to the engine's bound sketcher.
        certified_finite, nonneg:
            Guard certificates, forwarded to
            :meth:`~repro.pipeline.preprocess.Preprocessor.rows_into`;
            ``certified_finite`` also lets the sketcher skip its
            finiteness scan.
        out:
            Optional C-contiguous float64 ``(n, d)`` block the rows are
            written into, in place of the engine's reused arena.  The
            monitoring pipeline passes the next slot of its retention
            block, so each retained row is written once.

        Returns
        -------
        numpy.ndarray
            The ``(n, d)`` preprocessed rows: ``out`` when given, else a
            view of the reused arena, valid until the next sweep.
        """
        sk = sketcher if sketcher is not None else self.sketcher
        if sk is None:
            raise ValueError("no sketcher bound or supplied")
        pre = self.preprocessor
        ch, cw = pre.output_shape(stack)
        n = int(stack.shape[0])
        if n == 0:
            return out if out is not None else np.zeros((0, ch * cw))
        # Rows reaching the sketch are finite iff certified or repaired;
        # otherwise run the sketcher's scan upfront over the whole stack,
        # so a corrupt batch raises before anything is committed.
        if not (certified_finite or pre.repair) and not bool(
            np.isfinite(stack).all()
        ):
            raise ValueError(_NONFINITE_MSG)

        rows = out if out is not None else self._arena_rows(n, ch * cw)
        stage_seconds = {
            "prep": 0.0,
            "center": 0.0,
            "normalize": 0.0,
            "sketch": 0.0,
        }
        with self.registry.span("consume.fused"):
            chunks = pre.rows_into(
                stack,
                rows,
                certified_finite=certified_finite,
                nonneg=nonneg,
                stage_seconds=stage_seconds,
            )
            t0 = now()
            # One partial_fit per batch preserves the priority sampler's
            # RNG draw boundaries; the upfront scan, guard certificate or
            # repair pass stands in for the sketcher's finiteness check.
            sk.partial_fit(rows, check_finite=False)
            stage_seconds["sketch"] += now() - t0
        self.n_chunks += chunks
        self._chunks_counter.inc(chunks)
        self.n_frames += n
        self._frames_counter.inc(n)
        self._observe_stage_seconds(stage_seconds)
        return rows

    def _arena_rows(self, n: int, d: int) -> np.ndarray:
        """``(n, d)`` view of a reusable float64 arena (grown, never shrunk)."""
        arena = self._arena
        if arena is None or arena.shape[0] < n or arena.shape[1] != d:
            arena = np.empty((n, d), dtype=np.float64)
            self._arena = arena
        return arena[:n]

    def _observe_stage_seconds(self, stage_seconds: dict) -> None:
        """Feed per-stage sweep seconds into the span histograms.

        The prep/center/normalize stages accumulate into the
        ``consume.preprocess`` histogram and the sketch stage into
        ``consume.sketch`` — the pair ``preprocess_time`` /
        ``sketch_time`` / throughput readers use — while ``fused.*``
        entries expose the finer split.
        """
        reg = self.registry
        prep = (
            stage_seconds["prep"]
            + stage_seconds["center"]
            + stage_seconds["normalize"]
        )
        reg.histogram(
            SPAN_HISTOGRAM,
            labels={"span": "consume.preprocess"},
            help="Wall-clock seconds per instrumented span",
        ).observe(prep)
        reg.histogram(
            SPAN_HISTOGRAM,
            labels={"span": "consume.sketch"},
            help="Wall-clock seconds per instrumented span",
        ).observe(stage_seconds["sketch"])
        for name, secs in stage_seconds.items():
            reg.histogram(
                SPAN_HISTOGRAM,
                labels={"span": f"fused.{name}"},
                help="Wall-clock seconds per instrumented span",
            ).observe(secs)
