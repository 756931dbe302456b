"""End-to-end monitoring pipeline: the paper's Fig. 4 in one object.

``MonitoringPipeline`` consumes image batches (beam profiles or
diffraction frames), maintains an ARAMS matrix sketch online, and on
demand produces the operator-facing analysis: latent projection of every
consumed image, a 2-D UMAP embedding, OPTICS cluster labels and ABOD
outlier flags, with per-stage timings.

Two ingestion modes, both preprocessing frames with the one kernel
behind :meth:`~repro.pipeline.preprocess.Preprocessor.rows_into`:

- **single-stream** (:meth:`consume`): batches feed one ARAMS sketcher
  through the fused sweep of :class:`~repro.pipeline.ingest.FusedIngest`,
  the streaming deployment on one core;
- **sharded** (:meth:`consume_sharded`): the preprocessed batch is split
  across a simulated rank world, each rank sketches locally, and the
  sketches tree-merge — the paper's parallel deployment, usable for
  throughput studies without real MPI.

Note on memory: latent projection needs the images themselves (the
sketch supplies only the basis), so consumed rows are retained by
default, once: both ingestion modes write each preprocessed row straight
into one float64 block that doubles when full, and analysis, snapshot
publication and checkpoints read it in place through
:attr:`MonitoringPipeline.retained_rows` (``docs/performance.md``,
"Memory").  For unbounded streams pass ``retain="latent"`` to keep only
the small latent coordinates per image, projecting each batch through
the *current* basis as it arrives.

Data-plane hardening (see ``docs/data_robustness.md``): pass
``guard=True`` (or a :class:`~repro.pipeline.guard.GuardConfig`) to
screen every incoming frame through a
:class:`~repro.pipeline.guard.FrameGuard` before it reaches the sketch,
and note that :meth:`analyze` is *fail-soft* — each downstream stage
runs under a :class:`~repro.pipeline.supervisor.StageSupervisor` that
substitutes a documented fallback and records a
:class:`~repro.pipeline.supervisor.DegradedResult` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.abod import abod_outliers
from repro.cluster.hdbscan import HDBSCAN
from repro.cluster.optics import OPTICS
from repro.core.arams import ARAMS, ARAMSConfig
from repro.embed.pca import SketchPCA
from repro.embed.umap import UMAP
from repro.obs.health import SketchHealth
from repro.obs.registry import Registry
from repro.obs.spans import SPAN_HISTOGRAM
from repro.parallel.cost_model import CommCostModel
from repro.parallel.runner import DistributedSketchRunner
from repro.pipeline.guard import FrameGuard, GuardBatch, GuardConfig
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.preprocess import Preprocessor
from repro.pipeline.supervisor import DegradedResult, StageSupervisor

__all__ = ["MonitoringPipeline", "MonitoringResult"]


def _stride_sample(parts: list[np.ndarray], total: int, max_rows: int) -> np.ndarray:
    """Evenly strided sample of ``max_rows`` rows from a list of 2-D blocks.

    Deterministic (no RNG) and width-tolerant: blocks of different
    column counts (the latent-mode case, where the latent width grows
    with the sketch rank) are right-padded with zeros to the widest.

    Always returns exactly ``min(max_rows, total)`` rows: the indices
    are built with exact integer arithmetic (first row, last row, and
    evenly spread interior rows), which yields strictly increasing —
    hence distinct — positions.  The previous float
    ``linspace(...).astype(int64)`` construction could floor two grid
    points onto the same index and silently return fewer rows after
    ``np.unique`` collapsed the duplicates.
    """
    if total <= 0 or not parts:
        width = max((p.shape[1] for p in parts), default=0)
        return np.zeros((0, width))
    take = min(max_rows, total)
    # k-th index = round-down of k*(total-1)/(take-1); with take <= total
    # the spacing is >= 1 so all indices are distinct and sorted.
    wanted = (np.arange(take, dtype=np.int64) * (total - 1)) // max(take - 1, 1)
    assert wanted.shape[0] == take and (
        take < 2 or bool((np.diff(wanted) >= 1).all())
    ), "stride sample must return exactly `take` distinct sorted indices"
    width = max(p.shape[1] for p in parts)
    out = np.zeros((wanted.shape[0], width))
    offset = 0
    cursor = 0
    for p in parts:
        hi = offset + p.shape[0]
        stop = int(np.searchsorted(wanted, hi, side="left"))
        if stop > cursor:
            idx = wanted[cursor:stop] - offset
            if p.shape[1] == width:
                # Equal-width blocks (rows mode): gather straight into the
                # output, skipping the intermediate fancy-index copy.
                np.take(p, idx, axis=0, out=out[cursor:stop])
            else:
                out[cursor:stop, : p.shape[1]] = p[idx]
            cursor = stop
        offset = hi
        if cursor >= wanted.shape[0]:
            break
    return out


@dataclass
class MonitoringResult:
    """Full output of one analysis pass.

    Attributes
    ----------
    latent:
        ``(n, k)`` PCA coordinates of every analysed image.
    embedding:
        ``(n, 2)`` UMAP coordinates.
    labels:
        OPTICS cluster labels (``-1`` = noise).
    outliers:
        Boolean ABOD outlier flags.
    outlier_scores:
        Raw ABOF scores (lower = more anomalous).
    explained_variance_ratio:
        Sketch-PCA energy fractions of the latent axes.
    shot_ids:
        Shot id of each analysed row.  When a guard quarantined frames,
        these are the *accepted* ids, so rows stay aligned with the
        stream's bookkeeping.
    stages:
        Per-stage :class:`~repro.pipeline.supervisor.DegradedResult`
        outcomes from the fail-soft analysis, in run order: ``project``,
        ``umap``, ``optics`` (or ``hdbscan``), ``abod`` (absent when
        ABOD is disabled).  Each carries the stage's wall seconds.
    """

    latent: np.ndarray
    embedding: np.ndarray
    labels: np.ndarray
    outliers: np.ndarray
    outlier_scores: np.ndarray
    explained_variance_ratio: np.ndarray
    shot_ids: np.ndarray | None = None
    stages: dict[str, DegradedResult] = field(default_factory=dict)

    @property
    def timings(self) -> dict[str, float]:
        """Seconds per stage, keyed and ordered like :attr:`stages`."""
        return {name: s.seconds for name, s in self.stages.items()}

    @property
    def n_clusters(self) -> int:
        """Number of clusters found (noise excluded)."""
        return len(set(self.labels.tolist()) - {-1})

    @property
    def degraded(self) -> bool:
        """True when any analysis stage substituted its fallback."""
        return any(s.status != "ok" for s in self.stages.values())

    def stage_summary(self) -> dict:
        """Plain-data per-stage outcomes (feeds CLI and HTML report)."""
        return {name: s.to_dict() for name, s in self.stages.items()}


class MonitoringPipeline:
    """Online image monitoring: sketch → PCA → UMAP → OPTICS / ABOD.

    Parameters
    ----------
    image_shape:
        ``(h, w)`` of incoming frames (after the preprocessor's crop,
        if any, frames may be smaller; the sketch dimension adapts to
        the preprocessor output on the first batch).
    preprocessor:
        Image-processing chain; defaults to the paper's
        threshold/normalize/center recipe.
    sketch:
        ARAMS configuration (sketch size, sampling fraction, error
        tolerance).
    n_latent:
        Latent dimension for the PCA projection stage.
    umap:
        Keyword arguments forwarded to :class:`repro.embed.umap.UMAP`.
    optics:
        Keyword arguments forwarded to :class:`repro.cluster.optics.OPTICS`
        (used when ``cluster_method="optics"``, the paper's choice).
    cluster_method:
        ``"optics"`` (paper default) or ``"hdbscan"`` — the artifact's
        environment ships both; HDBSCAN* adds per-point membership
        probabilities and needs no ξ parameter.
    hdbscan:
        Keyword arguments forwarded to
        :class:`repro.cluster.hdbscan.HDBSCAN` when selected.
    outlier_contamination:
        Expected outlier fraction for ABOD (``None`` disables the ABOD
        stage).  ABOD runs in the *latent* space, not on the 2-D
        embedding: UMAP equalizes local density, packing exotic shots
        into tight islands that look perfectly ordinary to an angular
        outlier test, while in latent space they remain far from the
        zero-order manifold.
    outlier_neighbors:
        FastABOD neighbourhood size.
    retain:
        ``"rows"`` (default) keeps preprocessed rows for exact final
        projection, once, readable as :attr:`retained_rows`;
        ``"latent"`` keeps only per-batch latent coordinates (bounded
        memory, projection through the basis current at batch time).
    guard:
        Frame screening in front of the sketch.  ``None``/``False``
        (default) disables it; ``True`` installs a
        :class:`~repro.pipeline.guard.FrameGuard` with default
        thresholds (expected shape locked to ``image_shape``); a
        :class:`~repro.pipeline.guard.GuardConfig` customizes the
        thresholds; a ready-made :class:`FrameGuard` is used as-is.
        With a guard installed, :meth:`consume` accepts ragged frame
        lists and rejected frames never touch the sketch.
    registry:
        Metric registry receiving stage-latency spans and sketch-health
        instruments (see :mod:`repro.obs`).  Defaults to a fresh
        :class:`~repro.obs.registry.Registry` owned by the pipeline;
        pass a shared instance to aggregate several pipelines, or a
        :class:`~repro.obs.registry.NullRegistry` to disable metrics
        (timing views then read as zero).
    seed:
        Master seed for every stochastic stage.
    ingest:
        Accepted for compatibility; ``"fused"`` is the only value.
        :meth:`consume` always runs the fused sweep of
        :class:`~repro.pipeline.ingest.FusedIngest`, which reuses the
        guard's certificates, writes each processed frame exactly
        once, and gives the rows of
        :meth:`~repro.pipeline.preprocess.Preprocessor.apply_flat` bit
        for bit (see ``docs/performance.md``).

    Examples
    --------
    >>> from repro.data import BeamProfileGenerator
    >>> gen = BeamProfileGenerator(seed=0)
    >>> images, _ = gen.sample(300)
    >>> pipe = MonitoringPipeline(image_shape=(64, 64), seed=0)
    >>> result = pipe.consume(images).analyze()
    >>> result.embedding.shape
    (300, 2)
    """

    def __init__(
        self,
        image_shape: tuple[int, int],
        preprocessor: Preprocessor | None = None,
        sketch: ARAMSConfig | None = None,
        n_latent: int = 20,
        umap: dict | None = None,
        optics: dict | None = None,
        cluster_method: str = "optics",
        hdbscan: dict | None = None,
        outlier_contamination: float | None = 0.03,
        outlier_neighbors: int = 20,
        retain: str = "rows",
        registry: Registry | None = None,
        seed: int | None = None,
        guard: FrameGuard | GuardConfig | bool | None = None,
        ingest: str = "fused",
    ):
        if retain not in ("rows", "latent"):
            raise ValueError(f"unknown retain mode {retain!r}")
        if ingest != "fused":
            raise ValueError(f"unknown ingest mode {ingest!r}; only 'fused' exists")
        self.image_shape = tuple(image_shape)
        self.preprocessor = (
            preprocessor
            if preprocessor is not None
            else Preprocessor(threshold=0.02, normalize="l2", center=True)
        )
        self.sketch_config = (
            sketch
            if sketch is not None
            else ARAMSConfig(ell=32, beta=0.8, epsilon=0.05, nu=8, seed=seed)
        )
        if n_latent < 2:
            raise ValueError(f"n_latent must be >= 2, got {n_latent}")
        self.n_latent = int(n_latent)
        self.umap_params = dict(umap) if umap else {}
        self.umap_params.setdefault("n_neighbors", 15)
        self.umap_params.setdefault("min_dist", 0.1)
        self.umap_params.setdefault("random_state", seed)
        if cluster_method not in ("optics", "hdbscan"):
            raise ValueError(f"unknown cluster_method {cluster_method!r}")
        self.cluster_method = cluster_method
        self.optics_params = dict(optics) if optics else {}
        self.optics_params.setdefault("min_samples", 10)
        self.hdbscan_params = dict(hdbscan) if hdbscan else {}
        self.hdbscan_params.setdefault("min_cluster_size", 15)
        self.outlier_contamination = outlier_contamination
        self.outlier_neighbors = int(outlier_neighbors)
        self.retain = retain
        self.seed = seed
        self._fused: FusedIngest | None = None

        self._sketcher: ARAMS | None = None
        self._analysis: MonitoringResult | None = None
        # retain="rows": a (capacity, d) block whose first n_images rows
        # are the retained rows (see _retain_slot and retained_rows).
        self._row_block: np.ndarray | None = None
        self._latents: list[np.ndarray] = []
        # Reference basis for retain="latent": successive sketch bases
        # are Procrustes-aligned to it so per-batch latent coordinates
        # live in one consistent frame (the raw top-k singular vectors
        # flip sign and reorder as the sketch evolves).
        self._latent_basis: np.ndarray | None = None
        self.n_images = 0
        self.n_offered = 0
        self.shot_ids: list[int] = []
        self._next_shot_id = 0
        # Snapshot publication (see repro.serve.snapshot): a store
        # attached via attach_snapshot_store receives an immutable
        # sketch snapshot every `_publish_every` consumed batches.
        self._snapshot_store = None
        self._publish_every = 1
        self._batches_since_publish = 0
        # Observability attachments (see repro.obs.timeline / .alerts):
        # when set, every consumed batch samples the timeline and
        # evaluates the alert rules on the attached clock.
        self._timeline = None
        self._alerts = None
        self.registry = registry if registry is not None else Registry()
        self.guard = self._build_guard(guard)
        self.health = SketchHealth(self.registry)
        self._images_counter = self.registry.counter(
            "pipeline_images_total", help="Images consumed by the pipeline"
        )
        self._batches_counter = self.registry.counter(
            "pipeline_batches_total", help="Batches consumed by the pipeline"
        )

    def _build_guard(self, guard) -> FrameGuard | None:
        if guard is None or guard is False:
            return None
        if guard is True:
            guard = GuardConfig(expected_shape=self.image_shape)
        if isinstance(guard, GuardConfig):
            if guard.expected_shape is None:
                guard = replace(guard, expected_shape=self.image_shape)
            return FrameGuard(guard, registry=self.registry)
        return guard  # a ready-made FrameGuard

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _ensure_sketcher(self, d: int) -> ARAMS:
        if self._sketcher is None:
            self._sketcher = ARAMS(d=d, config=self.sketch_config)
            self.health.attach(self._sketcher)
        elif self._sketcher.d != d:
            raise ValueError(
                f"batch dimension {d} differs from pipeline dimension {self._sketcher.d}"
            )
        return self._sketcher

    def _admit(
        self, images, shot_ids
    ) -> tuple[np.ndarray, np.ndarray, GuardBatch | None]:
        """Screen (or pass through) one batch.

        Returns ``(images, ids, guard_batch)``.  With a guard installed
        the batch may be a ragged frame list and comes back as the
        accepted ``(m, h, w)`` stack plus the full
        :class:`~repro.pipeline.guard.GuardBatch` (whose certificate
        by-products the fused sweep reuses); without one, it must
        already be a clean stack and the batch slot is ``None``.  Either
        way the pipeline's offered count and shot-id cursor advance.
        """
        batch = None
        if self.guard is not None:
            with self.registry.span("consume.guard"):
                batch = self.guard.screen(images, shot_ids=shot_ids)
            self.n_offered += batch.offered
            ids = batch.accepted_ids
            images = batch.accepted
        else:
            images = np.asarray(images)
            n = images.shape[0]
            if shot_ids is None:
                ids = np.arange(self._next_shot_id, self._next_shot_id + n, dtype=np.int64)
            else:
                ids = np.asarray(shot_ids, dtype=np.int64)
                if ids.shape[0] != n:
                    raise ValueError(
                        f"shot_ids length {ids.shape[0]} does not match {n} frames"
                    )
            self.n_offered += n
        if ids.shape[0]:
            self._next_shot_id = max(self._next_shot_id, int(ids.max()) + 1)
        return images, ids, batch

    def consume(self, images, shot_ids=None) -> "MonitoringPipeline":
        """Preprocess one image batch and feed it to the online sketch.

        Parameters
        ----------
        images:
            ``(n, h, w)`` frame stack; with a guard installed, a ragged
            list of 2-D frames is also accepted (mis-shaped frames are
            quarantined, not raised).
        shot_ids:
            Per-frame shot ids; ``None`` auto-numbers sequentially.
        """
        images, ids, gb = self._admit(images, shot_ids)
        self._batches_counter.inc()
        if images.shape[0] == 0:
            return self  # whole batch quarantined; the sketch sees nothing
        ch, cw = self.preprocessor.output_shape(images)
        sk = self._ensure_sketcher(ch * cw)
        out = self._retain_slot(images.shape[0], ch * cw)
        if self._fused is None:
            # The pipeline keeps its own guard bookkeeping in _admit and
            # hands the engine the certificates.
            self._fused = FusedIngest(
                preprocessor=self.preprocessor,
                registry=self.registry,
            )
        rows = self._fused.sweep(
            images,
            sk,
            certified_finite=(
                self.guard is not None
                and self.guard.config.max_nonfinite_fraction == 0.0
            ),
            nonneg=gb.accepted_nonneg if gb is not None else False,
            out=out,
        )
        self._record_batch(rows, ids, sk)
        return self

    def _retain_slot(self, m: int, d: int) -> np.ndarray | None:
        """Where the next ``m`` rows go: ``None`` unless ``retain="rows"``.

        The slot follows the retained rows in one ``(capacity, d)``
        block; a full block is replaced by one of ``max(n + m,
        2 * capacity)`` rows, the only time retained rows are copied.
        """
        if self.retain != "rows":
            return None
        n = self.n_images
        block = self._row_block
        if block is None or block.shape[0] < n + m:
            capacity = 0 if block is None else block.shape[0]
            grown = np.empty((max(n + m, 2 * capacity), d))
            if n:
                grown[:n] = block[:n]
            self._row_block = block = grown
        return block[n : n + m]

    @property
    def retained_rows(self) -> np.ndarray:
        """Read-only ``(n_images, d)`` view of the rows kept by ``retain="rows"``.

        Empty in ``retain="latent"`` mode and before any data arrives.
        """
        if self._row_block is None:
            return np.zeros((0, 0))
        view = self._row_block[: self.n_images]
        view.flags.writeable = False
        return view

    def _record_batch(self, rows: np.ndarray, ids: np.ndarray, sk: ARAMS) -> None:
        """Retain, account and publish one sketched batch.

        Rows the caller did not write into the retention slot are copied
        there.
        """
        self._retain_batch(rows, sk)
        self.n_images += rows.shape[0]
        self.shot_ids.extend(int(s) for s in ids)
        self._images_counter.inc(rows.shape[0])
        self._maybe_publish()

    def _retain_batch(self, rows: np.ndarray, sk: ARAMS) -> None:
        if self.retain == "rows":
            slot = self._retain_slot(*rows.shape)
            if not np.may_share_memory(slot, rows):
                slot[...] = rows
            return
        k = min(self.n_latent, sk.ell)
        basis = sk.basis(k)  # d x k'
        if self._latent_basis is not None:
            ref = self._latent_basis
            m = min(basis.shape[1], ref.shape[1])
            # Orthogonal Procrustes: rotate the new basis onto the
            # reference frame so coordinates stay comparable across
            # batches despite sign flips / reordering of the singular
            # vectors as the sketch evolves.
            u, _, vt = np.linalg.svd(basis[:, :m].T @ ref[:, :m])
            basis = basis[:, :m] @ (u @ vt)
        self._latent_basis = basis
        self._latents.append(rows @ basis)

    def consume_sharded(
        self,
        images: np.ndarray,
        n_ranks: int,
        cost_model: CommCostModel | None = None,
        shot_ids=None,
    ) -> "MonitoringPipeline":
        """Sketch one batch across ``n_ranks`` simulated ranks (tree merge).

        The resulting global sketch is merged into the pipeline's
        sketcher, so sharded and streaming ingestion can be mixed.  The
        wall time of the rank run and the fold is charged to
        ``sketch_time``; the runner's virtual makespan stays in its own
        ``parallel_makespan_seconds`` histogram.
        """
        images, ids, _ = self._admit(images, shot_ids)
        self._batches_counter.inc()
        if images.shape[0] == 0:
            return self
        ch, cw = self.preprocessor.output_shape(images)
        sk = self._ensure_sketcher(ch * cw)
        with self.registry.span("consume.preprocess"):
            rows = self.preprocessor.apply_flat(
                images, out=self._retain_slot(images.shape[0], ch * cw)
            )
        runner = DistributedSketchRunner(
            ell=max(sk.ell, self.sketch_config.ell),
            strategy="tree",
            cost_model=cost_model,
            registry=self.registry,
        )
        with self.registry.span("consume.sketch"):
            result = runner.run(np.array_split(rows, n_ranks, axis=0))
            # Fold the merged global sketch into the running sketcher.
            sk.sketcher.partial_fit(result.sketch[np.any(result.sketch != 0, axis=1)])
        self._record_batch(rows, ids, sk)
        return self

    # ------------------------------------------------------------------
    # Snapshot publication (the serving read path; see repro.serve)
    # ------------------------------------------------------------------
    def attach_snapshot_store(self, store, every_batches: int = 1):
        """Publish an immutable sketch snapshot every ``every_batches`` batches.

        ``store`` is a :class:`~repro.serve.snapshot.SnapshotStore`.
        Publication reads the sketch through the non-mutating ``peek``
        path and samples retained data deterministically (no RNG), so
        the ingested sketch stream stays bit-identical with publishing
        on or off — the regression-tested serving contract
        (``docs/serving.md``).  Returns ``store`` for chaining.
        """
        if every_batches < 1:
            raise ValueError(f"every_batches must be >= 1, got {every_batches}")
        self._snapshot_store = store
        self._publish_every = int(every_batches)
        self._batches_since_publish = 0
        return store

    def publish_snapshot(self):
        """Publish one snapshot now (requires an attached store)."""
        if self._snapshot_store is None:
            raise RuntimeError("no snapshot store attached; call attach_snapshot_store")
        self._batches_since_publish = 0
        return self._snapshot_store.publish(self)

    def _maybe_publish(self) -> None:
        if self._snapshot_store is None:
            self._observe()
            return
        self._batches_since_publish += 1
        if self._batches_since_publish >= self._publish_every:
            self._batches_since_publish = 0
            self._snapshot_store.publish(self)
        self._observe()

    # ------------------------------------------------------------------
    # Timeline sampling and alert evaluation (see docs/observability.md)
    # ------------------------------------------------------------------
    def attach_timeline(self, timeline):
        """Sample ``timeline`` after every consumed batch.

        ``timeline`` is a :class:`~repro.obs.timeline.Timeline` (usually
        over this pipeline's registry, on the driver's virtual clock).
        Sampling reads instruments only — ingest stays bit-identical
        with a timeline attached or not.  Returns ``timeline``.
        """
        self._timeline = timeline
        return timeline

    def attach_alerts(self, alerts):
        """Evaluate ``alerts`` after every consumed batch.

        ``alerts`` is an :class:`~repro.obs.alerts.AlertManager`; its
        timeline is attached too (one sample per batch precedes each
        evaluation).  Returns ``alerts``.
        """
        self._alerts = alerts
        if alerts.timeline is not None:
            self._timeline = alerts.timeline
        return alerts

    def _observe(self) -> None:
        """Per-batch observability tick: sample, then evaluate rules."""
        if self._timeline is not None:
            self._timeline.sample()
        if self._alerts is not None:
            self._alerts.evaluate()

    def retained_latent_sample(
        self, basis: np.ndarray, max_rows: int = 256
    ) -> np.ndarray:
        """Deterministic latent sample of the retained stream.

        Used by snapshot publication as the ABOD reference reservoir:
        up to ``max_rows`` retained frames, chosen by an even stride
        over the stream (no RNG draws — publication must not perturb
        seeded ingest), projected into the ``(d, k)`` ``basis`` frame.

        In ``retain="latent"`` mode the stored coordinates live in the
        pipeline's Procrustes-aligned reference frame; they are rotated
        into the requested basis frame (exact when the two bases span
        the same subspace, least-squares otherwise).
        """
        k = basis.shape[1]
        if max_rows <= 0 or self.n_images == 0:
            return np.zeros((0, k))
        if self.retain == "rows":
            rows = _stride_sample([self.retained_rows], self.n_images, max_rows)
            return rows @ basis
        lat = _stride_sample(self._latents, self.n_images, max_rows)
        ref = self._latent_basis
        if ref is None or lat.shape[1] == 0:
            return np.zeros((0, k))
        m = min(lat.shape[1], ref.shape[1])
        kk = min(m, k)
        u, _, vt = np.linalg.svd(ref[:, :m].T @ basis[:, :kk])
        return lat[:, :m] @ (u @ vt)

    # ------------------------------------------------------------------
    # Timing views (spans are the source of truth; these attributes are
    # kept as thin reads over the registry for backward compatibility)
    # ------------------------------------------------------------------
    def _stage_seconds(self, span_name: str) -> float:
        hist = self.registry.get_sample(SPAN_HISTOGRAM, {"span": span_name})
        return float(hist.sum) if hist is not None else 0.0

    @property
    def preprocess_time(self) -> float:
        """Cumulative seconds in the preprocessing stage."""
        return self._stage_seconds("consume.preprocess")

    @property
    def sketch_time(self) -> float:
        """Cumulative wall-clock seconds in the sketching stage."""
        return self._stage_seconds("consume.sketch")

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    @property
    def sketcher(self) -> ARAMS:
        """The online ARAMS sketcher (raises before any data arrives)."""
        if self._sketcher is None:
            raise RuntimeError("no data consumed yet")
        return self._sketcher

    def analyze(self) -> MonitoringResult:
        """Run projection, UMAP, OPTICS and ABOD on everything consumed.

        Fail-soft: each stage runs under a
        :class:`~repro.pipeline.supervisor.StageSupervisor`, which times
        it as the span ``analyze.<stage>`` and records its outcome and
        seconds in ``result.stages`` (``result.timings`` reads those
        seconds).  A stage failure (non-convergence, degenerate
        spectra, layout NaNs) substitutes the documented fallback —
        all-zero latent, the first two PCA axes as the embedding,
        all-noise labels, or no-outliers — and is recorded there
        instead of raising; the sketch and everything consumed stay
        intact.  Only calling before any data has arrived still raises.
        """
        if self._sketcher is None or self.n_images == 0:
            raise RuntimeError("no data consumed yet")
        sup = StageSupervisor(self.registry)

        def project_primary():
            pca = SketchPCA(self._sketcher.compact_sketch(), n_components=self.n_latent)
            if self.retain == "rows":
                latent = pca.transform(self.retained_rows)
            else:
                parts = self._latents
                width = max(p.shape[1] for p in parts)
                latent = np.zeros((self.n_images, width))
                at = 0
                for p in parts:
                    latent[at : at + p.shape[0], : p.shape[1]] = p
                    at += p.shape[0]
            return pca, latent

        def project_validate(value):
            _, latent = value
            if not np.all(np.isfinite(latent)):
                return "non-finite latent coordinates"
            return None

        pca, latent = sup.run(
            "project",
            project_primary,
            lambda: (None, np.zeros((self.n_images, self.n_latent))),
            "all-zero latent coordinates",
            validate=project_validate,
        )

        n_emb = int(self.umap_params.get("n_components", 2))

        def umap_primary():
            return UMAP(**self.umap_params).fit_transform(latent)

        def umap_fallback():
            emb = np.zeros((latent.shape[0], n_emb))
            take = min(n_emb, latent.shape[1])
            emb[:, :take] = latent[:, :take]
            return emb

        def umap_validate(emb):
            if emb.shape[0] != latent.shape[0]:
                return f"embedding has {emb.shape[0]} rows for {latent.shape[0]} frames"
            if not np.all(np.isfinite(emb)):
                return "non-finite embedding coordinates (layout diverged)"
            return None

        embedding = sup.run(
            "umap",
            umap_primary,
            umap_fallback,
            f"first {n_emb} PCA axes as embedding",
            validate=umap_validate,
        )

        def cluster_primary():
            if self.cluster_method == "hdbscan":
                return HDBSCAN(**self.hdbscan_params).fit_predict(embedding)
            return OPTICS(**self.optics_params).fit_predict(embedding)

        def cluster_validate(labels):
            if np.asarray(labels).shape[0] != embedding.shape[0]:
                return "label count does not match embedding rows"
            return None

        labels = sup.run(
            self.cluster_method,
            cluster_primary,
            lambda: np.full(embedding.shape[0], -1, dtype=int),
            "all-noise labels",
            validate=cluster_validate,
        )

        if self.outlier_contamination is not None:

            def abod_primary():
                return abod_outliers(
                    latent,
                    contamination=self.outlier_contamination,
                    n_neighbors=min(self.outlier_neighbors, latent.shape[0] - 1),
                )

            def abod_validate(value):
                mask, sc = value
                if mask.shape[0] != latent.shape[0] or sc.shape[0] != latent.shape[0]:
                    return "outlier arrays do not match frame count"
                if not np.all(np.isfinite(sc)):
                    return "non-finite ABOF scores"
                return None

            outliers, scores = sup.run(
                "abod",
                abod_primary,
                lambda: (
                    np.zeros(self.n_images, dtype=bool),
                    np.zeros(self.n_images),
                ),
                "no outliers flagged",
                validate=abod_validate,
            )
        else:
            outliers = np.zeros(self.n_images, dtype=bool)
            scores = np.zeros(self.n_images)

        evr = (
            pca.explained_variance_ratio_
            if pca is not None
            else np.zeros(latent.shape[1])
        )
        result = MonitoringResult(
            latent=latent,
            embedding=embedding,
            labels=labels,
            outliers=outliers,
            outlier_scores=scores,
            explained_variance_ratio=evr,
            shot_ids=np.asarray(self.shot_ids, dtype=np.int64),
            stages=dict(sup.results),
        )
        self._analysis = result
        return result

    def throughput_hz(self) -> float:
        """Achieved ingest rate: images per second of preprocess+sketch."""
        busy = self.preprocess_time + self.sketch_time
        if busy == 0:
            return float("inf")
        return self.n_images / busy

    def health_summary(self) -> dict:
        """Sketch-health snapshot plus stage timing totals.

        Feeds the HTML operator report and the CLI metrics dump; see
        :meth:`repro.obs.health.SketchHealth.summary` for the sketch
        fields.
        """
        summary = self.health.summary()
        summary["stage_seconds"] = {
            "preprocess": self.preprocess_time,
            "sketch": self.sketch_time,
        }
        summary["n_images"] = self.n_images
        summary["n_offered"] = self.n_offered
        if self._fused is not None:
            summary["ingest"] = {
                "frames": self._fused.n_frames,
                "chunks": self._fused.n_chunks,
            }
        if self.guard is not None:
            summary["guard"] = self.guard.summary()
        if self._analysis is not None and self._analysis.stages:
            summary["stages"] = self._analysis.stage_summary()
        if self._alerts is not None:
            summary["alerts"] = self._alerts.summary()
        return summary
