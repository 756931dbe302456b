"""Workloads, inputs, timed repetitions and checks of the e2e benchmark.

One *repetition* builds a fresh :class:`MonitoringPipeline`, streams a
workload's frames through it batch by batch, runs ``analyze()`` (or
serves queries between batches), then checks what came out.  The load
is closed-loop from this process: one client issues the next call only
after the previous one returned, and the benchmark runs no threads or
processes of its own (the simulated ranks of ``consume_sharded`` are the
program's).

The program sees only generated inputs: ``BeamProfileGenerator`` frames
cast to float32, written once per invocation to a ``.npy`` file and read
back memory-mapped, plus preprocessed query payloads drawn from a
held-out pool of frames.  Every input is a function of the seed.

Wall seconds are measured here with ``time.perf_counter`` around the
program's public calls; each metric is the median over ``REPS``
repetitions.  The program's own timing views
(``throughput_hz()``, ``sketch_time``, the ``consume.sketch`` span
histogram) are never read: ``consume_sharded`` adds its virtual makespan
to them, so they mix wall and virtual seconds.  The virtual makespan is
reported on its own, as ``parallel.runner.virtual_makespan_s``.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.core.frequent_directions as fd_module
import repro.core.merge as merge_module
import repro.parallel.runner as runner_module
import repro.pipeline.monitor as monitor_module
from repro.cluster.optics import OPTICS
from repro.core.arams import ARAMS, ARAMSConfig
from repro.core.errors import relative_covariance_error
from repro.core.frequent_directions import FrequentDirections
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.embed.pca import SketchPCA
from repro.embed.umap import UMAP
from repro.linalg.svd import KERNEL_COUNTER
from repro.obs.registry import Registry, set_default_registry
from repro.parallel.runner import DistributedSketchRunner
from repro.pipeline.guard import FrameGuard, GuardConfig
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor
from repro.serve.query import QueryEngine
from repro.serve.snapshot import SnapshotStore

from e2e_stats import quartiles, tail_percentile
from e2e_trace import Tracer, covered, ledger

clock = time.perf_counter

#: Query mix of the closed-loop client, and the share of re-asked payloads.
KINDS = ("project", "residual", "outlier_score")
KIND_MIX = (0.5, 0.3, 0.2)
REASK = 0.25
#: A re-ask repeats one of this many most recent queries of its round.
REASK_WINDOW = 16
PAYLOAD_ROWS = 4
#: Frames in each throwaway warm-up pipeline.
WARMUP_FRAMES = 256
#: Queries per round in a warm-up: enough to run every query kind once.
WARMUP_QUERIES = 16
#: Untraced repetitions per run.  The count is fixed, so both sides of a
#: comparison take the same sample whatever their speed; three is what
#: fits the benchmark's total time cap at these workload sizes.
REPS = 3
#: Frames generated per call (bounds the float64 generator output held at
#: once), and seed stream ids.
GEN_CHUNK = 128
FRAME_STREAM, POOL_STREAM, QUERY_STREAM = 0, 1, 2
NORM_SIGMA = 40.0
#: Share of the traced wall time the top-level layer spans must cover.
MIN_COVERAGE = 0.95
STRATEGY = {"strategy": "tree"}


@dataclass(frozen=True)
class Workload:
    """One benchmark input and how it is run.

    ``analyze`` workloads run ``analyze()`` after ingest and then one
    round of queries against the final snapshot; the others serve a
    round of queries after every batch.  ``ranks`` selects
    ``consume_sharded`` over that many simulated ranks.
    """

    name: str
    why: str
    frames: int
    side: int
    crop: int | None
    batch: int
    ell: int
    publish_every: int
    analyze: bool
    ranks: int | None = None
    beta: float = 0.8
    queries_per_round: int = 256
    pool: int = 256

    @property
    def batches(self) -> int:
        return -(-self.frames // self.batch)

    @property
    def rounds(self) -> int:
        return 1 if self.analyze else self.batches


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "beam_lcls",
            "Paper/ROADMAP ingest shape (256x256 float32 cropped to 128x128); "
            "ingest-bound, so ingest, sketch and linalg changes show here.",
            frames=2048, side=256, crop=128, batch=128, ell=64,
            publish_every=4, analyze=True,
        ),
        Workload(
            "analysis_small",
            "Small 32x32 frames: analysis-bound (UMAP, OPTICS, ABOD); an "
            "ingest change must show no change here.",
            frames=4000, side=32, crop=None, batch=200, ell=32,
            publish_every=4, analyze=True,
        ),
        Workload(
            "sharded_lcls",
            "consume_sharded over 8 simulated ranks with a tree merge per "
            "batch; exercises runner, merge and staged preprocess, not fused ingest.",
            frames=1024, side=256, crop=128, batch=128, ell=64,
            publish_every=4, analyze=True, ranks=8,
        ),
        Workload(
            "serve_during_ingest",
            "Queries against each freshly published snapshot between ingest "
            "batches; publication or snapshot cost moved into ingest shows here.",
            frames=1024, side=256, crop=128, batch=64, ell=64,
            publish_every=1, analyze=False,
            queries_per_round=128,
            # Priority sampling of 64-frame batches alone exceeds the FD
            # error bound checked below (about 0.025 against 1/64); this
            # workload is about reads beside writes, so it sketches every row.
            beta=1.0,
        ),
    )
}

#: End-to-end metrics with a bound in BENCHMARK.json: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "peak_mem_mb": ("MB", "lower"),
    "ops_ok_ratio": ("ratio", "higher"),
}

#: End-to-end wall-clock rates and latencies.  Their run-to-run spread
#: on the machine the benchmark was built on is wider than the 10%
#: ceiling on bounds, so BENCHMARK.json lists them with the per-layer
#: metrics, which carry no bound.
WALL_METRICS = {
    "frames_per_sec": ("frames/s", "higher"),
    "time_to_first_embedding_s": ("s", "lower"),
    "queries_per_sec": ("queries/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
}

#: Per-layer metrics of the traced repetition: name -> (unit, better).
LAYER_METRICS = {
    "pipeline.monitor.consume_s": ("s", "lower"),
    "pipeline.monitor.consume_self_s": ("s", "lower"),
    "pipeline.monitor.analyze_self_s": ("s", "lower"),
    "pipeline.guard.screen_s": ("s", "lower"),
    "pipeline.guard.frames_offered": ("count", "higher"),
    "pipeline.guard.frames_rejected": ("count", "lower"),
    "pipeline.ingest.sweep_s": ("s", "lower"),
    "pipeline.ingest.zero_copy_rows": ("count", "higher"),
    "pipeline.ingest.chunks": ("count", "lower"),
    "pipeline.preprocess.apply_s": ("s", "lower"),
    "core.arams.partial_fit_s": ("s", "lower"),
    "linalg.svd.rotate_s": ("s", "lower"),
    "core.rotations": ("count", "lower"),
    "core.rotations_gram": ("count", "higher"),
    "core.rotations_svd": ("count", "lower"),
    "core.gram_fallbacks": ("count", "lower"),
    "core.rel_cov_error": ("ratio", "lower"),
    "parallel.runner.run_s": ("s", "lower"),
    "parallel.runner.virtual_makespan_s": ("virtual_s", "lower"),
    "core.merge.rotations_total": ("count", "lower"),
    "core.merge.rotations_critical_path": ("count", "lower"),
    "parallel.comm.bytes": ("bytes", "lower"),
    "embed.pca.project_s": ("s", "lower"),
    "embed.umap.fit_s": ("s", "lower"),
    "cluster.optics.fit_s": ("s", "lower"),
    "cluster.abod.score_s": ("s", "lower"),
    "cluster.n_clusters": ("count", "higher"),
    "serve.snapshot.publish_s": ("s", "lower"),
    "serve.snapshot.publishes": ("count", "lower"),
    "serve.query.busy_s": ("s", "lower"),
    "serve.query.project_p50_ms": ("ms", "lower"),
    "serve.query.residual_p50_ms": ("ms", "lower"),
    "serve.query.outlier_score_p50_ms": ("ms", "lower"),
    "serve.query.tail_ms": ("ms", "lower"),
    "serve.query.tail_pct": ("percentile", "higher"),
    "serve.query.n": ("count", "higher"),
    "serve.query.cache_hit_ratio": ("ratio", "higher"),
    "ledger.coverage": ("ratio", "higher"),
    "ledger.unaccounted_s": ("s", "lower"),
    "ledger.trace_overhead_ratio": ("ratio", "lower"),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything the program is fed, all derived from one seed."""

    frames: np.ndarray  # (n, side, side) float32, memory-mapped
    pool_rows: np.ndarray  # (pool, d) preprocessed float64 query rows
    plan_kinds: np.ndarray  # (rounds, queries) index into KINDS
    plan_rows: np.ndarray  # (rounds, queries, PAYLOAD_ROWS) pool rows


def child_seed(seed: int, *keys: int) -> int:
    """Independent seed for one input stream (or chunk of one) of a run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def make_preprocessor(w: Workload) -> Preprocessor:
    crop = (w.crop, w.crop) if w.crop is not None else None
    return Preprocessor(threshold=0.02, normalize="l2", center=True, crop=crop)


def query_plan(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded query kinds and payload rows; a re-ask copies a recent query."""
    rng = np.random.default_rng(child_seed(seed, QUERY_STREAM))
    shape = (w.rounds, w.queries_per_round)
    kinds = np.empty(shape, dtype=np.int8)
    rows = np.empty(shape + (PAYLOAD_ROWS,), dtype=np.int32)
    for r in range(shape[0]):
        for q in range(shape[1]):
            if q and rng.random() < REASK:
                j = q - 1 - int(rng.integers(min(q, REASK_WINDOW)))
                kinds[r, q], rows[r, q] = kinds[r, j], rows[r, j]
            else:
                kinds[r, q] = rng.choice(len(KINDS), p=KIND_MIX)
                rows[r, q] = rng.choice(w.pool, size=PAYLOAD_ROWS, replace=False)
    return kinds, rows


def generate_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the frame stream to ``workdir``; make the query pool and plan."""
    config = BeamProfileConfig(shape=(w.side, w.side))
    path = Path(workdir) / f"{w.name}-seed{seed}.npy"
    out = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.float32, shape=(w.frames, w.side, w.side)
    )
    gen = BeamProfileGenerator(config, seed=child_seed(seed, FRAME_STREAM))
    for start in range(0, w.frames, GEN_CHUNK):
        out[start : start + GEN_CHUNK] = gen.sample(min(GEN_CHUNK, w.frames - start))[0]
    out.flush()
    del out
    frames = np.load(path, mmap_mode="r")
    for start in range(0, w.frames, GEN_CHUNK):
        frames[start : start + GEN_CHUNK].max()  # map every page before timing
    pool = BeamProfileGenerator(config, seed=child_seed(seed, POOL_STREAM)).sample(w.pool)[0]
    kinds, rows = query_plan(w, seed)
    return Inputs(frames, make_preprocessor(w).apply_flat(pool.astype(np.float32)), kinds, rows)


# ----------------------------------------------------------------------
# Memory high-water mark (Linux /proc, glibc)
# ----------------------------------------------------------------------
_LIBC = ctypes.CDLL(None)
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int


def _status_mb(field_name: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"{field_name} missing from /proc/self/status")


def reset_peak_rss() -> float:
    """Reset ``VmHWM`` to the current RSS and return that RSS in MB.

    Freed heap pages are first handed back to the kernel, so the mark
    counts memory in use rather than whatever the allocator happened to
    keep.
    """
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    return _status_mb("VmRSS")


def peak_rss() -> float:
    return _status_mb("VmHWM")


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def build_pipeline(w: Workload) -> tuple[MonitoringPipeline, SnapshotStore, QueryEngine]:
    # The generator's donut modes sit up to ~15 robust sigmas from the
    # median frame norm; they are beam states the analysis must see, so
    # the norm screen is set above them rather than at its default of 10.
    pipe = MonitoringPipeline(
        image_shape=(w.side, w.side),
        preprocessor=make_preprocessor(w),
        sketch=ARAMSConfig(ell=w.ell, beta=w.beta, epsilon=0.05, nu=8, seed=0),
        umap={"n_epochs": 150, "n_neighbors": 15},
        optics={"min_samples": 20},
        guard=GuardConfig(norm_sigma=NORM_SIGMA),
        ingest="fused",
        seed=0,
    )
    store = pipe.attach_snapshot_store(
        SnapshotStore(registry=pipe.registry), every_batches=w.publish_every
    )
    return pipe, store, QueryEngine(store, registry=pipe.registry)


@dataclass
class Rep:
    """Timings, counts and check outcomes of one repetition."""

    consume_s: list[float]  # per consume call
    analyze_s: float  # nan without analyze()
    # Serving workloads: per batch, its consume call -> the first
    # embedding (``project`` answer) served from the snapshot it published.
    fresh_embedding_s: list[float]
    latency_s: list[float]  # per planned query; nan where it failed
    kinds: list[str]
    t_start: float
    t_end: float
    hwm_mb: float  # VmHWM, after resetting it at the start of the repetition
    sha256: str
    counts: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    sketch: np.ndarray | None
    virtual_makespan_s: float

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_start


def _counter(reg: Registry, name: str, labels: dict | None = None) -> float:
    inst = reg.get_sample(name, labels)
    return float(inst.value) if inst is not None else 0.0


def run_rep(
    w: Workload, inputs: Inputs, limit: int | None = None, queries: int | None = None
) -> Rep:
    """Stream ``limit`` frames (default: all) through a fresh pipeline,
    asking at most ``queries`` (default: all planned) per query round."""
    n = w.frames if limit is None else min(limit, w.frames)
    per_round = w.queries_per_round if queries is None else min(queries, w.queries_per_round)
    reset_peak_rss()
    pipe, store, engine = build_pipeline(w)
    consume = pipe.consume if w.ranks is None else pipe.consume_sharded
    kwargs = {} if w.ranks is None else {"n_ranks": w.ranks}
    consume_s: list[float] = []
    latency_s: list[float] = []
    kinds: list[str] = []
    answers: list[tuple[tuple, object]] = []
    problems: list[str] = []
    fresh: list[float] = []

    def serve_round(r: int, since: float) -> None:
        first = float("nan")
        for q in range(per_round):
            kind = KINDS[inputs.plan_kinds[r, q]]
            picks = inputs.plan_rows[r, q]
            payload = inputs.pool_rows[picks]
            kinds.append(kind)
            t0 = clock()
            try:
                res = engine.query(kind, payload)
            except (KeyError, ValueError) as exc:
                latency_s.append(float("nan"))
                problems.append(f"query {r}/{q} {kind} failed: {exc}")
                continue
            t1 = clock()
            latency_s.append(t1 - t0)
            if kind == "project" and math.isnan(first):
                first = t1 - since
            answers.append(((res.epoch, kind, picks.tobytes()), res.value))
        fresh.append(first)

    t_start = None
    result = None
    analyze_s = float("nan")
    for b, start in enumerate(range(0, n, w.batch)):
        images = np.asarray(inputs.frames[start : min(start + w.batch, n)])
        t0 = clock()
        consume(images, **kwargs)
        consume_s.append(clock() - t0)
        t_start = t0 if t_start is None else t_start
        if not w.analyze:
            serve_round(b, t0)
    if w.analyze:
        t0 = clock()
        result = pipe.analyze()
        t1 = clock()
        analyze_s = t1 - t0
        if not store.published:  # a warm-up stream can end before its first publication
            pipe.publish_snapshot()
        serve_round(0, t1)
    t_end = clock()
    hwm = peak_rss()

    # ---- checks and counts (outside the timed phase) -------------------
    sketch = pipe.sketcher.compact_sketch()
    attempted = pipe.n_offered + len(latency_s)
    failed = len(problems)
    rejected = pipe.n_offered - pipe.n_images
    if rejected:
        problems.append(f"guard rejected {rejected} frames")
        failed += rejected
    if result is not None:
        attempted += len(result.stages)
        for name, stage in result.stages.items():
            if stage.status != "ok":
                problems.append(f"analyze stage {name} degraded: {stage.status}")
                failed += 1
        emb = result.embedding
        if emb.shape[0] != pipe.n_images or not np.all(np.isfinite(emb)):
            problems.append(f"embedding {emb.shape} not finite with one row per frame")
            failed += 1
    if not w.analyze and not np.all(np.isfinite(fresh)):
        problems.append("a published snapshot served no embedding")
        failed += 1
    first_answer: dict[tuple, bytes] = {}
    for key, value in answers:
        data = np.ascontiguousarray(value).tobytes()
        if first_answer.setdefault(key, data) != data:
            problems.append(f"re-asked {key[1]} answer differs from its first answer")
            failed += 1
    makespan = pipe.registry.get_sample("parallel_makespan_seconds", STRATEGY)
    counts = {
        "frames_offered": pipe.n_offered,
        "frames_rejected": rejected,
        "sketch_rotations": pipe.sketcher.sketcher.n_rotations,
        "sketch_ell": pipe.sketcher.ell,
        "ingest_chunks": _counter(pipe.registry, "fused_chunks_total", {"precision": "float64"}),
        "ingest_zero_copy_rows": _counter(
            pipe.registry, "fused_zero_copy_rows_total", {"precision": "float64"}
        ),
        "merge_rotations_total": _counter(
            pipe.registry, "parallel_merge_rotations_total", STRATEGY
        ),
        "merge_critical_path": _counter(pipe.registry, "parallel_merge_critical_path", STRATEGY),
        "comm_bytes": _counter(pipe.registry, "parallel_bytes_total", STRATEGY),
        "publishes": store.published,
        "queries": len(answers),
        "cache_hits": engine.n_hits,
        "n_clusters": result.n_clusters if result is not None else 0,
    }
    return Rep(
        consume_s=consume_s,
        analyze_s=analyze_s,
        fresh_embedding_s=[] if w.analyze else fresh,
        latency_s=latency_s,
        kinds=kinds,
        t_start=t_start,
        t_end=t_end,
        hwm_mb=hwm,
        sha256=hashlib.sha256(np.ascontiguousarray(sketch).tobytes()).hexdigest(),
        counts=counts,
        attempted=attempted,
        failed=failed,
        problems=problems,
        sketch=sketch,
        virtual_makespan_s=float(makespan.sum) if makespan is not None else 0.0,
    )


# ----------------------------------------------------------------------
# The traced repetition
# ----------------------------------------------------------------------
def layer_targets() -> list[tuple[object, str, str]]:
    """Public callables wrapped for the traced repetition, by layer."""
    return [
        (MonitoringPipeline, "consume", "pipeline.monitor.consume"),
        (MonitoringPipeline, "consume_sharded", "pipeline.monitor.consume"),
        (MonitoringPipeline, "analyze", "pipeline.monitor.analyze"),
        (FrameGuard, "screen", "pipeline.guard.screen"),
        (FusedIngest, "sweep", "pipeline.ingest.sweep"),
        (Preprocessor, "apply_flat", "pipeline.preprocess.apply_flat"),
        (ARAMS, "partial_fit", "core.arams.partial_fit"),
        (FrequentDirections, "partial_fit", "core.frequent_directions.partial_fit"),
        (fd_module, "fd_rotate", "linalg.svd.fd_rotate"),
        (merge_module, "fd_rotate", "linalg.svd.fd_rotate"),
        (runner_module, "shrink_stack", "core.merge.shrink_stack"),
        (DistributedSketchRunner, "run", "parallel.runner.run"),
        (SketchPCA, "__init__", "embed.pca.fit"),
        (SketchPCA, "transform", "embed.pca.transform"),
        (UMAP, "fit", "embed.umap.fit"),
        (OPTICS, "fit", "cluster.optics.fit"),
        (monitor_module, "abod_outliers", "cluster.abod.abod_outliers"),
        (SnapshotStore, "publish", "serve.snapshot.publish"),
        (QueryEngine, "query", "serve.query"),
    ]


@dataclass
class Traced:
    rep: Rep
    spans: list
    ledger: dict[str, dict[str, float]]
    kernels: dict[str, float]


def run_traced(w: Workload, inputs: Inputs) -> Traced:
    """One repetition with every layer wrapped and exact kernel counts on."""
    kernels = Registry()
    previous = set_default_registry(kernels)
    try:
        with Tracer(layer_targets()) as tracer:
            rep = run_rep(w, inputs)
    finally:
        set_default_registry(previous)
    counts = {
        kind: _counter(kernels, KERNEL_COUNTER, {"kernel": kind})
        for kind in ("gram", "svd", "gram_fallback")
    }
    spans = tracer.spans
    return Traced(rep, spans, ledger(spans, rep.t_start, rep.t_end), counts)


def layer_metrics(tr: Traced, untraced_wall_s: float, rel_cov: float) -> dict:
    """The per-layer ledger of the traced repetition, keyed by LAYER_METRICS."""
    rep, led = tr.rep, tr.ledger

    def total(name: str) -> float:
        return led.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return led.get(name, {}).get("self_s", 0.0)

    lat = [(t, k) for t, k in zip(rep.latency_s, rep.kinds) if math.isfinite(t)]
    by_kind = {k: [t for t, kk in lat if kk == k] for k in KINDS}
    tail_pct, tail_s, n = tail_percentile([t for t, _ in lat])
    top = [
        (s.start, s.end) for s in tr.spans if s.parent is None and s.start < rep.t_end
    ]
    accounted = covered(top, rep.t_start, rep.t_end)
    c = rep.counts
    queries = c["queries"]
    return {
        "pipeline.monitor.consume_s": total("pipeline.monitor.consume"),
        "pipeline.monitor.consume_self_s": own("pipeline.monitor.consume"),
        "pipeline.monitor.analyze_self_s": own("pipeline.monitor.analyze"),
        "pipeline.guard.screen_s": total("pipeline.guard.screen"),
        "pipeline.guard.frames_offered": c["frames_offered"],
        "pipeline.guard.frames_rejected": c["frames_rejected"],
        "pipeline.ingest.sweep_s": total("pipeline.ingest.sweep"),
        "pipeline.ingest.zero_copy_rows": c["ingest_zero_copy_rows"],
        "pipeline.ingest.chunks": c["ingest_chunks"],
        "pipeline.preprocess.apply_s": total("pipeline.preprocess.apply_flat"),
        "core.arams.partial_fit_s": total("core.arams.partial_fit"),
        "linalg.svd.rotate_s": total("linalg.svd.fd_rotate"),
        "core.rotations": sum(tr.kernels.values()),
        "core.rotations_gram": tr.kernels["gram"],
        "core.rotations_svd": tr.kernels["svd"],
        "core.gram_fallbacks": tr.kernels["gram_fallback"],
        "core.rel_cov_error": rel_cov,
        "parallel.runner.run_s": total("parallel.runner.run"),
        "parallel.runner.virtual_makespan_s": rep.virtual_makespan_s,
        "core.merge.rotations_total": c["merge_rotations_total"],
        "core.merge.rotations_critical_path": c["merge_critical_path"],
        "parallel.comm.bytes": c["comm_bytes"],
        "embed.pca.project_s": total("embed.pca.fit") + total("embed.pca.transform"),
        "embed.umap.fit_s": total("embed.umap.fit"),
        "cluster.optics.fit_s": total("cluster.optics.fit"),
        "cluster.abod.score_s": total("cluster.abod.abod_outliers"),
        "cluster.n_clusters": c["n_clusters"],
        "serve.snapshot.publish_s": total("serve.snapshot.publish"),
        "serve.snapshot.publishes": c["publishes"],
        "serve.query.busy_s": total("serve.query"),
        **{
            f"serve.query.{k}_p50_ms": statistics.median(v) * 1e3 if v else 0.0
            for k, v in by_kind.items()
        },
        "serve.query.tail_ms": tail_s * 1e3,
        "serve.query.tail_pct": tail_pct,
        "serve.query.n": n,
        "serve.query.cache_hit_ratio": c["cache_hits"] / queries if queries else 0.0,
        "ledger.coverage": accounted / rep.wall_s,
        "ledger.unaccounted_s": rep.wall_s - accounted,
        "ledger.trace_overhead_ratio": rep.wall_s / untraced_wall_s - 1.0,
    }


# ----------------------------------------------------------------------
# A whole run of one workload
# ----------------------------------------------------------------------
def stream_rel_cov_error(w: Workload, inputs: Inputs, sketch: np.ndarray) -> float:
    """FD error of ``sketch`` against the stream preprocessed by ``apply_flat``."""
    pre = make_preprocessor(w)
    rows = np.vstack(
        [
            pre.apply_flat(np.asarray(inputs.frames[s : s + w.batch]))
            for s in range(0, w.frames, w.batch)
        ]
    )
    return relative_covariance_error(rows, sketch)


def wall_values(w: Workload, rep: Rep) -> dict[str, float]:
    """The ``WALL_METRICS`` of one repetition."""
    lat = np.asarray(rep.latency_s)
    lat = lat[np.isfinite(lat)]
    ingest = float(sum(rep.consume_s))
    if w.analyze:
        first_embedding = ingest + rep.analyze_s
    else:
        first_embedding = float(np.mean(rep.fresh_embedding_s))
    return {
        "frames_per_sec": w.frames / ingest,
        "time_to_first_embedding_s": first_embedding,
        "queries_per_sec": lat.size / float(lat.sum()),
        "query_p50_ms": float(np.median(lat)) * 1e3,
    }


def _agreement(reps: list[Rep]) -> list[str]:
    """Problems where repetitions of identical inputs disagree."""
    problems = []
    if len({r.sha256 for r in reps}) != 1:
        problems.append("compact_sketch() sha256 differs between repetitions")
    for key in reps[0].counts:
        values = {r.counts[key] for r in reps}
        if len(values) != 1:
            problems.append(f"count {key} moved between repetitions: {sorted(values)}")
    return problems


def _summary(unit: str, samples: list[float]) -> dict:
    q1, med, q3 = quartiles(samples)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "samples": samples}


def measure(
    w: Workload, seed: int, workdir: Path, import_s: list[float], trace: bool = True
) -> dict:
    """Generate, set up, time, trace and check one workload; plain-data result.

    ``import_s`` holds one import time per set-up.  ``e2e`` holds every
    ``E2E_METRICS`` and ``WALL_METRICS`` entry as the median of its
    samples, with their quartiles; ``layers`` the traced repetition's
    ``LAYER_METRICS``.
    """
    t0 = clock()
    inputs = generate_inputs(w, seed, workdir)
    generate_s = clock() - t0

    setups = []
    for imports in import_s:
        t0 = clock()
        run_rep(w, inputs, limit=WARMUP_FRAMES, queries=WARMUP_QUERIES)
        setups.append(imports + clock() - t0)

    # Memory the program keeps between repetitions is reused by the next
    # one, so each repetition's high-water mark is taken against the
    # resident set at the start of the timed phase, not of the repetition.
    base_mb = reset_peak_rss()
    reps = []
    for i in range(REPS):
        rep = run_rep(w, inputs)
        if i:
            rep.sketch = None  # only the first sketch is checked against the stream
        reps.append(rep)
    traced = run_traced(w, inputs) if trace else None
    everyone = reps + ([traced.rep] if traced else [])

    checks = _agreement(everyone)
    t0 = clock()
    rel_cov = stream_rel_cov_error(w, inputs, reps[0].sketch)
    check_s = clock() - t0
    bound = 1.0 / w.ell
    if not rel_cov <= bound:
        checks.append(f"rel_cov_error {rel_cov:.5f} exceeds the FD bound 1/ell={bound:.5f}")
    layers = None
    if traced:
        untraced_wall = statistics.median(r.wall_s for r in reps)
        values = layer_metrics(traced, untraced_wall, rel_cov)
        layers = {k: {"value": values[k], "unit": LAYER_METRICS[k][0]} for k in LAYER_METRICS}
        if not values["ledger.coverage"] >= MIN_COVERAGE:
            checks.append(f"layers cover {values['ledger.coverage']:.3f} of the traced wall time")
    failed = sum(r.failed for r in everyone) + len(checks)
    attempted = sum(r.attempted for r in everyone)

    e2e = {
        "setup_s": _summary("s", setups),
        "peak_mem_mb": _summary("MB", [r.hwm_mb - base_mb for r in reps]),
        "ops_ok_ratio": _summary("ratio", [1.0 - failed / attempted]),
    }
    per_rep = [wall_values(w, r) for r in reps]
    for name, (unit, _) in WALL_METRICS.items():
        e2e[name] = _summary(unit, [v[name] for v in per_rep])
    return {
        "workload": w.name,
        "seed": seed,
        "e2e": e2e,
        "layers": layers,
        "ledger": traced.ledger if traced else None,
        "counts": reps[0].counts,
        "rel_cov_error": rel_cov,
        "fd_bound": bound,
        "bench": {
            "generate_s": generate_s,
            "import_s": import_s,
            "rep_wall_s": [r.wall_s for r in reps],
            "check_s": check_s,
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in everyone for p in r.problems] + checks,
    }
