"""Crash-consistent checkpoint/resume for the whole monitoring pipeline.

The sketch is the run's irreplaceable summary — a one-pass algorithm
cannot replay the stream — so the monitor must survive a kill at any
instant without losing it.  :func:`save_pipeline_checkpoint` writes a
*generation*: a directory holding the sketcher state (via
:mod:`repro.core.persistence`), the sampler and probe RNG states, the
retained rows/latents, the guard's decision state and quarantine
summary, the health trajectories and a metric snapshot, all described
by a versioned ``MANIFEST.json`` carrying a SHA-256 per file.

Crash consistency comes from ordering, not locking:

1. every payload file is written into a hidden ``.gen-XXXXXX.tmp``
   directory and fsynced;
2. the manifest — the generation's commit record — is written *last*
   and fsynced;
3. the temp directory is atomically renamed to ``gen-XXXXXX`` and the
   parent directory fsynced.

A crash before the rename leaves only a temp directory (ignored and
garbage-collected on the next save); a crash after it leaves a fully
committed generation.  :func:`load_pipeline_checkpoint` verifies every
checksum and falls back to the previous generation when the newest is
corrupt (torn write, bit rot), raising
:class:`CheckpointCorruptionError` only when no generation survives.

Resume is exact: a monitor checkpointed mid-stream and resumed produces
bit-identical sketch bytes and identical counters to one that never
stopped (see ``tests/test_pipeline_checkpoint.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from repro.core.arams import ARAMS, ARAMSConfig
from repro.core.persistence import load_sketcher, save_sketcher
from repro.core.rank_adaptive import RankAdaptiveFD
from repro.obs.registry import Registry
from repro.pipeline.guard import GuardConfig
from repro.pipeline.monitor import MonitoringPipeline
from repro.pipeline.preprocess import Preprocessor

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "save_pipeline_checkpoint",
    "load_pipeline_checkpoint",
    "list_generations",
    "prune_generations",
]

FORMAT_VERSION = 1
_MANIFEST = "MANIFEST.json"
_SKETCH = "sketch.npz"
_STATE = "state.json"
_RETAINED = "retained.npz"


class CheckpointError(RuntimeError):
    """A pipeline checkpoint could not be written or read."""


class CheckpointCorruptionError(CheckpointError):
    """Checkpoint data failed integrity verification."""


# ----------------------------------------------------------------------
# Low-level durability helpers
# ----------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())


def list_generations(directory: str | Path) -> list[tuple[int, Path]]:
    """Committed generations under ``directory``, oldest first.

    A generation counts as committed only once its atomic rename
    landed; temp directories from interrupted saves are excluded.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for child in directory.iterdir():
        if child.is_dir() and child.name.startswith("gen-"):
            try:
                out.append((int(child.name[len("gen-"):]), child))
            except ValueError:
                continue
    return sorted(out)


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------

def _pipeline_state(pipe: MonitoringPipeline) -> dict:
    """Everything beyond the sketch buffer needed for exact resume."""
    cfg = pipe.sketch_config
    arams = pipe.sketcher
    fd = arams.sketcher
    from dataclasses import asdict

    config = {
        "image_shape": list(pipe.image_shape),
        "preprocessor": asdict(pipe.preprocessor),
        "sketch": asdict(cfg),
        "n_latent": pipe.n_latent,
        "umap": dict(pipe.umap_params),
        "optics": dict(pipe.optics_params),
        "cluster_method": pipe.cluster_method,
        "hdbscan": dict(pipe.hdbscan_params),
        "outlier_contamination": pipe.outlier_contamination,
        "outlier_neighbors": pipe.outlier_neighbors,
        "retain": pipe.retain,
        "seed": pipe.seed,
        "guard": pipe.guard.config.to_dict() if pipe.guard is not None else None,
    }
    if config["preprocessor"]["crop"] is not None:
        config["preprocessor"]["crop"] = list(config["preprocessor"]["crop"])
    runtime: dict = {
        "d": arams.d,
        "n_offered": arams.n_seen,
        "sample_rng": arams._sample_rng.bit_generator.state,
        "n_images": pipe.n_images,
        "pipeline_n_offered": pipe.n_offered,
        "next_shot_id": pipe._next_shot_id,
        "health": {
            "rank_trajectory": [list(p) for p in pipe.health.rank_trajectory],
            "error_trajectory": [list(p) for p in pipe.health.error_trajectory],
            "last_energy": pipe.health._last_energy,
        },
        "guard": pipe.guard.state_dict() if pipe.guard is not None else None,
    }
    if isinstance(fd, RankAdaptiveFD):
        runtime["probe_rng"] = fd._rng.bit_generator.state
    metrics = []
    for inst in pipe.registry.instruments():
        if inst.kind in ("counter", "gauge"):
            metrics.append(
                {
                    "name": inst.name,
                    "labels": dict(inst.labels),
                    "kind": inst.kind,
                    "value": inst.value,
                }
            )
    return {
        "format_version": FORMAT_VERSION,
        "config": config,
        "runtime": runtime,
        "metrics": metrics,
    }


def save_pipeline_checkpoint(
    pipe: MonitoringPipeline,
    directory: str | Path,
    keep: int = 2,
) -> Path:
    """Atomically write one checkpoint generation of ``pipe``.

    Parameters
    ----------
    pipe:
        The pipeline to checkpoint; it must have consumed data (the
        sketcher exists once the first frame survives the guard).
    directory:
        Checkpoint root; generations accumulate as ``gen-XXXXXX``
        subdirectories.
    keep:
        Committed generations to retain (older ones are pruned after a
        successful commit; at least 2 keeps a fallback for corruption).

    Returns
    -------
    pathlib.Path
        The committed generation directory.
    """
    if pipe._sketcher is None:
        raise CheckpointError("nothing to checkpoint: no data consumed yet")
    if pipe.sketch_config.gamma < 1.0:
        raise CheckpointError(
            "forgetting sketchers (gamma < 1) do not round-trip through "
            "core.persistence; pipeline checkpoints require gamma == 1"
        )
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    gens = list_generations(directory)
    gen = gens[-1][0] + 1 if gens else 1
    tmp = directory / f".gen-{gen:06d}.tmp"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()

    save_sketcher(pipe.sketcher.sketcher, tmp / _SKETCH)
    retained: dict[str, np.ndarray] = {
        "shot_ids": np.asarray(pipe.shot_ids, dtype=np.int64),
    }
    if pipe.retain == "rows":
        if pipe.n_images:
            retained["rows"] = pipe.retained_rows
    else:
        for i, part in enumerate(pipe._latents):
            retained[f"latent_{i}"] = part
        if pipe._latent_basis is not None:
            retained["latent_basis"] = pipe._latent_basis
    with (tmp / _RETAINED).open("wb") as fh:
        np.savez(fh, **retained)
    _write_json(tmp / _STATE, _pipeline_state(pipe))
    for name in (_SKETCH, _RETAINED):
        _fsync_path(tmp / name)

    files = {
        name: {"sha256": _sha256(tmp / name), "bytes": (tmp / name).stat().st_size}
        for name in (_SKETCH, _STATE, _RETAINED)
    }
    _write_json(
        tmp / _MANIFEST,
        {"format_version": FORMAT_VERSION, "generation": gen, "files": files},
    )
    _fsync_path(tmp)

    final = directory / f"gen-{gen:06d}"
    os.rename(tmp, final)
    _fsync_path(directory)

    pipe.registry.counter(
        "pipeline_checkpoints_written_total",
        help="Pipeline checkpoint generations committed",
    ).inc()

    prune_generations(directory, keep, assume_intact=final)
    for child in directory.iterdir():
        if child.is_dir() and child.name.startswith(".gen-") and child != tmp:
            shutil.rmtree(child, ignore_errors=True)
    return final


def prune_generations(
    directory: str | Path,
    keep: int,
    assume_intact: Path | None = None,
) -> list[Path]:
    """Remove committed generations beyond the newest ``keep``.

    The newest generation that passes integrity verification is *never*
    deleted, even when it falls outside the keep window: if every newer
    generation is corrupt (bit rot discovered later, a torn write that
    somehow committed), it is the only loadable state left, and pruning
    it would turn a recoverable resume into a restart.  Temp directories
    from interrupted saves are not generations and neither count toward
    ``keep`` nor shield anything from pruning.

    Parameters
    ----------
    directory:
        Checkpoint root.
    keep:
        Committed generations to retain (>= 1).
    assume_intact:
        A generation known verified (the one :func:`save_pipeline_checkpoint`
        just committed) — skips re-hashing it.

    Returns
    -------
    list[pathlib.Path]
        The generation directories actually removed.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    gens = list_generations(directory)
    doomed = [path for _, path in gens[:-keep]]
    if not doomed:
        return []
    newest_verified: Path | None = None
    for _, gen_dir in reversed(gens):
        if assume_intact is not None and gen_dir == assume_intact:
            newest_verified = gen_dir
            break
        try:
            _verify_generation(gen_dir)
        except CheckpointCorruptionError:
            continue
        newest_verified = gen_dir
        break
    removed = []
    for old in doomed:
        if old == newest_verified:
            continue
        shutil.rmtree(old, ignore_errors=True)
        removed.append(old)
    return removed


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

def _verify_generation(gen_dir: Path) -> dict:
    manifest_path = gen_dir / _MANIFEST
    if not manifest_path.is_file():
        raise CheckpointCorruptionError(f"{gen_dir}: manifest missing")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointCorruptionError(f"{gen_dir}: unreadable manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointCorruptionError(
            f"{gen_dir}: checkpoint format {version} not supported "
            f"(this build reads {FORMAT_VERSION})"
        )
    for name, meta in manifest.get("files", {}).items():
        path = gen_dir / name
        if not path.is_file():
            raise CheckpointCorruptionError(f"{gen_dir}: payload {name} missing")
        if _sha256(path) != meta.get("sha256"):
            raise CheckpointCorruptionError(
                f"{gen_dir}: payload {name} failed its checksum "
                f"(torn write or bit rot)"
            )
    return manifest


def _load_generation(gen_dir: Path, registry: Registry | None) -> MonitoringPipeline:
    _verify_generation(gen_dir)
    try:
        state = json.loads((gen_dir / _STATE).read_text())
    except ValueError as exc:
        raise CheckpointCorruptionError(f"{gen_dir}: unreadable state: {exc}") from exc
    config = state["config"]
    runtime = state["runtime"]

    pre_cfg = dict(config["preprocessor"])
    if pre_cfg.get("crop") is not None:
        pre_cfg["crop"] = tuple(pre_cfg["crop"])
    sketch_cfg = dict(config["sketch"])
    if sketch_cfg.get("max_ell") is not None:
        sketch_cfg["max_ell"] = int(sketch_cfg["max_ell"])
    guard_cfg = config.get("guard")
    # Older generations carry an "ingest" key naming a path that no
    # longer exists; every path produced the same rows, so it is ignored.
    pipe = MonitoringPipeline(
        image_shape=tuple(config["image_shape"]),
        preprocessor=Preprocessor(**pre_cfg),
        sketch=ARAMSConfig(**sketch_cfg),
        n_latent=config["n_latent"],
        umap=config["umap"],
        optics=config["optics"],
        cluster_method=config["cluster_method"],
        hdbscan=config["hdbscan"],
        outlier_contamination=config["outlier_contamination"],
        outlier_neighbors=config["outlier_neighbors"],
        retain=config["retain"],
        registry=registry if registry is not None else Registry(),
        seed=config["seed"],
        guard=GuardConfig.from_dict(guard_cfg) if guard_cfg is not None else None,
    )

    # Rebuild the sketcher around the persisted FD state, then restore
    # the RNG streams so resumed sampling/probing continues bit-exactly.
    arams = ARAMS(d=int(runtime["d"]), config=pipe.sketch_config)
    arams._fd = load_sketcher(gen_dir / _SKETCH, seed=0)
    arams._n_offered = int(runtime["n_offered"])
    arams._sample_rng.bit_generator.state = runtime["sample_rng"]
    if isinstance(arams._fd, RankAdaptiveFD):
        if "probe_rng" not in runtime:
            raise CheckpointCorruptionError(
                f"{gen_dir}: rank-adaptive sketch without a probe RNG state"
            )
        arams._fd._rng.bit_generator.state = runtime["probe_rng"]
    pipe._sketcher = arams
    pipe.health.attach(arams)
    # attach() seeds a fresh trajectory point; the saved trajectories
    # are the truth for an exact resume.
    health = runtime["health"]
    pipe.health.rank_trajectory = [tuple(p) for p in health["rank_trajectory"]]
    pipe.health.error_trajectory = [tuple(p) for p in health["error_trajectory"]]
    pipe.health._last_energy = float(health["last_energy"])

    if runtime.get("guard") is not None:
        if pipe.guard is None:
            raise CheckpointCorruptionError(
                f"{gen_dir}: guard state present but no guard configured"
            )
        pipe.guard.load_state(runtime["guard"])

    with np.load(gen_dir / _RETAINED, allow_pickle=False) as data:
        pipe.shot_ids = [int(s) for s in data["shot_ids"]]
        # Each read is a fresh array, adopted as is: the rows become the
        # pipeline's retention block.
        if pipe.retain == "rows":
            if "rows" in data.files:
                pipe._row_block = data["rows"]
        else:
            parts = sorted(
                (k for k in data.files if k.startswith("latent_") and k != "latent_basis"),
                key=lambda k: int(k[len("latent_"):]),
            )
            pipe._latents = [data[k] for k in parts]
            if "latent_basis" in data.files:
                pipe._latent_basis = data["latent_basis"]
    pipe.n_images = int(runtime["n_images"])
    pipe.n_offered = int(runtime["pipeline_n_offered"])
    pipe._next_shot_id = int(runtime["next_shot_id"])

    # Metric snapshot: counters advance by the saved delta, gauges jump
    # to the saved value.  Histograms (wall-clock spans) are not
    # restorable and are deliberately excluded.
    for entry in state["metrics"]:
        if entry["kind"] == "counter":
            inst = pipe.registry.counter(entry["name"], labels=entry["labels"])
            delta = float(entry["value"]) - inst.value
            if delta > 0:
                inst.inc(delta)
        elif entry["kind"] == "gauge":
            pipe.registry.gauge(entry["name"], labels=entry["labels"]).set(
                float(entry["value"])
            )
    return pipe


def load_pipeline_checkpoint(
    directory: str | Path,
    registry: Registry | None = None,
) -> MonitoringPipeline:
    """Restore the newest loadable checkpoint generation.

    Generations are tried newest-first; one that fails integrity
    verification (missing payload, checksum mismatch, unreadable
    manifest) is skipped — its corruption is counted in
    ``pipeline_checkpoint_corruptions_total`` on the restored
    pipeline's registry — and the previous generation is used instead.

    Raises
    ------
    CheckpointCorruptionError
        When no committed generation verifies.
    CheckpointError
        When ``directory`` holds no committed generation at all.
    """
    gens = list_generations(directory)
    if not gens:
        raise CheckpointError(f"no checkpoint generations under {directory}")
    corruptions = 0
    last_error: CheckpointCorruptionError | None = None
    for _, gen_dir in reversed(gens):
        try:
            pipe = _load_generation(gen_dir, registry)
        except CheckpointCorruptionError as exc:
            corruptions += 1
            last_error = exc
            continue
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # A generation whose payloads pass their checksums but whose
            # state does not reconstruct (truncated field set, wrong
            # types — e.g. written by a buggy tool) is corruption, not a
            # crash: skip it and fall back like a checksum failure.
            corruptions += 1
            last_error = CheckpointCorruptionError(
                f"{gen_dir}: state does not reconstruct a pipeline: {exc!r}"
            )
            continue
        if corruptions:
            pipe.registry.counter(
                "pipeline_checkpoint_corruptions_total",
                help="Checkpoint generations skipped as corrupt on load",
            ).inc(corruptions)
        return pipe
    raise CheckpointCorruptionError(
        f"all {len(gens)} checkpoint generations under {directory} are corrupt; "
        f"last error: {last_error}"
    )
