"""End-to-end LCLS image-monitoring pipeline (paper Fig. 4).

Stages: preprocess (repair → crop → threshold → center → normalize) →
ARAMS matrix sketch (optionally across simulated ranks with tree merge)
→ PCA projection into latent space → UMAP to 2-D → OPTICS clustering
and ABOD outlier flagging → operator-facing summary.

- :mod:`repro.pipeline.preprocess` — the paper's image-processing steps
  as one chunked kernel; every path that turns frames into rows runs it.
- :mod:`repro.pipeline.guard` — FrameGuard screening/quarantine in front
  of the sketch (see ``docs/data_robustness.md``).
- :mod:`repro.pipeline.ingest` — :class:`FusedIngest`, the one ingest
  path: guard certificates → preprocess kernel → sketch in a single
  sweep (see ``docs/performance.md``).
- :mod:`repro.pipeline.supervisor` — fail-soft stage supervision for the
  analysis stages (:class:`DegradedResult` instead of raising).
- :mod:`repro.pipeline.monitor` — :class:`MonitoringPipeline`, the
  one-object API tying every stage together.
- :mod:`repro.pipeline.checkpoint` — crash-consistent checkpoint/resume
  of the whole pipeline (atomic generations, checksum fallback).
- :mod:`repro.pipeline.results` — embedding statistics, ASCII density
  maps and CSV export (standing in for the Bokeh HTML output).
"""

from repro.pipeline.preprocess import Preprocessor
from repro.pipeline.guard import (
    FrameGuard,
    GuardConfig,
    GuardBatch,
    QuarantineRing,
    QuarantinedFrame,
    RejectReason,
)
from repro.pipeline.ingest import FusedIngest
from repro.pipeline.supervisor import DegradedResult, StageFailure, StageSupervisor
from repro.pipeline.monitor import MonitoringPipeline, MonitoringResult
from repro.pipeline.checkpoint import (
    CheckpointCorruptionError,
    CheckpointError,
    list_generations,
    load_pipeline_checkpoint,
    save_pipeline_checkpoint,
)
from repro.pipeline.drift import DriftEvent, DriftMonitor
from repro.pipeline.html_report import write_embedding_report
from repro.pipeline.results import (
    embedding_axis_correlations,
    ascii_density_map,
    export_embedding_csv,
)

__all__ = [
    "Preprocessor",
    "FrameGuard",
    "GuardConfig",
    "GuardBatch",
    "QuarantineRing",
    "QuarantinedFrame",
    "RejectReason",
    "FusedIngest",
    "DegradedResult",
    "StageFailure",
    "StageSupervisor",
    "MonitoringPipeline",
    "MonitoringResult",
    "CheckpointError",
    "CheckpointCorruptionError",
    "save_pipeline_checkpoint",
    "load_pipeline_checkpoint",
    "list_generations",
    "DriftEvent",
    "DriftMonitor",
    "write_embedding_report",
    "embedding_axis_correlations",
    "ascii_density_map",
    "export_embedding_csv",
]
