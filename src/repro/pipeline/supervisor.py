"""Fail-soft stage supervision for the analysis pipeline.

The online monitor must never stop: a UMAP layout that diverges or an
OPTICS run that chokes on a degenerate embedding is an *analysis*
problem, not a reason to drop the sketch (which is the irreplaceable
one-pass artifact).  :class:`StageSupervisor` runs each downstream stage
(PCA → UMAP → OPTICS/HDBSCAN → ABOD) under a catch-and-substitute
policy: stage-scoped failures are caught, a documented fallback value is
substituted, and a :class:`DegradedResult` records what happened so the
operator report and metrics can surface the degradation honestly.

This module contains the repository's **only** sanctioned broad
``except Exception`` handler (enforced by ``tests/test_no_bare_except.py``):
stage primaries are third-party-style numerical code whose failure modes
(non-convergence, singular matrices, empty clusters) cannot be usefully
enumerated, the handler never swallows silently (every catch increments
``pipeline_stage_failures_total{stage=...}`` and is reported in the
result), and ``KeyboardInterrupt``/``SystemExit`` still propagate.

See ``docs/data_robustness.md`` for the per-stage fallback table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

__all__ = ["DegradedResult", "StageFailure", "StageSupervisor"]


class StageFailure(RuntimeError):
    """Raised by a stage validator to flag degenerate (non-raising) output."""


@dataclass
class DegradedResult:
    """Outcome of one supervised stage.

    Attributes
    ----------
    stage:
        Stage name (``"project"``, ``"umap"``, ``"optics"``/``"hdbscan"``,
        ``"abod"``).
    status:
        ``"ok"`` when the primary ran clean, ``"degraded"`` when the
        fallback was substituted.
    fallback:
        Human-readable description of the substituted fallback
        (``None`` when ok).
    error:
        ``"ExcType: message"`` of the primary failure (``None`` when ok).
    seconds:
        Wall-clock seconds spent in the stage (primary, validator and
        fallback), read from its ``analyze.<stage>`` span.
    """

    stage: str
    status: str = "ok"
    fallback: str | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return asdict(self)


class StageSupervisor:
    """Run analysis stages fail-soft, recording a result per stage.

    Parameters
    ----------
    registry:
        Metric registry receiving the ``analyze.<stage>`` spans,
        ``pipeline_stage_failures_total`` and the ``pipeline_degraded``
        gauge; ``None`` uses the process default.
    """

    def __init__(self, registry=None):
        if registry is None:
            from repro.obs.registry import get_default_registry

            registry = get_default_registry()
        self.registry = registry
        self.results: dict[str, DegradedResult] = {}
        self._degraded_gauge = registry.gauge(
            "pipeline_degraded",
            help="1 when the last analysis substituted any stage fallback",
        )
        self._degraded_gauge.set(0.0)

    def run(
        self,
        stage: str,
        primary: Callable[[], object],
        fallback: Callable[[], object],
        fallback_desc: str,
        validate: Callable[[object], str | None] | None = None,
    ):
        """Run ``primary``; on any stage-scoped failure return ``fallback()``.

        The primary, the validator and any fallback run inside one
        ``analyze.<stage>`` span, whose elapsed wall seconds become the
        stage's :attr:`DegradedResult.seconds`.

        Parameters
        ----------
        stage:
            Stage name used in results, metric labels and the span name.
        primary:
            Zero-argument callable computing the stage output.
        fallback:
            Zero-argument callable producing the documented substitute.
            It must be trivially safe (constant arrays, slices of
            already-validated inputs) — a fallback that raises is a
            programming error and propagates.
        fallback_desc:
            Short description recorded in the :class:`DegradedResult`
            (e.g. ``"pca-first-2 embedding"``).
        validate:
            Optional check of the primary's output; return a reason
            string to reject it (degenerate-but-not-raising outputs:
            NaNs from a diverged layout), ``None`` to accept.
        """
        with self.registry.span(f"analyze.{stage}") as sp:
            try:
                value = primary()
                if validate is not None:
                    problem = validate(value)
                    if problem:
                        raise StageFailure(problem)
            except Exception as exc:  # noqa: BLE001 - the sanctioned stage boundary
                # Stage primaries are open-ended numerical code; anything
                # they raise is stage-scoped by construction (they touch no
                # pipeline state).  The catch is loud: counted, recorded,
                # and surfaced in the operator report.
                self.registry.counter(
                    "pipeline_stage_failures_total",
                    labels={"stage": stage},
                    help="Analysis stage failures replaced by fallbacks",
                ).inc()
                self._degraded_gauge.set(1.0)
                result = DegradedResult(
                    stage=stage,
                    status="degraded",
                    fallback=fallback_desc,
                    error=f"{type(exc).__name__}: {exc}",
                )
                value = fallback()
            else:
                result = DegradedResult(stage=stage)
        result.seconds = sp.elapsed
        self.results[stage] = result
        return value
