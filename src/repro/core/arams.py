"""ARAMS: Accelerated Rank-Adaptive Matrix Sketching (paper Algorithm 3).

ARAMS chains the two stages the paper combines:

1. **Priority sampling** keeps the ``beta``-fraction highest-energy rows
   of each incoming batch (with unbiased Gram rescaling), cutting the
   volume reaching the expensive stage without collapsing to a tiny
   latent space;
2. **Rank-Adaptive Frequent Directions** sketches the surviving rows,
   growing its rank until the user's error tolerance ``epsilon`` is met.

The paper's pseudocode pushes the whole stream through one priority
queue of capacity ``beta * n`` and then sketches it; that requires
knowing ``n`` and buffering ``beta * n`` rows.  The streaming
formulation used here applies the sampler *per batch* — equivalent in
expectation, bounded memory, and it matches how the LCLS deployment
consumes runs as batches of shots (paper Fig. 4).  The one-shot
behaviour of Algorithm 3 is available via :meth:`ARAMS.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.frequent_directions import FrequentDirections
from repro.core.priority_sampling import PrioritySampler, priority_sample
from repro.core.rank_adaptive import RankAdaptiveFD
from repro.linalg.svd import ROTATION_KERNELS

__all__ = ["ARAMSConfig", "ARAMS"]


@dataclass(frozen=True)
class ARAMSConfig:
    """Configuration for the ARAMS sketcher.

    Attributes
    ----------
    ell:
        Initial sketch size.
    beta:
        Priority-sampling retention fraction in ``(0, 1]``; ``1.0``
        disables sampling (pure rank-adaptive FD).
    epsilon:
        Reconstruction-error tolerance driving rank adaptation; ``None``
        disables adaptation (pure fixed-rank FD behind the sampler).
    nu:
        Rank increment and probe count for the adaptation heuristic.
    max_ell:
        Cap on the adapted sketch size (defaults to ``d`` at build time).
    relative_error:
        Interpret ``epsilon`` relative to batch energy.
    estimator:
        Residual-norm estimator name (see :mod:`repro.linalg.norms`).
    scale_sampled_rows:
        Rescale sampled rows for Gram unbiasedness.
    gamma:
        Exponential forgetting factor in (0, 1]; values below 1 decay
        older data per sketch rotation (see
        :class:`repro.core.forgetting.ForgettingFD`).  Mutually
        exclusive with ``epsilon``: rank adaptation assumes a
        stationary error target, while forgetting deliberately tracks a
        moving one.
    seed:
        Seed for all internal randomness (sampling + probes).
    rotation_kernel:
        Rotation kernel for the underlying sketcher: ``"auto"``
        (default), ``"svd"``, or ``"gram"`` (see
        :func:`repro.linalg.svd.fd_rotate`).
    backend:
        Sketch backend behind the sampler: ``"fd"`` (default — the
        paper's FD family, including the ``epsilon``/``gamma``
        variants), any registered backend name (see
        :func:`repro.core.backend.backend_names`), or ``"auto"`` to
        probe the stream regime and pick the fastest backend meeting
        ``target_error`` (see :mod:`repro.core.selector`).
    target_error:
        Relative covariance-error target for ``backend="auto"``
        selection; ``None`` selects purely on accuracy.
    precision:
        Frame-math precision tier of the fused ingest sweep every
        :meth:`~repro.pipeline.monitor.MonitoringPipeline.consume` runs
        (see :mod:`repro.pipeline.ingest`).  ``"float64"`` (default)
        keeps every preprocessing pass in double precision and yields
        the rows of ``Preprocessor.apply_flat`` bit for bit;
        ``"float32"`` runs the per-frame passes in single precision
        (half the memory traffic) and upcasts once on the final write
        into the float64 rows, trading ~1e-7 relative per-pixel error —
        far below the FD bound ``||A||_F^2 / ell`` — for throughput.
        Sketch accumulation itself is always float64.
    """

    ell: int = 50
    beta: float = 1.0
    epsilon: float | None = None
    nu: int = 10
    max_ell: int | None = None
    relative_error: bool = True
    estimator: str = "gaussian"
    scale_sampled_rows: bool = True
    gamma: float = 1.0
    seed: int | None = None
    rotation_kernel: str = "auto"
    backend: str = "fd"
    target_error: float | None = None
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.precision not in ("float64", "float32"):
            raise ValueError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}"
            )
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.rotation_kernel not in ROTATION_KERNELS:
            raise ValueError(
                f"unknown rotation kernel {self.rotation_kernel!r}; "
                f"expected one of {ROTATION_KERNELS}"
            )
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.gamma < 1.0 and self.epsilon is not None:
            raise ValueError(
                "forgetting (gamma < 1) and rank adaptation (epsilon) are "
                "mutually exclusive; pick one"
            )
        if self.backend != "fd":
            if self.backend != "auto":
                from repro.core.backend import backend_names

                if self.backend not in backend_names():
                    raise ValueError(
                        f"unknown backend {self.backend!r}; expected 'auto' "
                        f"or one of {', '.join(backend_names())}"
                    )
            if self.epsilon is not None:
                raise ValueError(
                    "epsilon (rank adaptation) requires backend='fd'; "
                    "other backends have fixed sketch budgets"
                )
            if self.gamma < 1.0:
                raise ValueError(
                    "gamma (forgetting) requires backend='fd'; use "
                    "backend='forgetting' for the registered decay config"
                )
        if self.target_error is not None:
            if self.backend != "auto":
                raise ValueError(
                    "target_error only applies to backend='auto' selection"
                )
            if self.target_error <= 0:
                raise ValueError(
                    f"target_error must be positive, got {self.target_error}"
                )


class ARAMS:
    """Accelerated Rank-Adaptive Matrix Sketcher (paper Algorithm 3).

    Parameters
    ----------
    d:
        Feature dimension.
    config:
        Algorithm parameters; see :class:`ARAMSConfig`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import ARAMS, ARAMSConfig
    >>> rng = np.random.default_rng(0)
    >>> x = rng.standard_normal((500, 64))
    >>> sk = ARAMS(d=64, config=ARAMSConfig(ell=8, beta=0.8, epsilon=0.5, seed=0))
    >>> _ = sk.partial_fit(x)
    >>> sk.sketch.shape[1]
    64
    """

    def __init__(self, d: int, config: ARAMSConfig | None = None):
        self.config = config if config is not None else ARAMSConfig()
        self.d = int(d)
        cfg = self.config
        self._n_offered = 0
        #: :class:`repro.core.selector.SelectionResult` when
        #: ``backend="auto"`` chose the sketcher; ``None`` otherwise.
        self.selection = None
        rng = np.random.default_rng(cfg.seed)
        # Draw order is part of the on-disk contract: the fd path must
        # consume exactly the two draws it always has (bit-identical
        # sampling/probe streams vs. older versions); non-fd backends
        # take one extra draw *after* those.
        self._sample_rng = np.random.default_rng(rng.integers(2**63))
        probe_rng = np.random.default_rng(rng.integers(2**63))
        if cfg.backend != "fd":
            from repro.core.backend import create_backend

            name = cfg.backend
            if name == "auto":
                from repro.core.selector import select_backend

                self.selection = select_backend(
                    d=d,
                    ell=cfg.ell,
                    target_error=cfg.target_error,
                    seed=cfg.seed if cfg.seed is not None else 0,
                )
                name = self.selection.backend
            backend_seed = int(rng.integers(2**63))
            self._fd = create_backend(name, d=d, ell=cfg.ell, seed=backend_seed)
        elif cfg.epsilon is not None:
            self._fd: FrequentDirections = RankAdaptiveFD(
                d=d,
                ell=cfg.ell,
                epsilon=cfg.epsilon,
                nu=cfg.nu,
                max_ell=cfg.max_ell,
                rng=probe_rng,
                relative_error=cfg.relative_error,
                estimator=cfg.estimator,
                rotation_kernel=cfg.rotation_kernel,
            )
        elif cfg.gamma < 1.0:
            from repro.core.forgetting import ForgettingFD

            self._fd = ForgettingFD(
                d=d, ell=cfg.ell, gamma=cfg.gamma, rotation_kernel=cfg.rotation_kernel
            )
        else:
            self._fd = FrequentDirections(
                d=d, ell=cfg.ell, rotation_kernel=cfg.rotation_kernel
            )
        self._observer = None

    # ------------------------------------------------------------------
    @property
    def observer(self):
        """Health observer hook (duck-typed; see :mod:`repro.obs.health`).

        Setting it instruments both the ARAMS front end (sampler
        ``on_batch`` events) and the underlying FD sketcher (rotation /
        rank events) in one assignment.  ``None`` disables observation
        at the cost of one attribute test per batch.
        """
        return self._observer

    @observer.setter
    def observer(self, obs) -> None:
        self._observer = obs
        self._fd.observer = obs

    # ------------------------------------------------------------------
    @property
    def sketcher(self):
        """The underlying :class:`~repro.core.backend.SketchBackend`
        (FD family by default; whatever ``config.backend`` selected)."""
        return self._fd

    @property
    def ell(self) -> int:
        """Current sketch size (grows under rank adaptation)."""
        return self._fd.ell

    @property
    def n_seen(self) -> int:
        """Rows offered to ARAMS (before sampling)."""
        return self._n_offered

    def partial_fit(
        self, batch: np.ndarray, *, check_finite: bool = True
    ) -> "ARAMS":
        """Consume one batch: priority-sample it, then sketch the survivors.

        Parameters
        ----------
        batch:
            ``(k, d)`` rows.  With ``beta < 1`` only the
            ``ceil(beta * k)`` highest-priority rows reach the sketcher.
        check_finite:
            Pass ``False`` when the caller already certifies every row
            is finite (e.g. a frame guard with a zero non-finite
            budget); skips the sketcher's NaN/Inf scan.

        Returns
        -------
        self
        """
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if batch.shape[1] != self.d:
            raise ValueError(
                f"batch has dimension {batch.shape[1]}, expected {self.d}"
            )
        offered = batch.shape[0]
        self._n_offered += offered
        if self.config.beta < 1.0:
            batch = priority_sample(
                batch,
                self.config.beta,
                rng=self._sample_rng,
                scale_rows=self.config.scale_sampled_rows,
            )
        obs = self._observer
        if obs is not None:
            obs.on_batch(self, offered=offered, kept=batch.shape[0])
        if batch.shape[0]:
            if not check_finite and isinstance(self._fd, FrequentDirections):
                self._fd.partial_fit(batch, check_finite=False)
            else:
                self._fd.partial_fit(batch)
        return self

    def fit(self, x: np.ndarray) -> "ARAMS":
        """One-shot Algorithm 3: sample ``beta * n`` rows of ``x``, sketch them.

        Unlike :meth:`partial_fit` the priority queue here spans the
        whole matrix, exactly as in the paper's pseudocode.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.d:
            raise ValueError(f"x has dimension {x.shape[1]}, expected {self.d}")
        offered = x.shape[0]
        self._n_offered += offered
        if self.config.beta < 1.0:
            capacity = max(1, int(np.ceil(self.config.beta * x.shape[0])))
            pq = PrioritySampler(
                capacity,
                rng=self._sample_rng,
                scale_rows=self.config.scale_sampled_rows,
            )
            pq.extend(x)
            x = pq.sample()
        obs = self._observer
        if obs is not None:
            obs.on_batch(self, offered=offered, kept=x.shape[0])
        if isinstance(self._fd, RankAdaptiveFD):
            self._fd.expected_rows = self._fd.n_seen + x.shape[0]
        self._fd.partial_fit(x)
        if isinstance(self._fd, RankAdaptiveFD):
            self._fd.expected_rows = None
        return self

    # ------------------------------------------------------------------
    @property
    def sketch(self) -> np.ndarray:
        """The current ``ell x d`` sketch matrix."""
        return self._fd.sketch

    def compact_sketch(self) -> np.ndarray:
        """Sketch with zero rows removed (safe for merging)."""
        return self._fd.compact_sketch()

    def basis(self, k: int | None = None) -> np.ndarray:
        """Top-``k`` principal directions (``d x k``)."""
        return self._fd.basis(k)

    def project(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """Project rows of ``x`` into the sketch's latent space."""
        return self._fd.project(x, k)

    def merge(self, other: "ARAMS") -> "ARAMS":
        """Merge another ARAMS sketch into this one."""
        self._fd.merge(other._fd)
        self._n_offered += other._n_offered
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ARAMS(d={self.d}, ell={self.ell}, beta={self.config.beta}, "
            f"epsilon={self.config.epsilon}, offered={self._n_offered})"
        )
