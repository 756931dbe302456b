"""Streaming Frequent Directions with the FastFD double buffer.

Frequent Directions (Liberty 2013; Ghashami, Liberty, Phillips & Woodruff
2016) maintains an ``l x d`` sketch ``B`` of a row stream ``A`` such that

    ``0 <= x^T (A^T A - B^T B) x <= ||A||_F^2 / l``  for all unit ``x``,

i.e. the sketch Gram matrix underestimates the data Gram matrix by at
most ``||A||_F^2 / l`` in spectral norm.  The FastFD variant amortizes
the SVD cost by buffering ``2l`` rows and shrinking the bottom ``l``
directions to zero once the buffer fills, so a rotation (one thin SVD of
a ``2l x d`` matrix) happens only once every ``l`` rows.

The implementation is streaming-first: rows arrive through
:meth:`FrequentDirections.partial_fit` in arbitrary batch sizes; batch
insertion is vectorized (one slice assignment per buffer fill, no
per-row Python loop).  Sketches of disjoint streams are *mergeable
summaries* and can be combined with :meth:`FrequentDirections.merge`
while preserving the error bound (Ghashami et al. 2016, Section 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import (
    BackendCapabilities,
    SketchBackend,
    register_backend,
    state_array,
    state_scalar,
)
from repro.linalg.svd import (
    ROTATION_KERNELS,
    RotationWorkspace,
    fd_rotate,
    select_rotation_kernel,
    thin_svd,
)

__all__ = ["FrequentDirections"]


class FrequentDirections(SketchBackend):
    """FastFD sketcher over a stream of ``d``-dimensional rows.

    Parameters
    ----------
    d:
        Feature dimension of incoming rows.
    ell:
        Sketch size (number of sketch rows retained).  Memory is
        ``2 * ell * d`` floats.
    rotation_kernel:
        Rotation kernel: ``"auto"`` (default; Gram fast path for
        short-and-wide buffers, thin SVD otherwise), ``"svd"``, or
        ``"gram"``.  See :func:`repro.linalg.svd.fd_rotate`.

    Attributes
    ----------
    d : int
        Feature dimension.
    ell : int
        Current sketch size (constant for this class; the rank-adaptive
        subclass grows it).
    n_seen : int
        Total number of rows consumed.
    n_rotations : int
        Number of shrinkage rotations performed on the live buffer — the
        dominant cost, exposed for the scaling studies.  Diagnostic
        reads never inflate it (see ``n_forced_rotations``).
    n_forced_rotations : int
        Finalization rotations triggered by reading :attr:`sketch` while
        raw rows were pending.  These run on a cached copy, leave the
        live buffer (and therefore the rotation schedule, shrinkage
        totals and observer events) untouched, and are counted here so
        cost accounting can separate real work from diagnostics.
    last_kernel : str or None
        Kernel used by the most recent live rotation (``"svd"``,
        ``"gram"``, or ``"gram_fallback"``).
    squared_frobenius : float
        Running ``||A||_F^2`` of the consumed stream, used for
        normalized error reporting.
    observer : object or None
        Optional health observer (duck-typed; see
        :class:`repro.obs.health.SketchHealth`).  When set, the sketcher
        calls ``observer.on_rotation(self, delta)`` after every shrink
        SVD, where ``delta`` is that rotation's shrinkage mass
        ``s_ell^2`` — the quantity Liberty's FD analysis bounds by
        ``||A||_F^2 / ell`` in total.  The hook is a plain attribute so
        this module stays free of observability imports; ``None`` (the
        default) costs one attribute test per rotation.

    Examples
    --------
    >>> import numpy as np
    >>> fd = FrequentDirections(d=8, ell=4)
    >>> _ = fd.partial_fit(np.random.default_rng(0).standard_normal((100, 8)))
    >>> fd.sketch.shape
    (4, 8)
    """

    #: Subclasses that need the right-singular basis from every rotation
    #: (rank adaptation) flip this so ``fd_rotate`` materializes it.
    _needs_rotation_basis = False

    capabilities = BackendCapabilities(
        mergeable=True,
        merge_exact=False,
        batch_invariance="exact",
        error_bound="fd",
    )

    def __init__(self, d: int, ell: int, rotation_kernel: str = "auto"):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        if ell > d:
            raise ValueError(
                f"sketch size ell={ell} larger than dimension d={d} is wasteful; "
                "store the exact Gram matrix instead"
            )
        if rotation_kernel not in ROTATION_KERNELS:
            raise ValueError(
                f"unknown rotation kernel {rotation_kernel!r}; "
                f"expected one of {ROTATION_KERNELS}"
            )
        self.d = int(d)
        self.ell = int(ell)
        self.rotation_kernel = str(rotation_kernel)
        self._buffer = np.zeros((2 * self.ell, self.d), dtype=np.float64)
        # Index of the first zero (writable) row in the buffer.
        self._next_zero = 0
        # Rows [0, _sketch_rows) hold shrunk sketch rows from the last
        # rotation; rows [_sketch_rows, _next_zero) are raw data rows.
        self._sketch_rows = 0
        self.n_seen = 0
        self.n_rotations = 0
        self.n_forced_rotations = 0
        self.last_kernel = None
        self.squared_frobenius = 0.0
        self.observer = None
        # Shrinkage mass removed by the latest / all rotations (the
        # paper's delta_t); tracked even without an observer since it
        # is O(1) and feeds error diagnostics.
        self.last_shrinkage = 0.0
        self.total_shrinkage = 0.0
        # Gram-kernel scratch, allocated on the first rotation that
        # wants it (zero d-scale allocations steady-state afterwards).
        self._workspace = None
        # Finalized sketch with pending rows folded in, filled by the
        # sketch property and invalidated on the next mutation.
        self._final_cache = None

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def partial_fit(
        self, rows: np.ndarray, check_finite: bool = True
    ) -> "FrequentDirections":
        """Consume a batch of rows, rotating whenever the buffer fills.

        Parameters
        ----------
        rows:
            ``(k, d)`` array (a single ``(d,)`` row is also accepted).
        check_finite:
            Validate that the batch is NaN/Inf-free before consuming it
            (one full read pass).  Callers that already hold a
            finiteness certificate — the fused ingest engine gets one
            from the frame guard — pass ``False`` to skip the pass.

        Returns
        -------
        self
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if rows.shape[1] != self.d:
            raise ValueError(
                f"rows have dimension {rows.shape[1]}, sketcher expects {self.d}"
            )
        if check_finite and not np.all(np.isfinite(rows)):
            # A single NaN would silently destroy the whole sketch at
            # the next SVD; fail loudly at the boundary instead.
            raise ValueError(
                "rows contain NaN/Inf; repair detector frames first "
                "(see repro.pipeline.preprocess.repair_dead_pixels)"
            )
        self._final_cache = None
        i = 0
        k = rows.shape[0]
        while i < k:
            cap = self._buffer.shape[0]
            space = cap - self._next_zero
            if space == 0:
                self._on_buffer_full()
                continue
            take = min(space, k - i)
            chunk = rows[i : i + take]
            self._buffer[self._next_zero : self._next_zero + take] = chunk
            # ||A||_F^2 accumulates per insertion slice, not once per
            # batch; the golden fixtures depend on this summation order.
            self.squared_frobenius += float(np.sum(chunk * chunk))
            self._next_zero += take
            self.n_seen += take
            i += take
        # A buffer left exactly full is handled lazily: the next insert
        # (or a sketch access) triggers the rotation, matching the
        # paper's Algorithm 2, which checks fullness before each insert.
        return self

    def fit(self, a: np.ndarray) -> "FrequentDirections":
        """Sketch an entire matrix in one call (convenience wrapper)."""
        return self.partial_fit(a)

    # ------------------------------------------------------------------
    # Rotation
    # ------------------------------------------------------------------
    def _on_buffer_full(self) -> None:
        """Hook called when the buffer is full; base class just rotates."""
        self._rotate()

    def _rotation_workspace(self, m: int) -> "RotationWorkspace | None":
        """Scratch for an ``m``-row rotation, or ``None`` when the SVD
        kernel will run anyway (so pure-SVD sketchers never allocate it)."""
        kernel = self.rotation_kernel
        if kernel == "auto":
            kernel = select_rotation_kernel(m, self.d)
        if kernel != "gram":
            return None
        ws = self._workspace
        if ws is None or not ws.fits(m, self.d):
            ws = RotationWorkspace(max(m, 2 * self.ell), self.d)
            self._workspace = ws
        return ws

    def _rotate(self) -> None:
        """Shrink the buffer back to ``ell`` rows with one rotation kernel."""
        if self._next_zero == 0:
            return
        m = self._next_zero
        res = fd_rotate(
            self._buffer[:m],
            self.ell,
            kernel=self.rotation_kernel,
            workspace=self._rotation_workspace(m),
            out=self._buffer[: self.ell],
            need_basis=self._needs_rotation_basis,
        )
        self._buffer[self.ell :] = 0.0
        self._next_zero = self.ell
        self._sketch_rows = self.ell
        self.n_rotations += 1
        self.last_kernel = res.kernel
        self._final_cache = None
        self._record_shrinkage(res.s)
        self._post_rotate(res.s, res.vt_top)
        obs = self.observer
        if obs is not None:
            obs.on_rotation(self, self.last_shrinkage)

    def _record_shrinkage(self, s: np.ndarray) -> None:
        """Track the shrinkage mass ``delta = s_ell^2`` of one rotation."""
        delta = float(s[self.ell - 1] ** 2) if s.shape[0] >= self.ell else 0.0
        self.last_shrinkage = delta
        self.total_shrinkage += delta

    def _post_rotate(self, s: np.ndarray, vt: np.ndarray | None) -> None:
        """Hook for subclasses (rank adaptation); no-op here.

        ``vt`` is the top ``min(m, ell)`` right-singular rows of the
        rotated buffer when :attr:`_needs_rotation_basis` is set, else
        ``None``.
        """

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _pending_matrix(self) -> np.ndarray:
        """The filled buffer as a finalization kernel would consume it.

        Subclasses that transform the buffer before rotating (e.g. decay)
        override this to return a transformed *copy*; the base class
        returns a read-only view.
        """
        return self._buffer[: self._next_zero]

    def _finalize_pending(self) -> np.ndarray:
        """``ell x d`` sketch with pending raw rows folded in, cached.

        Runs the rotation on a *copy* so the live buffer — and with it
        the rotation schedule, ``n_rotations``, shrinkage totals and
        observer events — is untouched.  The result is cached until the
        next mutation; each cache fill counts one forced finalization
        rotation in :attr:`n_forced_rotations`.
        """
        cached = self._final_cache
        if cached is not None:
            return cached
        pending = self._pending_matrix()
        res = fd_rotate(
            pending,
            self.ell,
            kernel=self.rotation_kernel,
            workspace=self._rotation_workspace(pending.shape[0]),
        )
        self.n_forced_rotations += 1
        self._final_cache = res.sketch
        return res.sketch

    @property
    def sketch(self) -> np.ndarray:
        """The ``ell x d`` sketch ``B`` with any pending rows folded in.

        Pending raw rows are finalized into a cached copy (one forced
        rotation, counted in :attr:`n_forced_rotations` and invalidated
        by the next :meth:`partial_fit`); the live buffer, the rotation
        schedule and :attr:`n_rotations` are never perturbed by reading
        this property.  The returned array is a copy; mutating it does
        not affect the sketcher.
        """
        return self._sketch_view().copy()

    def _sketch_view(self) -> np.ndarray:
        """The :attr:`sketch` value, uncopied: a buffer view or the cache."""
        if self._next_zero <= self.ell and self._sketch_rows >= self._next_zero:
            return self._buffer[: self.ell]
        return self._finalize_pending()

    def compact_sketch(self) -> np.ndarray:
        """Sketch with exact zero rows removed.

        The paper (Section IV-A.3) stresses that zero rows must not be
        carried into a merge, as they silently waste sketch capacity.
        """
        b = self._sketch_view()
        # Boolean indexing returns a fresh array; no defensive copy first.
        return b[np.any(b != 0.0, axis=1)]

    def peek_sketch(self) -> np.ndarray:
        """Current sketch including pending rows, WITHOUT mutating the buffer.

        Like :attr:`sketch`, pending raw rows are folded into a cached
        *copy* and the live rotation schedule is never perturbed; kept
        as a separate method for callers that want to be explicit about
        snapshot semantics.
        """
        return self._peek_view().copy()

    def _peek_view(self) -> np.ndarray:
        """Uncopied :meth:`peek_sketch`: zeros, a buffer view or the cache."""
        if self._next_zero == 0:
            return np.zeros((self.ell, self.d), dtype=np.float64)
        if self._next_zero == self._sketch_rows <= self.ell:
            return self._buffer[: self.ell]
        return self._finalize_pending()

    def peek_compact_sketch(self) -> np.ndarray:
        """Non-mutating :meth:`compact_sketch` (see :meth:`peek_sketch`)."""
        b = self._peek_view()
        return b[np.any(b != 0.0, axis=1)]

    # ------------------------------------------------------------------
    # SketchBackend protocol: compaction + state round-trip
    # ------------------------------------------------------------------
    def rotate(self) -> None:
        """Fold pending raw rows into the live sketch now.

        The value of :attr:`sketch` is unchanged — the same rotation
        kernel runs on the same pending matrix — but the buffer is left
        compacted, which makes the next checkpoint smaller and the next
        merge cheaper.  Unlike :attr:`sketch` reads this is a *live*
        rotation: it advances ``n_rotations`` and fires the observer.
        """
        if self._next_zero > self._sketch_rows or self._next_zero > self.ell:
            self._rotate()

    def state_dict(self) -> dict:
        """Complete state; see :meth:`SketchBackend.state_dict`."""
        return {
            "d": self.d,
            "ell": self.ell,
            "rotation_kernel": self.rotation_kernel,
            "buffer": self._buffer.copy(),
            "next_zero": self._next_zero,
            "sketch_rows": self._sketch_rows,
            "n_seen": self.n_seen,
            "n_rotations": self.n_rotations,
            "n_forced_rotations": self.n_forced_rotations,
            "squared_frobenius": self.squared_frobenius,
            "last_shrinkage": self.last_shrinkage,
            "total_shrinkage": self.total_shrinkage,
        }

    def load_state(self, state: dict) -> None:
        if state_scalar(state["d"], int) != self.d:
            raise ValueError(
                f"state has d={state_scalar(state['d'], int)}, sketcher has {self.d}"
            )
        self.ell = state_scalar(state["ell"], int)
        self._buffer = state_array(state["buffer"])
        self._next_zero = state_scalar(state["next_zero"], int)
        self._sketch_rows = state_scalar(state["sketch_rows"], int)
        self.n_seen = state_scalar(state["n_seen"], int)
        self.n_rotations = state_scalar(state["n_rotations"], int)
        self.n_forced_rotations = state_scalar(state["n_forced_rotations"], int)
        self.squared_frobenius = state_scalar(state["squared_frobenius"], float)
        self.last_shrinkage = state_scalar(state["last_shrinkage"], float)
        self.total_shrinkage = state_scalar(state["total_shrinkage"], float)
        self._workspace = None
        self._final_cache = None

    @classmethod
    def _ctor_args(cls, state: dict) -> dict:
        return {
            "d": state_scalar(state["d"], int),
            "ell": state_scalar(state["ell"], int),
            "rotation_kernel": state_scalar(state["rotation_kernel"], str),
        }

    def basis(self, k: int | None = None) -> np.ndarray:
        """Top-``k`` orthonormal row-space basis of the sketch.

        Returns
        -------
        numpy.ndarray
            ``d x k`` matrix ``V_k`` with orthonormal columns — the
            principal directions used for latent-space projection.
        """
        b = self.compact_sketch()
        if b.shape[0] == 0:
            raise RuntimeError("sketch is empty; no data has been consumed")
        _, s, vt = thin_svd(b)
        nonzero = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
        if nonzero == 0:
            raise RuntimeError("sketch has no nonzero directions")
        if k is None:
            k = nonzero
        k = min(k, nonzero)
        return vt[:k].T

    def project(self, x: np.ndarray, k: int | None = None) -> np.ndarray:
        """Project rows of ``x`` onto the top-``k`` sketch directions.

        This is the PCA-from-sketch step of the monitoring pipeline:
        ``x @ V_k`` maps each image to ``k`` latent coordinates.
        """
        v = self.basis(k)
        return np.asarray(x, dtype=np.float64) @ v

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, other: "FrequentDirections") -> "FrequentDirections":
        """Merge another sketch into this one (mergeable-summary property).

        Stacks both ``ell x d`` sketches and shrinks back to this
        sketcher's ``ell``.  The combined sketch preserves the FD
        space/error trade-off with respect to the concatenated data
        (Ghashami et al. 2016).

        Parameters
        ----------
        other:
            Sketcher over the same feature dimension.  It is not
            modified.

        Returns
        -------
        self
        """
        if other.d != self.d:
            raise ValueError(
                f"cannot merge sketches of dimension {other.d} into {self.d}"
            )
        mine = self.compact_sketch()
        theirs = other.compact_sketch()
        stacked = np.vstack([mine, theirs]) if mine.size or theirs.size else mine
        res = fd_rotate(
            stacked,
            self.ell,
            kernel=self.rotation_kernel,
            workspace=self._rotation_workspace(stacked.shape[0]),
            out=self._buffer[: self.ell],
        )
        self._buffer[self.ell :] = 0.0
        self._next_zero = self.ell
        self._sketch_rows = self.ell
        self.n_rotations += 1
        self.n_seen += other.n_seen
        self.squared_frobenius += other.squared_frobenius
        self.last_kernel = res.kernel
        self._final_cache = None
        self._record_shrinkage(res.s)
        obs = self.observer
        if obs is not None:
            obs.on_rotation(self, self.last_shrinkage)
        return self

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(d={self.d}, ell={self.ell}, "
            f"n_seen={self.n_seen}, rotations={self.n_rotations})"
        )


register_backend(
    "fd",
    FrequentDirections,
    factory=lambda d, ell, seed=None: FrequentDirections(d=d, ell=ell),
    summary="FastFD Frequent Directions: deterministic ||A||_F^2/ell "
            "covariance bound, shrink-style merge",
    tags=("paper", "deterministic"),
)
