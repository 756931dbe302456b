"""Sketching core: the paper's primary contribution.

- :mod:`repro.core.backend` — the :class:`SketchBackend` protocol and
  registry every sketcher implements (capabilities, persistence,
  merge contracts; see ``docs/backends.md``).
- :mod:`repro.core.frequent_directions` — streaming Frequent Directions
  (Liberty 2013; Ghashami et al. 2016) with the FastFD ``2l x d`` buffer.
- :mod:`repro.core.rank_adaptive` — the rank-adaptation heuristic
  (paper Algorithm 1) and Rank-Adaptive Frequent Directions
  (paper Algorithm 2).
- :mod:`repro.core.priority_sampling` — streaming priority sampling
  (Duffield, Lund & Thorup 2007) over row norms.
- :mod:`repro.core.arams` — Accelerated Rank-Adaptive Matrix Sketching
  (paper Algorithm 3): priority sampling chained into rank-adaptive FD.
- :mod:`repro.core.ipca` / :mod:`repro.core.randomized` — the
  incremental-PCA and randomized range-finder backends FD is compared
  against under the same contract.
- :mod:`repro.core.selector` — deterministic ``--backend auto``
  selection for an observed (d, rank, drift) regime.
- :mod:`repro.core.merge` — mergeable-summary operations: pairwise,
  serial and tree merges with rotation accounting.
- :mod:`repro.core.errors` — exact sketch quality metrics (covariance
  error, projection error) used across tests and benchmarks.
"""

from repro.core.backend import (
    BackendCapabilities,
    BackendInfo,
    SketchBackend,
    backend_names,
    create_backend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.core.frequent_directions import FrequentDirections
from repro.core.rank_adaptive import RankAdaptiveFD, rank_adapt_heuristic
from repro.core.priority_sampling import PrioritySampler, priority_sample
from repro.core.arams import ARAMS, ARAMSConfig
from repro.core.merge import merge_pair, serial_merge, tree_merge, MergeStats
from repro.core.forgetting import ForgettingFD
from repro.core.persistence import load_sketcher, save_sketcher
from repro.core.baselines import (
    HashingSketcher,
    LeverageSamplingSketcher,
    RandomProjectionSketcher,
    RowSamplingSketcher,
)
from repro.core.ipca import IncrementalPCASketcher
from repro.core.randomized import RandomizedRangeFinderSketcher
from repro.core.selector import (
    AUTO_CANDIDATES,
    CandidateReport,
    SelectionResult,
    probe_stream,
    select_backend,
)
from repro.core.errors import (
    covariance_error,
    projection_error,
    relative_covariance_error,
    sketch_rank,
)

__all__ = [
    "SketchBackend",
    "BackendCapabilities",
    "BackendInfo",
    "backend_names",
    "create_backend",
    "get_backend",
    "list_backends",
    "register_backend",
    "FrequentDirections",
    "RankAdaptiveFD",
    "rank_adapt_heuristic",
    "PrioritySampler",
    "priority_sample",
    "ARAMS",
    "ARAMSConfig",
    "merge_pair",
    "serial_merge",
    "tree_merge",
    "MergeStats",
    "ForgettingFD",
    "save_sketcher",
    "load_sketcher",
    "RandomProjectionSketcher",
    "HashingSketcher",
    "RowSamplingSketcher",
    "LeverageSamplingSketcher",
    "IncrementalPCASketcher",
    "RandomizedRangeFinderSketcher",
    "AUTO_CANDIDATES",
    "CandidateReport",
    "SelectionResult",
    "probe_stream",
    "select_backend",
    "covariance_error",
    "projection_error",
    "relative_covariance_error",
    "sketch_rank",
]
