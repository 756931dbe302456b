"""Synthetic data substrates replacing the paper's private LCLS datasets.

- :mod:`repro.data.synthetic` — random matrices with prescribed
  singular-value decay (paper Section V.1), including the per-core
  perturbed variant for the multi-core experiments.
- :mod:`repro.data.beam` — parametric X-ray beam-profile image generator
  (SASE shot-to-shot jitter, center-of-mass offsets, elongation,
  multi-lobe and exotic modes) standing in for the xppc00121 Alvium
  camera data behind paper Fig. 5.
- :mod:`repro.data.diffraction` — diffraction-ring image generator with
  per-quadrant intensity classes standing in for the xpplx9221
  large-area-detector data behind paper Fig. 6.
- :mod:`repro.data.stream` — a psana-like shot event stream (timestamps,
  batching, source-contract validation) used by the throughput
  benchmarks, plus seeded detector-corruption injection
  (:class:`CorruptionPlan`, :class:`CorruptedEventStream`) for the
  data-plane hardening tests (see ``docs/data_robustness.md``).

:func:`scenario_generator` names the two image scenarios the CLI and
campaign tasks stream: ``"beam"`` and ``"diffraction"``.
"""

from repro.data.synthetic import (
    DECAY_PROFILES,
    decay_singular_values,
    synthetic_dataset,
    sharded_synthetic_dataset,
)
from repro.data.beam import BeamProfileConfig, BeamProfileGenerator
from repro.data.diffraction import DiffractionConfig, DiffractionGenerator
from repro.data.stream import (
    ShotEvent,
    EventStream,
    ArraySource,
    StreamContractError,
    CorruptionRule,
    CorruptionPlan,
    StreamCorruptor,
    CorruptedEventStream,
)
from repro.data.xpcs import (
    XPCSConfig,
    XPCSGenerator,
    speckle_contrast,
    g2_correlation,
    g2_multitau,
)

__all__ = [
    "scenario_generator",
    "DECAY_PROFILES",
    "decay_singular_values",
    "synthetic_dataset",
    "sharded_synthetic_dataset",
    "BeamProfileConfig",
    "BeamProfileGenerator",
    "DiffractionConfig",
    "DiffractionGenerator",
    "ShotEvent",
    "EventStream",
    "ArraySource",
    "StreamContractError",
    "CorruptionRule",
    "CorruptionPlan",
    "StreamCorruptor",
    "CorruptedEventStream",
    "XPCSConfig",
    "XPCSGenerator",
    "speckle_contrast",
    "g2_correlation",
    "g2_multitau",
]


def scenario_generator(scenario: str, size: int, seed: int):
    """The seeded generator of ``size`` x ``size`` frames of a scenario,
    ``"beam"`` or ``"diffraction"``, at its default configuration."""
    shape = (size, size)
    if scenario == "beam":
        return BeamProfileGenerator(BeamProfileConfig(shape=shape), seed=seed)
    if scenario == "diffraction":
        return DiffractionGenerator(DiffractionConfig(shape=shape), seed=seed)
    raise ValueError(f"unknown scenario {scenario!r}")
