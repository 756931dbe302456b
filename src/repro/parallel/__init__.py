"""Simulated-MPI parallel substrate and scaling-study harness.

The paper runs its strong-scaling experiments (Figs. 2-3) with MPI on up
to 128 cores of the SLAC S3DF cluster.  This reproduction runs on a
single core, so the substrate is a *virtual-clock* MPI simulation:

- every simulated rank executes its real numerical work (the actual FD
  sketching and merge SVDs) and accumulates the measured wall time on
  its own virtual clock;
- point-to-point messages advance the receiver's clock to
  ``max(receiver, sender_at_send + alpha + beta * nbytes)`` per a
  configurable latency/bandwidth model;
- the reported "runtime" of a parallel run is the makespan — the
  maximum virtual clock across ranks — exactly the quantity an MPI
  run's wall clock measures.

The merge *numerics* are identical to a real MPI run (the same
matrices flow through the same SVDs in the same order), so the Fig. 3
error comparison is exact, and the Fig. 2 runtime comparison reproduces
the tree-vs-serial critical-path asymmetry the paper demonstrates.

- :mod:`repro.parallel.cost_model` — the alpha-beta communication model.
- :mod:`repro.parallel.comm` — :class:`SimCommWorld` / :class:`SimComm`,
  a threaded message-passing interface with virtual clocks.
- :mod:`repro.parallel.runner` — shard → local sketch → merge driver
  for both merge topologies.
- :mod:`repro.parallel.scaling` — the strong-scaling study harness.
- :mod:`repro.parallel.faults` — deterministic chaos: seeded fault
  plans, the runtime injector and the degradation report.
"""

from repro.parallel.cost_model import CommCostModel, ComputeCostModel
from repro.parallel.comm import (
    DeadlockError,
    RankFailedError,
    SendReceipt,
    SimComm,
    SimCommWorld,
)
from repro.parallel.faults import (
    DegradationReport,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RankKilledError,
    payload_checksum,
)
from repro.parallel.runner import DistributedSketchRunner, ParallelRunResult
from repro.parallel.scaling import ScalingRecord, strong_scaling_study

__all__ = [
    "CommCostModel",
    "ComputeCostModel",
    "SimComm",
    "SimCommWorld",
    "SendReceipt",
    "DeadlockError",
    "RankFailedError",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "DegradationReport",
    "RankKilledError",
    "payload_checksum",
    "DistributedSketchRunner",
    "ParallelRunResult",
    "ScalingRecord",
    "strong_scaling_study",
]
