"""Property-based tests for the fault-tolerant sharded merge and the
forgetting sketch."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.forgetting import ForgettingFD

COMMON = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStreamingProperties:
    @COMMON
    @given(st.integers(0, 2**31 - 1), st.integers(1, 25))
    def test_forgetting_chunking_invariance(self, seed, chunk):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((120, 12))
        whole = ForgettingFD(12, 4, gamma=0.8).fit(x)
        parts = ForgettingFD(12, 4, gamma=0.8)
        for i in range(0, 120, chunk):
            parts.partial_fit(x[i : i + chunk])
        np.testing.assert_allclose(
            whole.sketch, parts.sketch,
            atol=1e-8 * max(1.0, np.abs(whole.sketch).max()),
        )

    @COMMON
    @given(st.integers(0, 2**31 - 1), st.floats(0.3, 1.0))
    def test_forgetting_energy_never_exceeds_stream(self, seed, gamma):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((90, 10))
        fd = ForgettingFD(10, 3, gamma=gamma).fit(x)
        assert np.sum(fd.sketch**2) <= np.sum(x * x) * (1 + 1e-9)


class TestFaultToleranceProperties:
    """Chaos as a property: any minority-kill plan degrades gracefully.

    For every seeded fault plan that kills fewer than half the ranks,
    the fault-tolerant merge must complete, and the merged sketch must
    satisfy the FD covariance-error bound computed against the rows of
    the *surviving* (contributing) ranks.  And chaos is deterministic:
    the same plan yields bit-identical sketches and virtual makespans.
    """

    FAULT_SETTINGS = settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )

    @staticmethod
    def _run(plan, shards, ell):
        from repro.parallel.cost_model import ComputeCostModel
        from repro.parallel.runner import DistributedSketchRunner

        runner = DistributedSketchRunner(
            ell=ell, strategy="tree",
            fault_plan=plan, compute_model=ComputeCostModel(),
        )
        return runner.run(shards)

    @FAULT_SETTINGS
    @given(
        st.integers(0, 2**31 - 1),
        st.sets(st.integers(1, 7), min_size=1, max_size=3),
        st.integers(0, 4),
    )
    def test_minority_kill_keeps_surviving_rows_bound(self, seed, victims, rotation):
        from repro.core.errors import relative_covariance_error
        from repro.data.synthetic import sharded_synthetic_dataset
        from repro.parallel.faults import FaultPlan

        size, ell = 8, 16
        assert len(victims) < size / 2
        shards = sharded_synthetic_dataset(
            n_shards=size, rows_per_shard=80, d=40, rank=26,
            profile="cubic", rate=0.05, seed=seed,
        )
        plan = FaultPlan(seed=seed)
        for v in sorted(victims):
            plan = plan.kill(v, rotation=rotation)
        result = self._run(plan, shards, ell)
        report = result.degradation
        assert set(report.ranks_lost) == victims
        assert set(report.contributing_ranks) == set(range(size)) - victims
        surviving = np.vstack([shards[i] for i in report.contributing_ranks])
        assert relative_covariance_error(surviving, result.sketch) <= 2.0 / ell

    @FAULT_SETTINGS
    @given(
        st.integers(0, 2**31 - 1),
        st.sets(st.integers(1, 7), min_size=1, max_size=3),
    )
    def test_identical_plans_give_bit_identical_runs(self, seed, victims):
        from repro.data.synthetic import sharded_synthetic_dataset
        from repro.parallel.faults import FaultPlan

        shards = sharded_synthetic_dataset(
            n_shards=8, rows_per_shard=80, d=40, rank=26,
            profile="cubic", rate=0.05, seed=seed,
        )
        plan = FaultPlan(seed=seed).drop(dest=0, prob=0.3).delay(
            0.01, prob=0.3
        )
        for v in sorted(victims):
            plan = plan.kill(v, rotation=1)
        a = self._run(plan, shards, 16)
        b = self._run(plan, shards, 16)
        assert a.sketch.tobytes() == b.sketch.tobytes()
        assert a.makespan == b.makespan
        assert a.degradation.to_json() == b.degradation.to_json()
