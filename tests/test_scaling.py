"""Unit tests for the strong-scaling study harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import synthetic_dataset
from repro.parallel.cost_model import CommCostModel
from repro.parallel.scaling import strong_scaling_study


@pytest.fixture(scope="module")
def data():
    return synthetic_dataset(n=512, d=150, rank=80, profile="cubic", rate=0.05, seed=1)


class TestHarness:
    def test_record_fields(self, data):
        recs = strong_scaling_study(data, [1, 2], ell=16, strategies=("tree",))
        assert len(recs) == 2
        r = recs[0]
        assert r.strategy == "tree" and r.cores == 1
        assert r.speedup == pytest.approx(1.0)
        assert r.efficiency == pytest.approx(1.0)

    def test_both_strategies_recorded_in_order(self, data):
        recs = strong_scaling_study(data, [1, 4], ell=16)
        assert [(r.strategy, r.cores) for r in recs] == [
            ("tree", 1), ("tree", 4), ("serial", 1), ("serial", 4),
        ]

    def test_errors_bounded_at_all_scales(self, data):
        recs = strong_scaling_study(data, [1, 2, 4, 8], ell=20)
        for r in recs:
            assert r.error <= 2.0 / 20

    def test_tree_and_serial_errors_track(self, data):
        recs = strong_scaling_study(data, [8], ell=20)
        tree_err = next(r.error for r in recs if r.strategy == "tree")
        serial_err = next(r.error for r in recs if r.strategy == "serial")
        assert abs(tree_err - serial_err) <= 0.5 * max(tree_err, serial_err) + 1e-9

    def test_tree_critical_path_shorter_at_scale(self, data):
        recs = strong_scaling_study(data, [16], ell=16)
        tree = next(r for r in recs if r.strategy == "tree")
        serial = next(r for r in recs if r.strategy == "serial")
        assert tree.merge_rotations_critical_path < serial.merge_rotations_critical_path

    def test_too_many_cores_rejected(self, data):
        with pytest.raises(ValueError, match="cores"):
            strong_scaling_study(data, [1000], ell=8)

    def test_bad_core_count(self, data):
        with pytest.raises(ValueError, match="core count"):
            strong_scaling_study(data, [0], ell=8)

    def test_free_network_isolates_compute(self, data):
        """With zero comm cost the gap is purely the merge critical path."""
        runs = [
            strong_scaling_study(data, [8], ell=16, cost_model=CommCostModel.free())
            for _ in range(5)
        ]
        tree = next(r for r in runs[0] if r.strategy == "tree")
        serial = next(r for r in runs[0] if r.strategy == "serial")
        # Serial merge does 7 sequential SVDs vs tree's 3.  Assert the
        # deterministic critical-path gap plus a loose timing sanity
        # check; one sub-millisecond sample is too noisy for the latter,
        # so it compares each strategy's median over the repeated runs.
        assert serial.merge_rotations_critical_path == 7
        assert tree.merge_rotations_critical_path == 3

        def median_merge_time(strategy):
            times = [r.merge_time for rs in runs for r in rs if r.strategy == strategy]
            return float(np.median(times))

        assert median_merge_time("serial") > median_merge_time("tree") * 0.5
