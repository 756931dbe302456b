"""Unit tests for the virtual-clock simulated MPI layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.comm import DeadlockError, SimComm, SimCommWorld
from repro.parallel.cost_model import CommCostModel


class TestCostModel:
    def test_cost_formula(self):
        m = CommCostModel(alpha=1e-3, beta=1e-6)
        assert m.cost(1000) == pytest.approx(1e-3 + 1e-3)

    def test_free_model(self):
        assert CommCostModel.free().cost(10**9) == 0.0

    def test_negative_bytes(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CommCostModel().cost(-1)

    def test_payload_bytes_ndarray(self):
        assert CommCostModel.payload_bytes(np.zeros((4, 8))) == 4 * 8 * 8

    def test_payload_bytes_nested(self):
        payload = {"a": np.zeros(2), "b": [np.zeros(3), b"xy"]}
        got = CommCostModel.payload_bytes(payload)
        assert got >= 16 + 24 + 2  # arrays + bytes (+ key overhead)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CommCostModel(alpha=-1.0)


class TestPointToPoint:
    def test_roundtrip(self):
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1)
                return comm.recv(source=1)
            msg = comm.recv(source=0)
            comm.send(msg["x"] + 1, dest=0)
            return None

        results = world.run(program)
        assert results[0] == 2

    def test_clock_advances_by_message_cost(self):
        model = CommCostModel(alpha=1.0, beta=0.0)
        world = SimCommWorld(2, cost_model=model)

        def program(comm: SimComm):
            if comm.rank == 0:
                comm.advance(5.0)
                comm.send(b"x", dest=1)
            else:
                comm.recv(source=0)
            return comm.clock

        clocks = world.run(program)
        # Receiver: max(0, 5 + alpha) = 6.
        assert clocks[1] == pytest.approx(6.0)

    def test_tags_are_independent_channels(self):
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 0:
                comm.send("a", dest=1, tag=1)
                comm.send("b", dest=1, tag=2)
            else:
                second = comm.recv(source=0, tag=2)
                first = comm.recv(source=0, tag=1)
                return (first, second)
            return None

        assert world.run(program)[1] == ("a", "b")

    def test_send_to_self_rejected(self):
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 0:
                comm.send("x", dest=0)
            return None

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            world.run(program)

    def test_deadlock_detected(self):
        world = SimCommWorld(2, timeout=0.3)

        def program(comm: SimComm):
            if comm.rank == 0:
                return comm.recv(source=1)  # never sent
            return None

        with pytest.raises(RuntimeError):
            world.run(program)

    def test_comm_in_timed_region_rejected(self):
        world = SimCommWorld(2, timeout=1.0)

        def program(comm: SimComm):
            if comm.rank == 0:
                with comm.timed():
                    comm.send("x", dest=1)
            else:
                # Rank 1 must not block forever on a send that errors.
                pass
            return None

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            world.run(program)


class TestTiming:
    def test_timed_accumulates(self):
        world = SimCommWorld(1)

        def program(comm: SimComm):
            with comm.timed():
                sum(range(100_000))
            return comm.clock

        assert world.run(program)[0] > 0.0

    def test_advance_validates(self):
        world = SimCommWorld(1)

        def program(comm: SimComm):
            comm.advance(-1.0)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            world.run(program)

    def test_makespan_property(self):
        world = SimCommWorld(2, cost_model=CommCostModel.free())

        def program(comm: SimComm):
            comm.advance(1.0 if comm.rank == 0 else 3.0)

        world.run(program)
        assert world.makespan == pytest.approx(3.0)

    def test_makespan_before_run_raises(self):
        with pytest.raises(RuntimeError, match="no run"):
            _ = SimCommWorld(2).makespan

    def test_total_bytes_counted(self):
        world = SimCommWorld(2)

        def program(comm: SimComm):
            if comm.rank == 0:
                comm.send(np.zeros(10), dest=1)
            else:
                comm.recv(source=0)

        world.run(program)
        assert world.total_bytes == 80

    def test_size_validation(self):
        with pytest.raises(ValueError, match="size"):
            SimCommWorld(0)
