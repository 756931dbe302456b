"""Virtual-clock simulated MPI: SPMD programs on one physical core.

:class:`SimCommWorld` runs an SPMD ``program(comm)`` once per simulated
rank, each in its own thread, connected by blocking message queues — the
mpi4py point-to-point subset the sketching system needs (``send``/
``recv``), with lowercase pickle-style semantics (arbitrary Python
payloads, ndarrays passed by reference).

Time is *virtual*: every rank owns a clock (seconds).  Numerical work is
charged by wrapping it in :meth:`SimComm.timed` (measured on the
monotonic wall clock via :mod:`repro.obs.clock`) or via
:meth:`SimComm.advance` for modelled costs.  A
message stamps the sender's clock at send; the receiver's clock becomes
``max(receiver_clock, sender_clock + alpha + beta * nbytes)``.  The
makespan of a run — ``max`` of final clocks — is therefore the
dependency-respecting parallel wall time, which is what the paper's
strong-scaling figures plot.

Threads never run numerics concurrently in a way that corrupts the
virtual clocks: each rank only mutates its own clock, and queue handoff
pairs a single writer with a single reader per (source, dest, tag)
channel.

Fault tolerance
---------------
A world constructed with a :class:`~repro.parallel.faults.FaultInjector`
consults it on every message: sends may be dropped, delayed (virtual
seconds added to the arrival stamp) or corrupted, and ranks may be
stalled at chosen operation indices.  Recovery primitives are built in:

- :meth:`SimComm.recv` accepts a per-call ``timeout`` and fails *fast*
  — a receive from a rank that already exited without sending raises
  :class:`DeadlockError` immediately (naming the ``(source, dest,
  tag)`` channel) instead of hanging until the wall timeout, and a
  receive from a rank killed by fault injection raises
  :class:`RankFailedError`;
- :meth:`SimComm.send_reliable` retransmits attempts the injector
  dropped or corrupted, charging an exponential-backoff cost from the
  :class:`~repro.parallel.cost_model.CommCostModel` to the sender's
  virtual clock per retry;
- :meth:`SimComm.recv_with_retry` retries a failed receive with the
  same modelled backoff on the receiver side.

Retransmission is resolved at the send site — the injector is the
oracle for whether each attempt is dropped — so recovery behaviour and
every virtual-clock charge are bit-reproducible from the fault plan's
seed, independent of thread scheduling.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.clock import now
from repro.parallel.cost_model import CommCostModel
from repro.parallel.faults import FaultInjector, RankKilledError

__all__ = [
    "SimComm",
    "SimCommWorld",
    "DeadlockError",
    "RankFailedError",
    "SendReceipt",
]

# How often a blocking receive re-checks the sender's liveness (wall
# seconds).  Purely a responsiveness knob: virtual clocks never depend
# on it.
_POLL_INTERVAL = 0.002


class DeadlockError(RuntimeError):
    """A rank blocked on a message that can no longer arrive."""


class RankFailedError(RuntimeError):
    """A communication peer died (fault-injected kill or crash)."""


@dataclass
class SendReceipt:
    """Outcome of a (possibly faulty) send.

    ``delivered`` is False only when the injector dropped the message
    (every attempt, for :meth:`SimComm.send_reliable`); ``corrupted``
    marks a payload that was delivered damaged.  ``attempts`` counts
    transmissions including retries.
    """

    delivered: bool = True
    corrupted: bool = False
    delay: float = 0.0
    attempts: int = 1


class SimComm:
    """Per-rank communicator handle (the simulated ``MPI.COMM_WORLD``).

    Not constructed directly — :class:`SimCommWorld` passes one to each
    rank's program.

    Attributes
    ----------
    rank:
        This rank's id in ``[0, size)``.
    size:
        Number of ranks in the world.
    clock:
        This rank's virtual time in seconds.
    """

    def __init__(self, world: "SimCommWorld", rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size
        self.clock = 0.0
        self.bytes_sent = 0
        self.messages_sent = 0
        self.retries = 0
        self._in_timed = False
        # Per-rank communication-op index (send/recv), consulted by
        # stall rules; deterministic because each rank is sequential.
        self._op_index = 0
        # Trace propagation: when a TraceContext is installed, every
        # send derives a child context (rank-sequential counter, so ids
        # are deterministic) and carries it OUTSIDE the costed payload —
        # nbytes, checksums and virtual clocks never see it, which is
        # what keeps chaos replays bit-identical with tracing on.
        self.trace_context = None
        self.last_recv_context = None
        self._trace_seq = 0

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    @contextmanager
    def timed(self) -> Iterator[None]:
        """Charge the enclosed real compute time to this rank's clock.

        Timed regions are serialized across ranks with a world-level
        lock: the simulation shares one physical core, so measuring a
        region while other rank threads time-slice it would inflate
        every clock.  Exclusive execution gives each rank the time the
        work would take on a dedicated core.  Communication inside a
        timed region is a programming error (it would deadlock the
        world) and raises immediately.
        """
        with self._world._compute_lock:
            self._in_timed = True
            start = now()
            try:
                yield
            finally:
                self.clock += now() - start
                self._in_timed = False

    def advance(self, seconds: float) -> None:
        """Advance this rank's clock by a modelled cost."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative time {seconds}")
        self.clock += seconds

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _charge_stall(self) -> None:
        """Apply any stall fault scheduled for this rank's next comm op."""
        inj = self._world.injector
        if inj is not None:
            stall = inj.stall_seconds(self.rank, self._op_index)
            if stall > 0.0:
                self.clock += stall
        self._op_index += 1

    def send(self, obj: Any, dest: int, tag: int = 0) -> SendReceipt:
        """Blocking-buffered send (always completes immediately).

        Returns a :class:`SendReceipt`; without fault injection the
        message is always delivered intact and callers may ignore it.
        """
        if self._in_timed:
            raise RuntimeError("communication inside a timed() region would deadlock the world")
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        if dest == self.rank:
            raise ValueError("send to self is not supported; restructure the program")
        self._charge_stall()
        inj = self._world.injector
        delay = 0.0
        corrupted = False
        if inj is not None:
            verdict = inj.on_send(self.rank, dest, tag)
            if verdict.drop:
                return SendReceipt(delivered=False)
            delay = verdict.delay
            if verdict.corrupt:
                obj = inj.corrupt_payload(obj)
                corrupted = True
        nbytes = CommCostModel.payload_bytes(obj)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        ctx = None
        if self.trace_context is not None:
            self._trace_seq += 1
            ctx = self.trace_context.child(
                f"msg:{self.rank}>{dest}:t{tag}:n{self._trace_seq}"
            )
            sink = self._world.trace_sink
            if sink is not None:
                sink.emit(
                    "s", ctx, process="ranks", lane=self.rank, t=self.clock,
                    name=f"send {self.rank}->{dest} tag {tag}",
                )
        self._world._channel(self.rank, dest, tag).put(
            (obj, self.clock + delay, nbytes, ctx)
        )
        return SendReceipt(delivered=True, corrupted=corrupted, delay=delay)

    def send_reliable(
        self, obj: Any, dest: int, tag: int = 0, max_attempts: int = 4,
        policy=None,
    ) -> SendReceipt:
        """Send with bounded retransmission of dropped/corrupted attempts.

        Each retry charges ``cost_model.backoff_cost(attempt)`` —
        exponential backoff in *virtual* seconds — to this rank's clock,
        so retransmission shows up in the makespan exactly like a real
        retry loop would.  After ``max_attempts`` transmissions the last
        receipt is returned (``delivered=False`` if every attempt was
        dropped); the caller decides whether a lost message is fatal.

        ``policy`` (a :class:`repro.campaign.retry.RetryPolicy`)
        overrides both the attempt budget and the backoff schedule: the
        wait before retry ``i + 1`` becomes
        ``policy.backoff(i, key=(rank, dest, tag))`` — the same seeded,
        capped, jittered schedule campaign tasks use.  The default
        (``policy=None``) keeps the historic cost-model schedule, which
        existing chaos replays are bit-identical against.
        """
        if policy is not None:
            max_attempts = policy.max_attempts
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        receipt = SendReceipt(delivered=False)
        for attempt in range(max_attempts):
            receipt = self.send(obj, dest, tag)
            receipt.attempts = attempt + 1
            if receipt.delivered and not receipt.corrupted:
                return receipt
            self.retries += 1
            if policy is not None:
                self.advance(policy.backoff(attempt, key=(self.rank, dest, tag)))
            else:
                self.advance(self._world.cost_model.backoff_cost(attempt))
        return receipt

    def recv(self, source: int, tag: int = 0, timeout: float | None = None) -> Any:
        """Blocking receive; advances the clock past the message arrival.

        Fails fast instead of hanging: if the sending rank has already
        finished without sending on this channel a :class:`DeadlockError`
        naming the ``(source, dest, tag)`` channel is raised
        immediately; if it was killed by fault injection,
        :class:`RankFailedError`.  ``timeout`` (wall seconds) overrides
        the world default for this call.
        """
        if self._in_timed:
            raise RuntimeError("communication inside a timed() region would deadlock the world")
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range for size {self.size}")
        self._charge_stall()
        chan = self._world._channel(source, self.rank, tag)
        limit = self._world.timeout if timeout is None else float(timeout)
        deadline = now() + limit
        while True:
            try:
                obj, send_clock, nbytes, ctx = chan.get(timeout=_POLL_INTERVAL)
                break
            except queue.Empty:
                status = self._world.rank_status(source)
                if status != "running":
                    # The sender can never send again — but it may have
                    # sent just before exiting, so drain once more
                    # before declaring the channel dead.
                    try:
                        obj, send_clock, nbytes, ctx = chan.get_nowait()
                        break
                    except queue.Empty:
                        pass
                    channel = f"channel ({source} -> {self.rank}, tag {tag})"
                    if status == "killed":
                        raise RankFailedError(
                            f"rank {self.rank} cannot receive on {channel}: "
                            f"rank {source} was killed"
                        ) from None
                    raise DeadlockError(
                        f"rank {self.rank} blocked on {channel}: rank {source} "
                        f"exited without sending"
                    ) from None
                if now() > deadline:
                    raise DeadlockError(
                        f"rank {self.rank} timed out on channel ({source} -> "
                        f"{self.rank}, tag {tag}) after {limit}s"
                    ) from None
        arrival = send_clock + self._world.cost_model.cost(nbytes)
        self.clock = max(self.clock, arrival)
        self.last_recv_context = ctx
        if ctx is not None:
            sink = self._world.trace_sink
            if sink is not None:
                sink.emit(
                    "f", ctx, process="ranks", lane=self.rank, t=self.clock,
                    name=f"recv {source}->{self.rank} tag {tag}",
                )
        return obj

    def recv_with_retry(
        self,
        source: int,
        tag: int = 0,
        max_attempts: int = 3,
        timeout: float | None = None,
        policy=None,
    ) -> Any:
        """Receive with bounded retry and exponential virtual backoff.

        Each failed attempt charges ``cost_model.retry_cost(attempt)``
        (a modelled receive-timeout cost plus exponential backoff) to
        this rank's virtual clock; the final failure re-raises the
        underlying :class:`DeadlockError` / :class:`RankFailedError`.

        ``policy`` (a :class:`repro.campaign.retry.RetryPolicy`)
        overrides the attempt budget and replaces the backoff half of
        the charge with ``policy.backoff(i, key=(source, rank, tag))``
        (the modelled detection timeout is still charged per failed
        attempt).  ``policy=None`` keeps the historic schedule that
        existing chaos replays pin.
        """
        if policy is not None:
            max_attempts = policy.max_attempts
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        for attempt in range(max_attempts):
            try:
                return self.recv(source, tag, timeout=timeout)
            except (DeadlockError, RankFailedError):
                self.retries += 1
                if policy is not None:
                    self.advance(
                        self._world.cost_model.recv_timeout
                        + policy.backoff(attempt, key=(source, self.rank, tag))
                    )
                else:
                    self.advance(self._world.cost_model.retry_cost(attempt))
                if attempt == max_attempts - 1:
                    raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimComm(rank={self.rank}, size={self.size}, clock={self.clock:.6f})"


class SimCommWorld:
    """A world of ``size`` simulated ranks connected by virtual channels.

    Parameters
    ----------
    size:
        Number of ranks.
    cost_model:
        Communication cost model (defaults to a commodity interconnect).
    timeout:
        Seconds a blocking receive waits before declaring deadlock.
    injector:
        Optional :class:`~repro.parallel.faults.FaultInjector`; when
        given, every message and rank is subject to the injector's
        fault plan and :class:`~repro.parallel.faults.RankKilledError`
        raised by a rank marks it dead instead of failing the run.
    trace_sink:
        Optional :class:`~repro.obs.trace_context.TraceSink`; when
        given (and ranks install a ``trace_context``), every delivered
        message records a flow start at the sender and a flow finish at
        the receiver, rendering as arrows in the merged Chrome trace.
        Tracing never touches payload bytes, checksums, or virtual
        clocks, so results are bit-identical with it on or off.

    Examples
    --------
    >>> world = SimCommWorld(2)
    >>> def program(comm):
    ...     if comm.rank == 0:
    ...         comm.send("ping", dest=1)
    ...         return comm.recv(source=1)
    ...     msg = comm.recv(source=0)
    ...     comm.send(msg + "/pong", dest=0)
    ...     return msg
    >>> world.run(program)
    ['ping/pong', 'ping']
    """

    def __init__(
        self,
        size: int,
        cost_model: CommCostModel | None = None,
        timeout: float = 120.0,
        injector: FaultInjector | None = None,
        trace_sink=None,
    ):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = int(size)
        self.cost_model = cost_model if cost_model is not None else CommCostModel()
        self.timeout = float(timeout)
        self.injector = injector
        self.trace_sink = trace_sink
        self._channels: dict[tuple[int, int, int], queue.Queue] = {}
        self._channels_lock = threading.Lock()
        # Serializes timed compute regions across ranks; see SimComm.timed.
        self._compute_lock = threading.Lock()
        self.comms: list[SimComm] = []
        self._status: list[str] = ["running"] * self.size

    def _channel(self, source: int, dest: int, tag: int) -> queue.Queue:
        key = (source, dest, tag)
        with self._channels_lock:
            chan = self._channels.get(key)
            if chan is None:
                chan = queue.Queue()
                self._channels[key] = chan
            return chan

    def rank_status(self, rank: int) -> str:
        """Liveness of ``rank``: ``running``, ``done``, ``killed`` or ``failed``."""
        return self._status[rank]

    @property
    def killed_ranks(self) -> list[int]:
        """Ranks that died to injected kill faults in the last run."""
        return [r for r, s in enumerate(self._status) if s == "killed"]

    def run(self, program: Callable[..., Any], *args: Any) -> list[Any]:
        """Execute ``program(comm, *args)`` once per rank; return results.

        Raises the first per-rank exception after all threads finish, so
        a failure in any rank surfaces instead of hanging the caller.
        :class:`~repro.parallel.faults.RankKilledError` is the one
        exception treated as *expected*: the rank is marked ``killed``
        (its result stays ``None``) and the run continues — survivors
        observe the death through fail-fast receives.
        """
        self._channels.clear()
        self.comms = [SimComm(self, r) for r in range(self.size)]
        self._status = ["running"] * self.size
        if self.injector is not None:
            self.injector.reset()
        results: list[Any] = [None] * self.size
        errors: list[BaseException | None] = [None] * self.size

        def worker(rank: int) -> None:
            try:
                results[rank] = program(self.comms[rank], *args)
            except RankKilledError:
                if self.injector is not None:
                    self.injector.record_kill(rank)
                self._status[rank] = "killed"
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors[rank] = exc
                self._status[rank] = "failed"
            else:
                self._status[rank] = "done"

        threads = [
            threading.Thread(target=worker, args=(r,), daemon=True)
            for r in range(self.size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=self.timeout + 10.0)
        for rank, err in enumerate(errors):
            if err is not None:
                raise RuntimeError(f"rank {rank} failed") from err
        for rank, t in enumerate(threads):
            if t.is_alive():
                raise DeadlockError(f"rank {rank} never finished (deadlock?)")
        return results

    @property
    def makespan(self) -> float:
        """Maximum virtual clock over ranks after the last :meth:`run`."""
        if not self.comms:
            raise RuntimeError("no run has completed yet")
        return max(c.clock for c in self.comms)

    @property
    def total_bytes(self) -> int:
        """Total bytes sent across all ranks in the last run."""
        if not self.comms:
            raise RuntimeError("no run has completed yet")
        return sum(c.bytes_sent for c in self.comms)
