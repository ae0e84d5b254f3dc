"""Load generation: a closed loop and an open loop, timed from outside.

Closed loop: one client sends its next request when the previous one
returns, so each latency is one call's wall-clock.

Open loop: requests are due at pre-generated arrival times whatever the
system does, and each latency runs from the request's *due* time to its
completion.  A stall is therefore charged to the stalled request and to
every request queued behind it; timing from the moment a request was
actually sent would hide that queueing (coordinated omission).  How late
the generator itself sent each request is recorded as ``lag``.

Host speed: on the shared 2-vCPU host this was built on, wall-clock
times do not repeat between runs, for two reasons.  The same pure-Python
loop runs up to ~1.5x slower at some moments than at others, changing
within seconds and sometimes for a whole run, and CPU time slows with
it.  In other phases the hypervisor takes the vCPU away (``steal`` in
``/proc/stat`` reached 12% of the machine's time during one churn run,
whose read p95 then ranged 3.3-8.8 ms between seeds); CPU time leaves
steal out (the kernel accounts it apart), wall-clock does not.  The
closed loops therefore also take each call's process CPU time and scale
it to a reference speed: CPU seconds times ``REFERENCE_GAUGE_S`` over the
median of the ``GAUGE_WINDOW`` nearest samples of a fixed pure-Python
kernel (:class:`HostGauge`) timed in thread CPU time before each request,
on the thread that serves it.  A slower program still reads slower; a
slower or busier host does not.  What this leaves out is waiting that is
not stolen time (blocking I/O, thread hand-offs), so the wall-clock
latencies are reported as well.

Writes keep every read on one definite graph version: a write to a graph
waits for the reads of that graph sent before it, and reads of that graph
sent after it wait for the write.  Reads of other graphs are not held.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Iterable

__all__ = [
    "Record", "HostGauge", "run_closed_loop", "run_closed_loop_async", "run_open_loop",
    "percentile", "REFERENCE_GAUGE_S",
]

#: The gauge kernel's CPU time at the reference speed (about the fast
#: level of the 2-vCPU host the baseline was measured on), so that
#: scaled times read as CPU milliseconds on that host at that level.
REFERENCE_GAUGE_S = 0.3e-3
#: Gauge samples, nearest in time, that scale one latency.
GAUGE_WINDOW = 9


def _gauge_kernel() -> int:
    """Fixed interpreter-bound work: dict stores and lookups, integer ops."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1500):
        table[i & 255] = acc ^ i
        acc = (acc + table.get((i * 7) & 255, 0)) & 0xFFFF
    return acc


class HostGauge:
    """The host's current speed, sampled between requests."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> int:
        """Time the kernel once, in the calling thread's CPU time;
        returns the sample's index."""
        start = time.thread_time()
        _gauge_kernel()
        self.samples.append(time.thread_time() - start)
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor taking a CPU time measured next to sample ``index`` to
        the reference speed."""
        half = GAUGE_WINDOW // 2
        window = self.samples[max(0, index - half) : index + half + 1]
        return REFERENCE_GAUGE_S / statistics.median(window)

    def scale_records(self, records: list["Record"]) -> None:
        """Set each gauged record's ``scale``."""
        for record in records:
            if record.gauge >= 0:
                record.scale = self.scale(record.gauge)


@dataclass
class Record:
    """One request: what was sent, when it was due, sent and done."""

    op: Any
    due: float
    sent: float
    done: float
    result: Any = None
    error: BaseException | None = None
    #: Process CPU seconds of the call (closed loops only).
    cpu: float = 0.0
    #: Index of the gauge sample taken just before the request (-1: none),
    #: and the factor to the reference speed it gives.
    gauge: int = -1
    scale: float = 1.0

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ref_cpu(self) -> float:
        """The call's CPU time at the reference host speed."""
        return self.cpu * self.scale

    @property
    def lag(self) -> float:
        return self.sent - self.due


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def run_closed_loop(
    requests: Iterable[Any],
    call: Callable[[Any], Any],
    seconds: float,
    gauge: HostGauge | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Record]:
    """Send ``requests`` one after another for ``seconds``.

    Each record holds the call's wall-clock and process CPU time.  With
    a ``gauge``, the host speed is sampled before each request (outside
    both) and every record is scaled.  A raising call is recorded with
    its exception and the loop goes on.
    """
    records: list[Record] = []
    end = clock() + seconds
    for op in requests:
        if clock() >= end:
            break
        tick = gauge.tick() if gauge is not None else -1
        record = Record(op, 0.0, 0.0, 0.0, gauge=tick)
        cpu = time.process_time()
        record.due = record.sent = clock()
        try:
            record.result = call(op)
        except Exception as exc:  # counted as a failed operation
            record.error = exc
        record.done = clock()
        record.cpu = time.process_time() - cpu
        records.append(record)
    if gauge is not None:
        gauge.scale_records(records)
    return records


async def run_closed_loop_async(
    requests: Iterable[Any],
    call: Callable[[Any], Awaitable[Any]],
    seconds: float,
    gauge: HostGauge | None = None,
    executor: Executor | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> list[Record]:
    """:func:`run_closed_loop` for an async ``call``.

    ``executor`` is the pool that serves the calls: the gauge is ticked
    on it, so that it measures the thread (and CPU) doing the work.
    """
    loop = asyncio.get_running_loop()
    records: list[Record] = []
    end = clock() + seconds
    for op in requests:
        if clock() >= end:
            break
        tick = -1
        if gauge is not None:
            tick = await loop.run_in_executor(executor, gauge.tick)
        record = Record(op, 0.0, 0.0, 0.0, gauge=tick)
        cpu = time.process_time()
        record.due = record.sent = clock()
        try:
            record.result = await call(op)
        except Exception as exc:  # counted as a failed operation
            record.error = exc
        record.done = clock()
        record.cpu = time.process_time() - cpu
        records.append(record)
    if gauge is not None:
        gauge.scale_records(records)
    return records


async def run_open_loop(
    schedule: Iterable[Any],
    read: Callable[[Any], Awaitable[Any]],
    write: Callable[[Any], Awaitable[Any]],
    clock: Callable[[], float] = time.perf_counter,
) -> list[Record]:
    """Send each scheduled op at ``start + op.due`` and await them all.

    Ops need ``due`` (seconds from the window start), ``kind`` (``"read"``
    or ``"write"``) and ``graph`` (the key writes are ordered by).
    ``read`` and ``write`` are the async calls into the system under test.
    """
    start = clock()
    records: list[Record] = []
    tasks: list[asyncio.Task] = []
    last_write: dict[Any, asyncio.Task] = {}
    reads_since: dict[Any, list[asyncio.Task]] = {}

    async def send(record: Record, waits: list[asyncio.Task]) -> None:
        if waits:
            await asyncio.wait(waits)
        try:
            call = read if record.op.kind == "read" else write
            record.result = await call(record.op)
        except Exception as exc:  # counted as a failed operation
            record.error = exc
        record.done = clock()

    for op in schedule:
        due = start + op.due
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        record = Record(op, due, clock(), 0.0)
        records.append(record)
        if op.kind == "read":
            prior = last_write.get(op.graph)
            task = asyncio.create_task(send(record, [prior] if prior else []))
            reads_since.setdefault(op.graph, []).append(task)
        else:
            waits = reads_since.pop(op.graph, [])
            prior = last_write.get(op.graph)
            if prior is not None:
                waits.append(prior)
            task = asyncio.create_task(send(record, waits))
            last_write[op.graph] = task
        tasks.append(task)
    if tasks:
        await asyncio.gather(*tasks)
    return records
