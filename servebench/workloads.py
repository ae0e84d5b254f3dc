"""The three workloads, as run inside one measuring child process.

Each function sets the workload up, warms every pattern or graph once,
measures its share of the run, checks every response against the
reference oracle outside the timed window, and returns raw figures
(latency samples, counter sums) that the parent pools across children.

Set-up time counts every program call made before the timed window.
Latencies are measured from outside the program: a closed-loop call's
wall-clock, or an open-loop request's due time to its completion.  The
closed loops (set-up included) also take each call's process CPU time,
scaled to the reference host speed by a :class:`~loadgen.HostGauge`;
the end-to-end metrics are taken from the scaled CPU times (see
:mod:`loadgen` for why).
"""

from __future__ import annotations

import asyncio
import os
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from inputs import XI, churn_inputs, corpus_inputs
from loadgen import HostGauge, Record, run_closed_loop, run_closed_loop_async, run_open_loop
from oracle import Oracle, agrees, index_digest
from spans import Tracer, self_times

from repro.core import (
    AsyncMatchingService,
    MatchingService,
    ShardedMatchingService,
)
from repro.core.prefilter import LabelEqualitySimilarity

__all__ = ["Context", "RUNNERS", "CHURN_RATE"]

#: Open-loop arrival rate (requests/s) of the traced ``churn-async``
#: run, about a fifth of the mix's closed-loop capacity on a 2-core host
#: (~500/s).  The untraced run is a closed loop: an open loop's read p99
#: spread 0.4-0.6 of its median across ten seeds whenever the shared host
#: slowed (GIL hand-offs between the executor and the event loop stretch
#: with every preemption, and Poisson bursts queue behind them), which no
#: end-to-end bound can hold; the closed loop repeats like the others.
CHURN_RATE = 100.0
#: Shards of the ``sharded-gated`` router.
SHARDS = 2

_clock = time.perf_counter


@dataclass
class Context:
    """What the parent hands one measuring child."""

    seed: str
    seconds: float
    trace: bool
    workdir: Path
    tracer: Tracer = field(default_factory=Tracer)


def _cpu_since(before) -> tuple[float, float]:
    after = os.times()
    return after.user - before.user, after.system - before.system


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _numeric(snapshot: dict, prefix: str = "") -> dict[str, float]:
    out = {}
    for key, value in snapshot.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[prefix + key] = value
    return out


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _flat_stats(service: MatchingService) -> dict[str, float]:
    return _numeric(service.stats.snapshot())


def _sharded_stats(service: ShardedMatchingService) -> dict[str, float]:
    snap = service.stats_snapshot()
    return {**_numeric(snap["aggregate"]), **_numeric(snap, "router.")}


def _tier_shares(delta: dict[str, float]) -> dict[str, float]:
    """Share of index lookups served by each rung of the tier ladder."""
    lookups = delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
    if not lookups:
        return {}
    mmap = delta.get("mmap_opens", 0)
    return {
        "memory": delta.get("cache_hits", 0) / lookups,
        "delta": delta.get("delta_hits", 0) / lookups,
        "mmap": mmap / lookups,
        "decode_or_chain": (delta.get("disk_hits", 0) - mmap) / lookups,
        "build": delta.get("prepares", 0) / lookups,
    }


def _label_selectivity(patterns, graph) -> float:
    """Mean share of data nodes carrying a pattern node's label."""
    counts: dict[object, int] = {}
    for u in graph.nodes():
        counts[graph.label(u)] = counts.get(graph.label(u), 0) + 1
    shares = [
        counts.get(p.label(v), 0) / graph.num_nodes()
        for p in patterns
        for v in p.nodes()
    ]
    return sum(shares) / len(shares)


def _layer_sums(tracer: Tracer, stats: dict[str, float], ops: int) -> dict[str, float]:
    """Additive per-layer figures of the traced window (``phase="window"``)."""
    times = self_times(tracer.spans, phase="window")
    spans = tracer.phase_spans("window")

    def top_ms(key: str) -> float:
        return times.get("top:" + key, 0.0) * 1e3

    def span_count(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    deltas = [d for phase, d in tracer.delta_results if phase == "window"]
    router = "router.sharded_solves" in stats
    prefix = "router." if router else ""
    return {
        "ops": ops,
        "similarity.ms": top_ms("similarity"),
        "similarity.calls": span_count("similarity.matrix"),
        "engine.frames": tracer.count("window", "engine.frame"),
        "engine.self_ms": sum(
            v for k, v in times.items() if k.startswith("self:engine.")
        ) * 1e3,
        "engine.solve_ms": top_ms("engine.solve"),
        "workspace.build_ms": top_ms("workspace.build"),
        "fingerprint.ms": top_ms("fingerprint"),
        "fingerprint.calls": span_count("fingerprint"),
        "sharding.plan_for_ms": top_ms("sharding.plan_for"),
        "sharding.router_self_ms": times.get("self:sharding.router", 0.0) * 1e3,
        "sharding.fanout_components": stats.get("router.fanout_components", 0),
        "sharding.spill_components": stats.get("router.spill_components", 0),
        # The router builds gated rows inline and times them itself; the
        # flat and partitioned paths go through gated_candidate_rows.
        "prefilter.gated_rows_ms": top_ms("prefilter.gated_rows")
        + stats.get("router.filter_seconds", 0.0) * 1e3,
        "prefilter.pairs_pruned": stats.get(prefix + "pairs_pruned", 0),
        "prefilter.shards_skipped": stats.get(prefix + "shards_skipped", 0),
        "prefilter.filter_bypasses": stats.get(prefix + "filter_bypasses", 0),
        "prefilter.shard_consults": stats.get("router.sharded_solves", 0) * SHARDS,
        "service.prepared_for_ms": top_ms("service.prepared_for"),
        "service.cache_hits": stats.get("cache_hits", 0),
        "service.lookups": stats.get("cache_hits", 0) + stats.get("cache_misses", 0),
        "service.cache_misses": stats.get("cache_misses", 0),
        "service.evictions": stats.get("evictions", 0),
        "service.disk_hits": stats.get("disk_hits", 0),
        "service.mmap_opens": stats.get("mmap_opens", 0),
        "service.delta_hits": stats.get("delta_hits", 0),
        "service.prepares": stats.get("prepares", 0),
        "store.load_ms": top_ms("store.load"),
        "store.payload_region_ms": top_ms("store.payload_region"),
        "prepared.from_payload_ms": top_ms("prepared.from_payload"),
        "prepared.from_mapped_ms": top_ms("prepared.from_mapped"),
        "incremental.apply_delta_ms": top_ms("incremental.apply_delta"),
        "incremental.nodes_recomputed": sum(
            d.get("recomputed_nodes", 0) for d in deltas if not d.get("full_rebuild")
        ),
        "incremental.full_rebuilds": sum(1 for d in deltas if d.get("full_rebuild")),
        "store.save_ms": top_ms("store.save"),
        "store.save_delta_ms": top_ms("store.save_delta"),
        "store.chain_writes": stats.get("chain_writes", 0),
        "prepared.build_ms": top_ms("prepared.build"),
        "prepared.build_calls": span_count("prepared.build"),
        "trace.absent_bindings": len(tracer.absent),
    }


def _setup_sums(tracer: Tracer) -> dict[str, float]:
    times = self_times(tracer.spans, phase="setup")
    return {
        "setups": 1,
        "setup.prepared_build_ms": times.get("top:prepared.build", 0.0) * 1e3,
        "setup.prepared_build_calls": sum(
            1 for s in tracer.phase_spans("setup") if s[0] == "prepared.build"
        ),
    }


@dataclass
class Outcome:
    """Raw figures of one child, pooled by the parent."""

    setup_s: float = 0.0
    peak_rss_kb: int = 0
    #: Latencies at the reference host speed, in seconds.
    reads: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    #: Wall-clock read latencies and the median gauge sample, for the record.
    wall_reads: list[float] = field(default_factory=list)
    gauge_s: float = 0.0
    #: User and system CPU seconds of the timed window.
    window_cpu: tuple[float, float] = (0.0, 0.0)
    window_s: float = 0.0
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    layer_sums: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    inputs: dict[str, object] = field(default_factory=dict)
    tiers: dict[str, float] = field(default_factory=dict)

    def count(self, records: list[Record], checked: list[bool]) -> None:
        """Account ``records``; ``checked[i]`` is the oracle's verdict."""
        for record, ok in zip(records, checked):
            self.attempted += 1
            if record.error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(repr(record.error))
            elif not ok:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"reference mismatch on {record.op!r}")

    def latencies(self, records: list[Record]) -> list[float]:
        """Reference-speed CPU seconds per successful record (failures
        are counted in ``failed``)."""
        return [r.ref_cpu for r in records if r.error is None]


def _warmed(records: list[Record]) -> float:
    """Reference-speed CPU seconds of set-up calls; a failed one is fatal."""
    for record in records:
        if record.error is not None:
            raise record.error
    return sum(r.ref_cpu for r in records)


# ----------------------------------------------------------------------
# Closed-loop workloads
# ----------------------------------------------------------------------
def _closed_loop(ctx: Context, sharded: bool) -> Outcome:
    inputs = corpus_inputs(ctx.seed)
    corpus, patterns = inputs.corpus, inputs.patterns
    sim = LabelEqualitySimilarity()
    out = Outcome()
    tracer = ctx.tracer

    gauge = HostGauge()
    if ctx.trace:
        tracer.phase = "setup"
        tracer.install()
    tick = gauge.tick()
    start = time.process_time()
    if sharded:
        service = ShardedMatchingService(SHARDS)

        def call(i: int):
            return service.match_sharded(patterns[i], corpus, sim, XI, prefilter="auto")

        def stats() -> dict[str, float]:
            return _sharded_stats(service)
    else:
        service = MatchingService()

        def call(i: int):
            return service.match(patterns[i], corpus, sim, XI)

        def stats() -> dict[str, float]:
            return _flat_stats(service)
    built = time.process_time() - start
    warm = _warmed(run_closed_loop(range(len(patterns)), call, float("inf"), gauge))
    out.setup_s = built * gauge.scale(tick) + warm
    if ctx.trace:
        tracer.uninstall()
        out.layer_sums.update(_setup_sums(tracer))

    requests = inputs.request_stream()
    before = stats()
    if ctx.trace:
        # Half the share untraced, half traced.
        read_s = ctx.seconds / 2
        untraced = run_closed_loop(requests, call, read_s, gauge)
        tracer.phase = "window"
        before = stats()
        tracer.install()
        counter = iter(range(1 << 62))

        def traced_call(i: int):
            token = tracer.set_request(next(counter))
            opened = tracer.open_span("request")
            try:
                return call(i)
            finally:
                tracer.close_span("request", opened)
                tracer.reset_request(token)

        traced = run_closed_loop(requests, traced_call, read_s, gauge)
        tracer.uninstall()
        records = untraced + traced
        out.layer_sums.update(_layer_sums(tracer, _delta(stats(), before), len(traced)))
        out.samples["reads_untraced"] = [r.ref_cpu for r in untraced]
        out.samples["reads_traced"] = [r.ref_cpu for r in traced]
        out.samples["wall_reads"] = [r.latency for r in untraced]
    else:
        cpu = os.times()
        records = run_closed_loop(requests, call, ctx.seconds, gauge)
        out.window_cpu = _cpu_since(cpu)
        out.tiers = _tier_shares(_delta(stats(), before))
        out.gauge_s = statistics.median(gauge.samples)
    out.peak_rss_kb = _peak_rss_kb()
    out.reads = out.latencies(records)
    out.wall_reads = [r.latency for r in records if r.error is None]
    out.completed = len(out.reads)
    out.window_s = sum(out.reads)
    cache = (service.workers[0] if sharded else service).cache
    out.inputs = {
        "V2": corpus.num_nodes(),
        "graphs": 1,
        "lru_slots": cache.max_entries,
        "shards": SHARDS if sharded else 1,
        "patterns": len(patterns),
        "label_selectivity": _label_selectivity(patterns, corpus),
        "write_share": 0.0,
    }

    oracle = Oracle(XI, partitioned=sharded)
    out.count(
        records,
        [r.error is not None or agrees(r.result, oracle.expected(0, corpus, r.op, patterns[r.op]))
         for r in records],
    )
    if ctx.trace:
        out.samples["host.gauge"] = gauge.samples
    return out


def flat_warm(ctx: Context) -> Outcome:
    return _closed_loop(ctx, sharded=False)


def sharded_gated(ctx: Context) -> Outcome:
    return _closed_loop(ctx, sharded=True)


# ----------------------------------------------------------------------
# Churn workload
# ----------------------------------------------------------------------
def churn_async(ctx: Context) -> Outcome:
    return asyncio.run(_churn_async(ctx))


async def _churn_async(ctx: Context) -> Outcome:
    inputs = churn_inputs(ctx.seed)
    graphs, patterns = inputs.graphs, inputs.patterns
    out = Outcome()
    tracer = ctx.tracer
    store_dir = ctx.workdir / "store"

    gauge = HostGauge()
    if ctx.trace:
        tracer.phase = "setup"
        tracer.install()
    tick = gauge.tick()
    start = time.process_time()
    service = MatchingService(store_dir=str(store_dir), chain=True)
    # The front-end's one worker thread, passed in so that the gauge can
    # run on the thread that serves the requests.
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="servebench-aio")
    front = AsyncMatchingService(service, max_concurrency=1, executor=pool)
    built = time.process_time() - start
    try:
        async def warm_call(pair):
            graph, pattern = pair
            return await front.match(pattern, graph, LabelEqualitySimilarity(), XI)

        pairs = [(graph, pattern) for graph, library in zip(graphs, patterns) for pattern in library]
        warm = _warmed(await run_closed_loop_async(pairs, warm_call, float("inf"), gauge, pool))
        out.setup_s = built * gauge.scale(tick) + warm
        if ctx.trace:
            tracer.uninstall()
            out.layer_sums.update(_setup_sums(tracer))

        # Per-request hooks used only by the traced window: the async
        # front-end looks ``service.match`` up per call, so an instance
        # attribute sees each request enter and leave the wrapped service.
        called: dict[int, float] = {}
        inner: dict[int, tuple[float, float]] = {}

        def _front_end_split(began, inside, returned) -> None:
            """Admission wait (call -> wrapped service entered) and the
            return hop (wrapped service left -> awaiting caller resumed)."""
            if inside is not None:
                t_in, t_out = inside
                out.samples["aio.admission_wait"].append(t_in - began)
                out.samples["aio.hop"].append(returned - t_out)

        async def read(op):
            mat = LabelEqualitySimilarity()  # one per request: identifies it
            called[id(mat)] = _clock()
            try:
                report = await front.match(patterns[op.graph][op.pattern], graphs[op.graph], mat, XI)
            finally:
                returned = _clock()
            _front_end_split(called.pop(id(mat)), inner.pop(id(mat), None), returned)
            return report

        async def write(op):
            graph = graphs[op.graph]
            (graph.add_edge if op.add else graph.remove_edge)(*op.edge)
            key = -1 - op.graph  # one write per graph is in flight at a time
            called[key] = _clock()
            try:
                prepared = await front.update_graph(graph)
            finally:
                returned = _clock()
            _front_end_split(called.pop(key), inner.pop(key, None), returned)
            # Digest now (~10 us) rather than keep every evolved index
            # alive until the oracle runs, which would inflate peak RSS.
            return index_digest(prepared)

        async def call(op):
            return await (read if op.kind == "read" else write)(op)

        def hook(method, key_of):
            def wrapped(*args, **kwargs):
                key = key_of(args)
                token = tracer.set_request(key)
                opened = tracer.open_span("request")
                t_in = _clock()
                try:
                    return method(*args, **kwargs)
                finally:
                    inner[key] = (t_in, _clock())
                    tracer.close_span("request", opened)
                    tracer.reset_request(token)

            return wrapped

        before = _flat_stats(service)
        if ctx.trace:
            # The traced run drives the open loop: Poisson arrivals at
            # CHURN_RATE, half untraced, half traced, so admission waits
            # and queueing are measured where they happen.
            half = ctx.seconds / 2
            schedule = inputs.schedule(CHURN_RATE, ctx.seconds)
            first = [op for op in schedule if op.due < half]
            second = [_rebased(op, half) for op in schedule if op.due >= half]
            untraced = await run_open_loop(first, read, write)
            before = _flat_stats(service)
            out.samples.update({"aio.admission_wait": [], "aio.hop": []})
            tracer.phase = "window"
            tracer.install()
            service.match = hook(service.match, lambda args: id(args[2]))
            graph_index = {id(graph): i for i, graph in enumerate(graphs)}
            service.update_graph = hook(
                service.update_graph, lambda args: -1 - graph_index[id(args[0])]
            )
            try:
                traced = await run_open_loop(second, read, write)
            finally:
                del service.match, service.update_graph
                tracer.uninstall()
            records = untraced + traced
            sums = _layer_sums(tracer, _delta(_flat_stats(service), before), len(traced))
            sums["store.total_bytes"] = service.store.total_bytes()
            out.layer_sums.update(sums)
            out.samples["client.send_lag"] = [r.lag for r in traced]
            out.samples["reads_untraced"] = [r.latency for r in untraced if r.op.kind == "read"]
            out.samples["wall_reads"] = out.samples["reads_untraced"]
            out.samples["reads_traced"] = [r.latency for r in traced if r.op.kind == "read"]
            out.samples["writes_untraced"] = [r.latency for r in untraced if r.op.kind == "write"]
            out.samples["host.gauge"] = gauge.samples
        else:
            cpu = os.times()
            records = await run_closed_loop_async(inputs.ops(), call, ctx.seconds, gauge, pool)
            out.window_cpu = _cpu_since(cpu)
            out.tiers = _tier_shares(_delta(_flat_stats(service), before))
            out.gauge_s = statistics.median(gauge.samples)
        out.peak_rss_kb = _peak_rss_kb()
    finally:
        await asyncio.get_running_loop().run_in_executor(None, front.close)
        pool.shutdown()

    out.reads = out.latencies([r for r in records if r.op.kind == "read"])
    out.writes = out.latencies([r for r in records if r.op.kind == "write"])
    out.wall_reads = [r.latency for r in records if r.op.kind == "read" and r.error is None]
    out.completed = len(out.reads) + len(out.writes)
    out.window_s = sum(out.reads) + sum(out.writes)
    out.inputs = {
        "V2": graphs[0].num_nodes(),
        "graphs": len(graphs),
        "lru_slots": service.cache.max_entries,
        "patterns": sum(len(library) for library in patterns),
        "label_selectivity": sum(
            _label_selectivity(library, graph) for graph, library in zip(inputs.fresh_graphs(), patterns)
        ) / len(graphs),
        "write_share": sum(1 for r in records if r.op.kind == "write") / max(1, len(records)),
    }
    if ctx.trace:
        out.inputs["open_loop_rate_per_s"] = CHURN_RATE
    out.count(records, _replay(inputs, records))
    return out


def _rebased(op, offset: float):
    return replace(op, due=op.due - offset)


def _replay(inputs, records: list[Record]) -> list[bool]:
    """Oracle verdicts for ``records``, replaying the write sequence.

    Records are in op order, and each op's ``version`` says which
    graph version it saw (reads) or produced minus one (writes).  A write
    is checked by comparing the index it returned with a cold build.
    """
    graphs = inputs.fresh_graphs()
    oracle = Oracle(XI)
    verdicts = []
    for record in records:
        op = record.op
        graph = graphs[op.graph]
        if op.kind == "read":
            ok = record.error is not None or agrees(
                record.result,
                oracle.expected(
                    (op.graph, op.version), graph, op.pattern,
                    inputs.patterns[op.graph][op.pattern],
                ),
            )
        else:
            (graph.add_edge if op.add else graph.remove_edge)(*op.edge)
            oracle.forget((op.graph, op.version))
            ok = record.error is not None or record.result == index_digest(
                oracle.prepared((op.graph, op.version + 1), graph)
            )
        verdicts.append(ok)
    return verdicts


RUNNERS = {
    "flat-warm": flat_warm,
    "sharded-gated": sharded_gated,
    "churn-async": churn_async,
}
