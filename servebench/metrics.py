"""Metric definitions: what each number is, its unit, and what it predicts.

``END_TO_END`` are the numbers a user of the serving stack sees; the
untraced run reports all of them.  Their times are each call's process
CPU time scaled to the reference host speed (see :mod:`loadgen`), so
that they repeat on a shared host whose speed drifts and whose vCPUs are
sometimes taken away; the traced run also reports wall-clock read
latencies and the gauge.  ``PER_LAYER`` are single layers'
numbers from the traced run.  Each per-layer metric names the end-to-end
metrics and workloads it should move (written down before measuring, so
a later change can be checked against the prediction).  A layer that
does no work on a workload reads 0 there; the prediction on such a
workload is no change.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EndToEnd", "Layer", "END_TO_END", "PER_LAYER", "WORKLOADS"]

#: Workload name -> why it exists (one line each).
WORKLOADS = {
    "flat-warm": (
        "closed loop, MatchingService.match on one warm 1600-node corpus: "
        "similarity rebuild plus engine frames, no store, router or async work"
    ),
    "sharded-gated": (
        "closed loop, ShardedMatchingService(2).match_sharded with the label gate: "
        "router, plan cache and gated rows work, no similarity matrix is built"
    ),
    "churn-async": (
        "async front-end over a chained store, 12 graphs vs 8 LRU slots, 20% writes: "
        "tier ladder, incremental, store; traced run is open-loop for admission queueing"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "CPU time of the program calls before the timed window (service start + warm-up), median of the run's set-ups"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak resident memory of a process that ran only this workload"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations completed per CPU second spent in calls (churn-async: reads and writes)"),
    EndToEnd("match_p50_ms", "ms", "lower", 0.25, "read latency (CPU time of the call), median"),
    # 95th, not 99th: at ~2,500 reads a run the p99 of the scaled
    # wall-clock latencies moved 0.26-0.35 of its median between seeds
    # (its last 25 samples were mostly host stalls shorter than a
    # request), while p95 held within ~0.09.
    EndToEnd("match_p95_ms", "ms", "lower", 0.25, "read latency, 95th percentile"),
)


@dataclass(frozen=True)
class Layer:
    """A per-layer metric.

    ``kind`` says how the value is formed from what the traced children
    report: ``per_op`` (summed ``key`` / operations in the traced window),
    ``ratio`` (summed ``key`` / summed ``base``), ``p50``/``p99`` (of the
    pooled ``key`` samples, in ms), ``mean`` (mean of ``key`` over
    children) or ``per_setup`` (summed ``key`` / set-ups).
    """

    name: str
    unit: str
    kind: str
    moves: tuple[tuple[str, str], ...]
    key: str = ""
    base: str = ""
    better: str = "lower"

    @property
    def source(self) -> str:
        return self.key or self.name


_FW, _SG, _CO = "flat-warm", "sharded-gated", "churn-async"
_ALL = (_FW, _SG, _CO)


def _on(metrics: tuple[str, ...], workloads: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    return tuple((m, w) for m in metrics for w in workloads)


PER_LAYER: tuple[Layer, ...] = (
    Layer("similarity.ms", "ms/op", "per_op", _on(("match_p50_ms",), (_FW,))),
    Layer("similarity.calls", "1/op", "per_op", _on(("match_p50_ms",), (_FW,))),
    Layer("engine.frames", "1/op", "per_op", _on(("match_p50_ms", "ops_per_s"), (_FW, _SG))),
    Layer("engine.self_ms", "ms/op", "per_op", _on(("match_p50_ms", "ops_per_s"), (_FW, _SG))),
    Layer("engine.solve_ms", "ms/op", "per_op", _on(("match_p50_ms", "ops_per_s"), (_FW, _SG))),
    Layer("workspace.build_ms", "ms/op", "per_op", _on(("match_p50_ms", "ops_per_s"), (_FW, _SG))),
    Layer("fingerprint.ms", "ms/op", "per_op", _on(("match_p50_ms",), _ALL)),
    Layer("fingerprint.calls", "1/op", "per_op", _on(("match_p50_ms",), _ALL)),
    Layer("sharding.plan_for_ms", "ms/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("sharding.router_self_ms", "ms/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("sharding.fanout_components", "1/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("sharding.spill_components", "1/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("prefilter.gated_rows_ms", "ms/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("prefilter.pairs_pruned", "1/op", "per_op", _on(("match_p50_ms",), (_SG,)), better="higher"),
    Layer("prefilter.shards_skipped", "1/op", "per_op", _on(("match_p50_ms",), (_SG,)), better="higher"),
    Layer("prefilter.filter_bypasses", "1/op", "per_op", _on(("match_p50_ms",), (_SG,))),
    Layer("prefilter.shard_skip_ratio", "ratio", "ratio", _on(("match_p50_ms",), (_SG,)),
          key="prefilter.shards_skipped", base="prefilter.shard_consults", better="higher"),
    Layer("service.prepared_for_ms", "ms/op", "per_op", _on(("match_p95_ms",), (_CO,))),
    Layer("service.cache_hit_ratio", "ratio", "ratio", _on(("match_p95_ms",), (_CO,)),
          key="service.cache_hits", base="service.lookups", better="higher"),
    Layer("service.cache_misses", "1/op", "per_op", _on(("match_p95_ms",), (_CO,))),
    Layer("service.evictions", "1/op", "per_op", _on(("match_p95_ms",), (_CO,))),
    Layer("service.disk_hits", "1/op", "per_op", _on(("match_p95_ms",), (_CO,))),
    Layer("service.mmap_opens", "1/op", "per_op", _on(("match_p95_ms",), (_CO,)), better="higher"),
    Layer("service.delta_hits", "1/op", "per_op", _on(("match_p95_ms",), (_CO,)), better="higher"),
    Layer("service.prepares", "1/op", "per_op", _on(("match_p95_ms",), (_CO,))),
    Layer("store.load_ms", "ms/op", "per_op", _on(("match_p95_ms",), (_CO,)) + (("setup_s", _CO),)),
    Layer("store.payload_region_ms", "ms/op", "per_op", _on(("match_p95_ms",), (_CO,)) + (("setup_s", _CO),)),
    Layer("prepared.from_payload_ms", "ms/op", "per_op", _on(("match_p95_ms",), (_CO,)) + (("setup_s", _CO),)),
    Layer("prepared.from_mapped_ms", "ms/op", "per_op", _on(("match_p95_ms",), (_CO,)) + (("setup_s", _CO),)),
    Layer("incremental.apply_delta_ms", "ms/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("incremental.nodes_recomputed", "1/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("incremental.full_rebuilds", "1/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("store.save_ms", "ms/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("store.save_delta_ms", "ms/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("store.chain_writes", "1/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("store.total_bytes", "bytes", "mean", _on(("ops_per_s",), (_CO,))),
    Layer("prepared.build_ms", "ms/op", "per_op", _on(("ops_per_s",), (_CO,))),
    Layer("prepared.build_calls", "1/op", "per_op", _on(("ops_per_s",), (_CO,))),
    # Write latency (edge toggle + update_graph) from due time in the
    # untraced half of churn-async's traced open loop; flat-warm and
    # sharded-gated do not write.  Not an end-to-end metric: the store's
    # file writes behind it drifted ~1.6x over five consecutive runs of
    # the same code on the host this was built on, while reads held.
    Layer("update.p50_ms", "ms", "p50", _on(("ops_per_s",), (_CO,)), key="writes_untraced"),
    Layer("update.p99_ms", "ms", "p99", _on(("ops_per_s",), (_CO,)), key="writes_untraced"),
    Layer("setup.prepared_build_ms", "ms", "per_setup", _on(("setup_s",), _ALL)),
    Layer("setup.prepared_build_calls", "count", "per_setup", _on(("setup_s",), _ALL)),
    Layer("aio.admission_wait_p50_ms", "ms", "p50", _on(("match_p50_ms",), (_CO,)),
          key="aio.admission_wait"),
    Layer("aio.admission_wait_p99_ms", "ms", "p99", _on(("match_p95_ms",), (_CO,)),
          key="aio.admission_wait"),
    # Async latency minus the wrapped call minus admission wait: the hop
    # from the executor back to the awaiting coroutine (GIL hand-off).
    Layer("aio.hop_p50_ms", "ms", "p50", _on(("match_p50_ms", "match_p95_ms"), (_CO,)),
          key="aio.hop"),
    # Health of the benchmark itself: how late the generator sent.  Not gated.
    Layer("client.send_lag_p99_ms", "ms", "p99", (), key="client.send_lag"),
    # Wall-clock read latency of the traced run's untraced half, unscaled:
    # per call on the closed loops, from due time on churn-async's open
    # loop (queueing the closed loop cannot show).
    Layer("wall.match_p50_ms", "ms", "p50", _on(("match_p50_ms",), _ALL), key="wall_reads"),
    Layer("wall.match_p99_ms", "ms", "p99", _on(("match_p95_ms",), _ALL), key="wall_reads"),
    # The host-speed gauge's median sample: what the scaled times divide out.
    Layer("host.gauge_ms", "ms", "p50", (), key="host.gauge"),
    # Traced read p50 over untraced read p50, minus one, in percent.
    Layer("trace.overhead_pct", "%", "overhead", ()),
    # Bindings a refactor removed (reported, never fatal).
    Layer("trace.absent_bindings", "count", "mean", ()),
)
