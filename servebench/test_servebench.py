"""Tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest servebench -q``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402
from inputs import XI, churn_inputs, corpus_inputs  # noqa: E402
from loadgen import REFERENCE_GAUGE_S, HostGauge, Record, run_closed_loop, run_open_loop  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from oracle import Oracle, agrees, index_digest  # noqa: E402
from spans import Binding, Tracer, self_times  # noqa: E402
from workloads import _replay  # noqa: E402

from repro.core import MatchingService  # noqa: E402
from repro.core.prefilter import LabelEqualitySimilarity  # noqa: E402
from repro.graph.fingerprint import graph_fingerprint  # noqa: E402


# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
def _churn_fingerprints(seed) -> list[str]:
    """Fingerprints of every graph version the seed's schedule produces."""
    inputs = churn_inputs(seed)
    graphs = inputs.graphs
    prints = [graph_fingerprint(g) for g in graphs]
    for op in inputs.schedule(200.0, 2.0):
        if op.kind == "write":
            graph = graphs[op.graph]
            (graph.add_edge if op.add else graph.remove_edge)(*op.edge)
            prints.append(graph_fingerprint(graph))
    return prints


def test_same_seed_same_inputs():
    a, b = corpus_inputs(7), corpus_inputs(7)
    assert graph_fingerprint(a.corpus) == graph_fingerprint(b.corpus)
    assert [graph_fingerprint(p) for p in a.patterns] == [
        graph_fingerprint(p) for p in b.patterns
    ]
    stream_a, stream_b = a.request_stream(), b.request_stream()
    assert [next(stream_a) for _ in range(500)] == [next(stream_b) for _ in range(500)]
    assert churn_inputs(7).schedule(200.0, 2.0) == churn_inputs(7).schedule(200.0, 2.0)
    assert _churn_fingerprints(7) == _churn_fingerprints(7)


def test_run_seed_changes_requests_not_instance():
    a, b = corpus_inputs(1), corpus_inputs(2)
    assert graph_fingerprint(a.corpus) == graph_fingerprint(b.corpus)
    stream_a, stream_b = a.request_stream(), b.request_stream()
    assert [next(stream_a) for _ in range(100)] != [next(stream_b) for _ in range(100)]
    assert _churn_fingerprints(1) != _churn_fingerprints(2)


def test_schedule_versions_count_prior_writes():
    inputs = churn_inputs(3)
    schedule = inputs.schedule(300.0, 3.0)
    writes = [0] * len(inputs.graphs)
    assert sum(op.kind == "write" for op in schedule) == pytest.approx(0.2 * len(schedule), abs=40)
    for op in schedule:
        assert op.version == writes[op.graph]
        if op.kind == "write":
            writes[op.graph] += 1
    dues = [op.due for op in schedule]
    assert dues == sorted(dues) and dues[-1] < 3.0
    # The open-loop schedule is the closed loop's op stream with due times.
    ops = inputs.ops()
    assert [replace(op, due=0.0) for op in schedule] == [next(ops) for _ in schedule]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_accepts_served_answers_and_catches_planted_ones():
    inputs = corpus_inputs(1, sites=2, site_size=40, patterns=4)
    service = MatchingService()
    oracle = Oracle(XI)
    for i, pattern in enumerate(inputs.patterns):
        report = service.match(pattern, inputs.corpus, LabelEqualitySimilarity(), XI)
        expected = oracle.expected(0, inputs.corpus, i, pattern)
        assert agrees(report, expected)
        assert report.result.mapping
        wrong = dict(report.result.mapping)
        node = next(iter(wrong))
        wrong[node] = next(u for u in inputs.corpus.nodes() if u != wrong[node])
        assert not agrees(report, (expected[0], wrong))
        assert not agrees(report, (expected[0] - 0.125, expected[1]))


def test_replay_catches_a_planted_read_and_a_stale_write():
    inputs = churn_inputs(5)
    graphs = churn_inputs(5).graphs  # the served copies
    service = MatchingService()
    records = []
    for op in inputs.schedule(200.0, 1.5):
        graph = graphs[op.graph]
        if op.kind == "read":
            result = service.match(
                inputs.patterns[op.graph][op.pattern], graph, LabelEqualitySimilarity(), XI
            )
        else:
            (graph.add_edge if op.add else graph.remove_edge)(*op.edge)
            result = index_digest(service.update_graph(graph))
        records.append(Record(op, 0.0, 0.0, 0.0, result))
    assert all(_replay(inputs, records))

    read = next(i for i, r in enumerate(records) if r.op.kind == "read")
    planted = records[read].result
    node = next(iter(planted.result.mapping))
    planted.result.mapping[node] = ("not", "a", "node")
    write = next(i for i, r in enumerate(records) if r.op.kind == "write")
    records[write].result = records[write].result + 1
    verdicts = _replay(inputs, records)
    assert not verdicts[read] and not verdicts[write]
    assert sum(1 for ok in verdicts if not ok) == 2


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_gauge_scales_each_latency_by_the_samples_around_it():
    gauge = HostGauge()
    gauge.samples = [REFERENCE_GAUGE_S] * 9 + [2 * REFERENCE_GAUGE_S] * 9
    records = [Record(i, 0.0, 0.0, 0.020, cpu=0.010, gauge=i) for i in range(18)]
    gauge.scale_records(records)
    assert records[0].ref_cpu == pytest.approx(0.010)
    assert records[17].ref_cpu == pytest.approx(0.005)
    ticks = []
    real = HostGauge()
    out = run_closed_loop(range(5), lambda op: ticks.append(len(real.samples)), 1.0, real)
    assert ticks == [1, 2, 3, 4, 5]  # one gauge sample before each request
    assert all(r.scale > 0 and r.ref_cpu == pytest.approx(r.cpu * r.scale) for r in out)


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Op:
    due: float
    kind: str = "read"
    graph: int = 0
    index: int = 0


def _one_slot_server(stall_index: int, stall: float, service: float, log: list):
    slot = asyncio.Lock()

    async def call(op):
        async with slot:  # one request in service at a time
            log.append(("start", op.index, op.kind))
            await asyncio.sleep(stall if op.index == stall_index else service)
            log.append(("end", op.index, op.kind))
        return op.index

    return call


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    spacing, service, stall = 0.01, 0.001, 0.2
    ops = [_Op(due=i * spacing, index=i) for i in range(40)]
    log: list = []
    call = _one_slot_server(5, stall, service, log)
    records = asyncio.run(run_open_loop(ops, call, call))
    by_index = {r.op.index: r for r in records}
    stalled_done = by_index[5].done
    assert by_index[5].latency >= stall
    queued = [i for i in range(6, 40) if by_index[i].due < stalled_done]
    assert len(queued) >= 15
    for i in queued:
        # Charged from its due time: it waited for the stall to clear.
        assert by_index[i].latency >= stalled_done - by_index[i].due
        # The send itself was not delayed; the wait is queueing.
        assert by_index[i].lag < stall / 2
    assert by_index[2].latency < stall / 2
    assert all(r.error is None and r.result == r.op.index for r in records)


def test_open_loop_orders_writes_against_reads_of_the_same_graph():
    ops = [
        _Op(0.000, "read", graph=0, index=0),
        _Op(0.001, "read", graph=1, index=1),
        _Op(0.002, "write", graph=0, index=2),
        _Op(0.003, "read", graph=0, index=3),
        _Op(0.004, "read", graph=1, index=4),
    ]
    log: list = []

    async def read(op):
        log.append(("start", op.index))
        await asyncio.sleep(0.05 if op.index == 0 else 0.001)
        log.append(("end", op.index))
        return op.index

    records = asyncio.run(run_open_loop(ops, read, read))
    position = {event: i for i, event in enumerate(log)}
    assert position[("end", 0)] < position[("start", 2)]  # write waits for read 0
    assert position[("end", 2)] < position[("start", 3)]  # read 3 sees the write
    assert position[("end", 4)] < position[("end", 0)]  # graph 1 is not held
    assert [r.op.index for r in records] == [0, 1, 2, 3, 4]


def test_open_loop_counts_exceptions_without_stopping():
    async def read(op):
        if op.index == 1:
            raise RuntimeError("boom")
        return op.index

    ops = [_Op(due=0.0, index=i) for i in range(3)]
    records = asyncio.run(run_open_loop(ops, read, read))
    assert [type(r.error).__name__ if r.error else None for r in records] == [
        None, "RuntimeError", None,
    ]


# ----------------------------------------------------------------------
# Trace wrappers
# ----------------------------------------------------------------------
def test_tracer_patches_call_sites_and_restores_them():
    import repro.core.service as service_module
    import repro.graph.fingerprint as fingerprint_module
    from repro.core.prepared import PreparedDataGraph

    originals = (
        service_module.graph_fingerprint,
        fingerprint_module.graph_fingerprint,
        PreparedDataGraph.__dict__["from_payload"],
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert service_module.graph_fingerprint is not originals[0]
        assert service_module.graph_fingerprint.__wrapped__ is originals[0]
        assert isinstance(PreparedDataGraph.__dict__["from_payload"], classmethod)
        inputs = corpus_inputs(1, sites=2, site_size=40, patterns=4)
        MatchingService().match(inputs.patterns[0], inputs.corpus, LabelEqualitySimilarity(), XI)
    finally:
        tracer.uninstall()
    assert (
        service_module.graph_fingerprint,
        fingerprint_module.graph_fingerprint,
        PreparedDataGraph.__dict__["from_payload"],
    ) == originals
    names = {s[0] for s in tracer.phase_spans("window")}
    assert {"fingerprint", "service.prepared_for", "prepared.build", "engine.solve",
            "engine.greedy", "workspace.build", "similarity.resolve",
            "similarity.matrix"} <= names
    assert tracer.count("window", "engine.frame") > 0
    assert tracer.absent == []


def test_missing_binding_is_reported_absent_not_fatal():
    tracer = Tracer(bindings=(
        Binding("repro.core.service", "no_such_function", "gone"),
        Binding("repro.core.service", "x", "gone", cls="NoSuchClass"),
        Binding("repro.no_such_module", "f", "gone"),
        Binding("repro.core.service", "resolve_similarity", "similarity.resolve"),
    ))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == [
        "repro.core.service.no_such_function",
        "repro.core.service.NoSuchClass.x",
        "repro.no_such_module.f",
    ]


def test_self_time_subtracts_child_coverage():
    spans = [
        ("engine.solve", 0.0, 10.0, -1, 0, "window"),
        ("workspace.build", 1.0, 3.0, 0, 0, "window"),
        ("engine.outer", 4.0, 9.0, 0, 0, "window"),
        ("engine.greedy", 5.0, 8.0, 2, 0, "window"),
        ("engine.solve", 20.0, 21.0, -1, 1, "setup"),
    ]
    times = self_times(spans, phase="window")
    assert times["self:engine.solve"] == pytest.approx(3.0)
    assert times["self:engine.outer"] == pytest.approx(2.0)
    assert times["self:engine.greedy"] == pytest.approx(3.0)
    assert times["top:engine"] == pytest.approx(10.0)
    assert times["top:engine.greedy"] == pytest.approx(3.0)
    assert times["top:workspace.build"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the metric tables
# ----------------------------------------------------------------------
def test_benchmark_json_matches_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in PER_LAYER
    ]
    for layer in PER_LAYER:
        for metric, workload in layer.moves:
            assert workload in WORKLOADS
            assert metric in {m.name for m in END_TO_END}
