"""Reference oracle: the cold, unsharded, python-backend path.

Every response the benchmark receives is compared, outside the timed
window, with what :func:`repro.core.match_prepared` returns over a fresh
:func:`repro.core.prepare_data_graph` of the graph version that request
saw — no cache, no store, no shards, no prefilter, the similarity matrix
materialised.  A response must agree on quality and on the whole mapping.
A write returns an evolved index rather than an answer; its digest
(:func:`index_digest`) is compared with that of a cold build of the
version the write made.
"""

from __future__ import annotations

from repro.core import match_prepared, prepare_data_graph
from repro.graph.digraph import DiGraph
from repro.similarity.labels import label_equality_matrix

__all__ = ["Oracle", "agrees", "index_digest"]


def agrees(report, expected: tuple[float, dict]) -> bool:
    """Whether a served report matches the reference ``(quality, mapping)``."""
    quality, mapping = expected
    return report.quality == quality and dict(report.result.mapping) == mapping


def index_digest(prepared) -> int:
    """A digest of a prepared index's rows, to compare an evolved index
    with a cold build of the same graph version."""
    return hash(
        (
            tuple(prepared.nodes2),
            tuple(prepared.from_mask),
            tuple(prepared.to_mask),
            prepared.cycle_mask,
        )
    )


class Oracle:
    """Cold reference answers, memoised per (graph version, pattern).

    ``partitioned`` selects the Appendix-B component-partitioned solve,
    the semantics a sharded service must reproduce.
    """

    def __init__(self, xi: float, partitioned: bool = False) -> None:
        self.xi = xi
        self.partitioned = partitioned
        self._prepared: dict[object, object] = {}
        self._answers: dict[tuple[object, int], tuple[float, dict]] = {}

    def prepared(self, version_key: object, graph: DiGraph):
        """The cold index of ``graph``, built once per ``version_key``."""
        prepared = self._prepared.get(version_key)
        if prepared is None:
            prepared = prepare_data_graph(graph.copy())
            self._prepared[version_key] = prepared
        return prepared

    def expected(
        self, version_key: object, graph: DiGraph, pattern_key: int, pattern: DiGraph
    ) -> tuple[float, dict]:
        key = (version_key, pattern_key)
        answer = self._answers.get(key)
        if answer is None:
            prepared = self.prepared(version_key, graph)
            report = match_prepared(
                pattern,
                prepared,
                label_equality_matrix(pattern, prepared.graph),
                self.xi,
                partitioned=self.partitioned,
                backend="python",
                prefilter="off",
            )
            answer = (report.quality, dict(report.result.mapping))
            self._answers[key] = answer
        return answer

    def forget(self, version_key: object) -> None:
        """Drop a version's cold index once no later response needs it."""
        self._prepared.pop(version_key, None)
