"""Seeded input generator owned by the benchmark.

The benchmark builds its graphs, patterns and request schedules here
instead of through :mod:`repro.workload`, so edits to the load harness
cannot shift the inputs a baseline was measured on.

Two seeds are involved.  The *instance* (graphs, pattern library and
popularity ranks) is drawn from :data:`INSTANCE_SEED`, fixed, because a
different instance per run changes the cost of the hot patterns by far
more than any bound the benchmark can hold (seed-to-seed spread of a
warm flat p50 was ~0.4 of its median when the instance varied).  The
run seed (``--seed``) draws everything a run sends: the order of the
Zipf request decks, which edges writes toggle, and Poisson arrival times.  The
same pair of seeds gives byte-identical graphs (same fingerprints at
every version) and the same requests.

Graph shape (the web-mirror shape of the paper's Section 6): a *site*
is a chain spine with a shortcut edge every ``SHORTCUT_EVERY`` nodes
and site-prefixed labels (``"s3:L1"``), so a label only ever matches
inside its own site.  The spine keeps a site weakly connected whatever
shortcuts a write removes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.graph.digraph import DiGraph

__all__ = [
    "LABEL_KINDS",
    "PATTERN_SIZE",
    "ZIPF_EXPONENT",
    "XI",
    "INSTANCE_SEED",
    "Zipf",
    "CorpusInputs",
    "ChurnOp",
    "ChurnInputs",
    "corpus_inputs",
    "churn_inputs",
]

#: Distinct labels per site; 5 gives each pattern node ~20% of its site.
LABEL_KINDS = 5
#: Nodes per pattern (chain segments cut from a site).
PATTERN_SIZE = 6
#: Popularity skew of patterns and graphs.
ZIPF_EXPONENT = 1.1
#: Candidate threshold; label equality scores 1.0, so any ξ in (0, 1] agrees.
XI = 0.5
#: Seed of the graphs, pattern library and popularity ranks.
INSTANCE_SEED = 0
#: Block length of the shuffled request decks (see :meth:`Zipf.deck`).
DECK = 200
SHORTCUT_EVERY = 5
SHORTCUT_SPAN = 3
#: The churn workload: separate site graphs (more than the service's 8
#: LRU slots), nodes per graph, patterns cut from each, and the share of
#: ops that are writes.
CHURN_GRAPHS = 12
CHURN_SITE_SIZE = 100
CHURN_PATTERNS_PER_GRAPH = 4
WRITE_SHARE = 0.2


class Zipf:
    """Rank-``s`` popularity over ``n`` items with a seeded rank order."""

    def __init__(self, n: int, rng: random.Random, exponent: float = ZIPF_EXPONENT):
        self.order = list(range(n))
        rng.shuffle(self.order)
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self.weights = [w / total for w in weights]

    def deck(self, rng: random.Random, size: int = DECK):
        """Endless draws in shuffled blocks of ``size`` whose item counts
        follow the popularity law exactly (largest remainder rounding).

        Independent draws let one run's share of a hot item differ from
        the next run's by a few percent, which moves a median by far more
        when items cost very different amounts; a deck keeps the mix
        fixed and leaves only the order to the seed.
        """
        return _deck(rng, self.order, self.weights, size)


def _deck(rng: random.Random, items: list, weights: list[float], size: int):
    exact = [w * size for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: size - sum(counts)]:
        counts[i] += 1
    block = [item for item, count in zip(items, counts) for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def _add_site(
    graph: DiGraph, rng: random.Random, site: int, size: int, offset: int
) -> list[tuple[int, int]]:
    """Append one site to ``graph``; returns its shortcut edges."""
    for i in range(size):
        graph.add_node(offset + i, label=f"s{site}:L{rng.randrange(LABEL_KINDS)}")
    for i in range(size - 1):
        graph.add_edge(offset + i, offset + i + 1)
    shortcuts = []
    for i in range(0, size - SHORTCUT_SPAN - 1, SHORTCUT_EVERY):
        edge = (offset + i, offset + i + SHORTCUT_SPAN)
        graph.add_edge(*edge)
        shortcuts.append(edge)
    return shortcuts


def _cut_patterns(
    graph: DiGraph, rng: random.Random, site: int, size: int, offset: int, count: int
) -> list[DiGraph]:
    """``count`` chain segments of one site (with any induced shortcuts)."""
    patterns = []
    for k in range(count):
        start = rng.randrange(size - PATTERN_SIZE)
        nodes = [offset + start + i for i in range(PATTERN_SIZE)]
        patterns.append(graph.subgraph(nodes, name=f"s{site}q{k}"))
    return patterns


def _toggle(
    rng: random.Random, present: list[tuple[int, int]], removed: list[tuple[int, int]]
) -> tuple[tuple[int, int], bool]:
    """Pick a shortcut to remove or re-add; returns ``(edge, add)``.

    Biased toward the larger side, so a graph hovers near its generated
    density instead of draining.
    """
    remove = bool(present) and (
        not removed or rng.random() < len(present) / (len(present) + len(removed))
    )
    source, target = (present, removed) if remove else (removed, present)
    edge = source.pop(rng.randrange(len(source)))
    target.append(edge)
    return edge, not remove


@dataclass
class CorpusInputs:
    """One multi-site corpus, its pattern library and pattern popularity."""

    corpus: DiGraph
    patterns: list[DiGraph]
    popularity: Zipf
    seed: int | str

    def request_stream(self):
        """Endless pattern indices, Zipf-distributed in shuffled decks."""
        return self.popularity.deck(random.Random(f"{self.seed}:requests"))


def corpus_inputs(
    seed: int | str,
    sites: int = 8,
    site_size: int = 200,
    patterns: int = 32,
) -> CorpusInputs:
    """The closed-loop workloads' input: ``sites`` sites in one graph."""
    rng = random.Random(f"{INSTANCE_SEED}:corpus")
    corpus = DiGraph(name=f"bench-corpus-{INSTANCE_SEED}")
    for site in range(sites):
        _add_site(corpus, rng, site, site_size, site * site_size)
    per_site = patterns // sites
    library: list[DiGraph] = []
    for site in range(sites):
        library.extend(
            _cut_patterns(corpus, rng, site, site_size, site * site_size, per_site)
        )
    return CorpusInputs(corpus, library, Zipf(len(library), rng), seed)


@dataclass(frozen=True)
class ChurnOp:
    """One request of the churn workload.

    A read names ``pattern`` (an index into its graph's pattern list); a
    write names the shortcut ``edge`` it removes (``add=False``) or
    re-adds.  ``version`` is the number of writes to ``graph`` before this
    op: the graph version a read sees, or the version a write produces
    minus one.  ``due`` is the op's arrival time in seconds from the
    window start (open loop only).
    """

    kind: str
    graph: int
    version: int
    pattern: int = -1
    edge: tuple[int, int] = (-1, -1)
    add: bool = False
    due: float = 0.0


@dataclass
class ChurnInputs:
    """Independent site graphs, their patterns and their request stream."""

    graphs: list[DiGraph]
    patterns: list[list[DiGraph]]
    popularity: Zipf
    shortcuts: list[list[tuple[int, int]]]
    seed: int | str

    def fresh_graphs(self) -> list[DiGraph]:
        """The graphs as generated, before any write."""
        return churn_inputs(self.seed).graphs

    def ops(self):
        """Endless ops.  Graphs follow the Zipf popularity and writes make
        ``WRITE_SHARE`` of the ops, both in shuffled decks; a read picks one
        of its graph's patterns uniformly; a write toggles one shortcut."""
        rng = random.Random(f"{self.seed}:ops")
        picks = self.popularity.deck(rng)
        writes = round(WRITE_SHARE * DECK)
        kinds = _deck(rng, [True, False], [writes / DECK, 1 - writes / DECK], DECK)
        present = [list(edges) for edges in self.shortcuts]
        removed: list[list[tuple[int, int]]] = [[] for _ in self.graphs]
        versions = [0] * len(self.graphs)
        while True:
            g = next(picks)
            if next(kinds):
                edge, add = _toggle(rng, present[g], removed[g])
                yield ChurnOp("write", g, versions[g], edge=edge, add=add)
                versions[g] += 1
            else:
                yield ChurnOp("read", g, versions[g], pattern=rng.randrange(len(self.patterns[g])))

    def schedule(self, rate: float, seconds: float) -> list[ChurnOp]:
        """The first ops of :meth:`ops`, due at Poisson arrivals of ``rate``
        per second, up to ``seconds``."""
        rng = random.Random(f"{self.seed}:arrivals:{rate}")
        schedule = []
        due = 0.0
        for op in self.ops():
            due += rng.expovariate(rate)
            if due >= seconds:
                return schedule
            schedule.append(replace(op, due=due))
        raise AssertionError("ops() is endless")


def churn_inputs(seed: int | str) -> ChurnInputs:
    """The churn workload's input: ``CHURN_GRAPHS`` separate site graphs."""
    rng = random.Random(f"{INSTANCE_SEED}:churn")
    site_graphs: list[DiGraph] = []
    shortcuts: list[list[tuple[int, int]]] = []
    libraries: list[list[DiGraph]] = []
    for site in range(CHURN_GRAPHS):
        graph = DiGraph(name=f"bench-site-{INSTANCE_SEED}-{site}")
        shortcuts.append(_add_site(graph, rng, site, CHURN_SITE_SIZE, 0))
        libraries.append(
            _cut_patterns(graph, rng, site, CHURN_SITE_SIZE, 0, CHURN_PATTERNS_PER_GRAPH)
        )
        site_graphs.append(graph)
    return ChurnInputs(site_graphs, libraries, Zipf(CHURN_GRAPHS, rng), shortcuts, seed)
