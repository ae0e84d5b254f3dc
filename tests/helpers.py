"""Shared test builders, importable explicitly (``from helpers import ...``).

This module exists so test modules never ``import conftest``: pytest puts
both ``tests/`` and ``benchmarks/`` on ``sys.path`` (rootdir mode), and a
bare ``conftest`` import resolves to whichever directory got there first —
the collection failure this layout fixes.  Fixtures stay in
``tests/conftest.py``; plain helper functions live here.
"""

from __future__ import annotations

import random

from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.similarity.matrix import SimilarityMatrix

__all__ = ["make_random_instance", "reference_greedy_match"]


def make_random_instance(
    seed: int,
    n1: int = 5,
    n2: int = 7,
    density: float = 0.25,
    sim_density: float = 0.5,
) -> tuple[DiGraph, DiGraph, SimilarityMatrix]:
    """A small random (G1, G2, mat) triple for exact-vs-approx testing."""
    rng = random.Random(seed)
    m1 = max(1, int(density * n1 * (n1 - 1)))
    m2 = max(1, int(density * n2 * (n2 - 1)))
    graph1 = random_digraph(n1, min(m1, n1 * (n1 - 1)), rng, name=f"rand1-{seed}")
    graph2 = random_digraph(n2, min(m2, n2 * (n2 - 1)), rng, name=f"rand2-{seed}")
    mat = SimilarityMatrix()
    for v in graph1.nodes():
        for u in graph2.nodes():
            if rng.random() < sim_density:
                mat.set(v, u, round(rng.uniform(0.3, 1.0), 3))
    return graph1, graph2, mat


def reference_greedy_match(
    workspace,
    top_good: dict[int, int],
    injective: bool = False,
    capacities: dict[int, int] | None = None,
    pick: str = "similarity",
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Procedure greedyMatch (paper Fig. 4) transcribed directly.

    Plain recursion over ``{v: [good, minus]}`` big-int dicts with no
    backend, no closed-form shortcut and no empty-branch skip: every
    list, however small, is solved by picking, trimming and recursing.
    It is the oracle for the engine's shortcuts, so keep it naive.
    """

    def solve(H, cap):
        if not H:  # line 1
            return [], []
        # Line 2: maximal good list (ties to the smaller index), then the
        # first preferred candidate, else the lowest set bit.
        v = min(H, key=lambda w: (-H[w][0].bit_count(), w))
        good_v = H[v][0]
        u = None
        if pick == "similarity":
            u = next((c for c in workspace.pref[v] if good_v >> c & 1), None)
        if u is None:
            u = (good_v & -good_v).bit_length() - 1
        H[v] = [0, good_v & ~(1 << u)]  # line 3
        branch_cap = cap
        if cap is not None:
            branch_cap = dict(cap)
            branch_cap[u] = cap.get(u, 1) - 1
            exhausted = branch_cap[u] <= 0
        else:
            exhausted = injective
        if exhausted:  # the 1-1 / capacity step
            for w, masks in H.items():
                if w != v and masks[0] >> u & 1:
                    masks[0] &= ~(1 << u)
                    masks[1] |= 1 << u
        # Line 4: trimMatching.
        for neighbors, row in (
            (workspace.prev[v], workspace.to_mask[u]),
            (workspace.post[v], workspace.from_mask[u]),
        ):
            for w in neighbors:
                if w != v and w in H:
                    H[w][1] |= H[w][0] & ~row
                    H[w][0] &= row
        # Lines 5-11.
        sigma1, iset1 = solve({w: [g, 0] for w, (g, _) in H.items() if g}, branch_cap)
        sigma2, iset2 = solve({w: [m, 0] for w, (_, m) in H.items() if m}, cap)
        # Line 12.
        with_pick = sigma1 + [(v, u)]
        sigma = with_pick if len(with_pick) >= len(sigma2) else sigma2
        iset2_plus = iset2 + [(v, u)]
        iset = iset1 if len(iset1) > len(iset2_plus) else iset2_plus
        return sigma, iset

    return solve({v: [mask, 0] for v, mask in top_good.items() if mask}, capacities)
