"""The greedy matching engine: procedures greedyMatch and trimMatching.

This is a faithful implementation of Figures 3 and 4 of the paper, with the
data layout of :class:`~repro.core.workspace.MatchingWorkspace`:

* the matching list ``H`` maps a pattern-node index to the pair
  ``[good, minus]`` of candidate bitmasks over data-node indices;
* ``trimMatching(v, u, ...)`` prunes, for every parent ``v'`` of ``v``,
  the candidates ``u'`` with no path ``u' ⇝ u`` (one AND with
  ``to_mask[u]``), and for every child the candidates not reachable from
  ``u`` (one AND with ``from_mask[u]``);
* ``greedyMatch`` picks the node with the largest ``good`` list, its best
  candidate ``u``, recursively solves the sub-lists ``H⁺`` (consistent
  with (v, u)) and ``H⁻`` (conflicting with (v, u)), and keeps the larger
  of σ₁ ∪ {(v,u)} and σ₂ — returning also the larger of the two pairwise
  contradictory sets I₁ and I₂ ∪ {(v,u)}.

The recursion is a direct transcription of the Ramsey procedure onto the
*implicit* product graph (Proposition 5.2): ``H⁺`` plays the neighbors of
the product node [v, u], ``H⁻`` its non-neighbors, σ the clique and I the
independent set.  It is executed on an explicit stack because its depth is
bounded only by the number of candidate pairs.

The 1-1 variant is the paper's "extra step": once (v, u) is chosen, ``u``
moves from every other node's ``good`` to its ``minus``.  The engine
generalises this to integer *capacities* (a data node may absorb up to
``capacity[u]`` pattern nodes), which is what the Appendix-B SCC
compression needs — a compressed clique node can host as many pattern
nodes as it has members.  Plain 1-1 is the all-ones capacity, implemented
without materialising the capacity map.

Since the backend split, the engine owns only the *recursion* — pick
order, capacity bookkeeping, the σ/I combination rule — while every
mask-touching operation (popcount scans, bit picks, trims, the
``H⁺``/``H⁻`` partition) lives behind a
:class:`~repro.core.backends.base.SolverBackend`.  ``backend=`` selects
it per call; by default the workspace's backend (in turn ``REPRO_BACKEND``
or the big-int reference implementation) is used, and every backend is
bit-identical by contract, so the choice changes speed, never results.

A list whose subtree has a known answer never becomes a frame.  An empty
list (the root, ``H⁺`` or ``H⁻``) contributes ``([], [])`` directly, and
a single-row list closes in one step through
:meth:`~repro.core.backends.base.MatchingList.solve_trivial` — on every
backend, via the shared closed form
:func:`~repro.core.backends.python_int.solve_trivial_entries`.  Both
shortcuts are exact: σ and I equal the frame-by-frame recursion's.  On
a warm label-gated request over 1600 data nodes they cut ~970 frames to
~225.
"""

from __future__ import annotations

from repro.core.backends import SolverBackend, get_backend
from repro.core.backends.bitops import clear_bit
from repro.core.workspace import MatchingWorkspace

__all__ = ["greedy_match", "comp_max_card_engine"]

# Frame layout for the explicit recursion stack.
_PHASE, _H, _CAP, _V, _U, _HMINUS, _SIGMA1, _I1 = range(8)
_PICK, _LEFT_DONE, _RIGHT_DONE = 0, 1, 2

Pair = tuple[int, int]


def _new_frame(H, cap: dict[int, int] | None) -> list:
    return [_PICK, H, cap, -1, -1, None, None, None]


#: Candidate pick rules for greedyMatch's line 2.  The paper picks "a node
#: v of H and a node u from H[v].good" — any candidate.  ``"arbitrary"``
#: reproduces that (first candidate in index order); ``"similarity"`` is
#: this implementation's enhancement: prefer the highest-mat() candidate,
#: which markedly improves accuracy on workloads with a planted match
#: (measured in EXPERIMENTS.md).
PICK_RULES = ("similarity", "arbitrary")


def greedy_match(
    workspace: MatchingWorkspace,
    top_good: dict[int, int],
    injective: bool = False,
    capacities: dict[int, int] | None = None,
    pick: str = "similarity",
    backend: "str | SolverBackend | None" = None,
) -> tuple[list[Pair], list[Pair]]:
    """Procedure greedyMatch (paper Fig. 4) over an indexed matching list.

    ``top_good`` maps pattern-node index to candidate bitmask (a plain
    Python int — the backend-neutral currency).  Returns
    ``(sigma, iset)``: a p-hom mapping for a subgraph of ``G1[H]`` and a
    nonempty (for nonempty input) set of pairwise contradictory pairs.
    ``backend`` overrides the workspace's solver backend for this call.
    """
    if pick not in PICK_RULES:
        raise ValueError(f"unknown pick rule {pick!r}; choose one of {PICK_RULES}")
    engine_backend = workspace.backend if backend is None else get_backend(backend)
    by_similarity = pick == "similarity"
    context = workspace.engine_context(engine_backend)
    pref = workspace.pref
    stack: list[list] = []
    results: list[tuple[list[Pair], list[Pair]]] = []

    def descend(H, cap: dict[int, int] | None) -> None:
        # Push a frame for H only when its subtree has no closed form.
        if H.is_empty():
            results.append(([], []))
            return
        trivial = H.solve_trivial(by_similarity)
        if trivial is not None:
            results.append(trivial)
        else:
            stack.append(_new_frame(H, cap))

    descend(engine_backend.matching_list(top_good, context), capacities)
    while stack:
        frame = stack[-1]
        phase = frame[_PHASE]
        if phase == _PICK:
            H = frame[_H]
            # Line 2: pick the node with the maximal good list (deterministic
            # tie-break on the smaller index), then its best-scoring candidate.
            v = H.pick_node()
            u = H.pick_candidate(v, pref[v] if by_similarity else None)
            frame[_V], frame[_U] = v, u

            # Line 3: v keeps no further good candidates; the rejected ones
            # become its minus list.
            H.settle(v, u)

            # 1-1 extra step / capacity bookkeeping: when u's capacity is
            # exhausted by this pick, u leaves every other good list.
            cap = frame[_CAP]
            branch_cap = cap
            if injective and cap is None:
                exhausted = True
            elif cap is not None:
                branch_cap = dict(cap)
                branch_cap[u] = cap.get(u, 1) - 1
                exhausted = branch_cap[u] <= 0
            else:
                exhausted = False
            if exhausted:
                H.exhaust(u, v)

            # Line 4: trimMatching — prune parents to nodes that reach u and
            # children to nodes reachable from u.
            H.trim(v, u)

            # Lines 5-9: partition into H+ (nonempty good) and H- (nonempty
            # minus); a node may appear in both.
            h_plus, h_minus = H.partition()
            frame[_H] = None  # allow the partitioned list to be collected
            frame[_HMINUS] = h_minus
            frame[_PHASE] = _LEFT_DONE
            descend(h_plus, branch_cap)
        elif phase == _LEFT_DONE:
            frame[_SIGMA1], frame[_I1] = results.pop()
            frame[_PHASE] = _RIGHT_DONE
            # H- explores the world where (v, u) is *not* chosen, so it
            # inherits the un-decremented capacities.
            descend(frame[_HMINUS], frame[_CAP])
            frame[_HMINUS] = None
        else:  # _RIGHT_DONE — line 12: combine the two branches.
            sigma2, iset2 = results.pop()
            sigma1, iset1 = frame[_SIGMA1], frame[_I1]
            chosen = (frame[_V], frame[_U])
            with_pick = sigma1 + [chosen]
            sigma = with_pick if len(with_pick) >= len(sigma2) else sigma2
            iset2_plus = iset2 + [chosen]
            iset = iset1 if len(iset1) > len(iset2_plus) else iset2_plus
            results.append((sigma, iset))
            stack.pop()
    return results.pop()


def comp_max_card_engine(
    workspace: MatchingWorkspace,
    initial_good: dict[int, int],
    injective: bool = False,
    capacities: dict[int, int] | None = None,
    pick: str = "similarity",
    backend: "str | SolverBackend | None" = None,
) -> tuple[list[Pair], dict]:
    """Algorithm compMaxCard's outer loop (paper Fig. 3, lines 8-12).

    Repeatedly runs greedyMatch, removes the returned contradictory pairs I
    from the matching list, and keeps the largest mapping, until the list
    cannot beat the incumbent (``sizeof(H) ≤ sizeof(σ_m)``).  The outer
    list stays in backend-neutral big-int masks; ``backend`` selects the
    solver representation used inside each greedyMatch run.

    Returns ``(pairs, stats)`` with the mapping as index pairs; stats
    record which backend solved.
    """
    engine_backend = workspace.backend if backend is None else get_backend(backend)
    h_top = {v: mask for v, mask in initial_good.items() if mask}
    sigma_m: list[Pair] = []
    rounds = 0
    removed = 0
    while len(h_top) > len(sigma_m):
        rounds += 1
        sigma, iset = greedy_match(
            workspace, h_top, injective, capacities, pick, backend=engine_backend
        )
        for v, u in iset:
            mask = h_top.get(v)
            if mask is None:
                continue
            mask = clear_bit(mask, u)
            removed += 1
            if mask:
                h_top[v] = mask
            else:
                del h_top[v]
        if len(sigma) > len(sigma_m):
            sigma_m = sigma
        if not iset:
            break  # defensive: greedyMatch guarantees nonempty I on nonempty H
    stats = {
        "rounds": rounds,
        "pairs_removed": removed,
        "backend": engine_backend.name,
    }
    return sigma_m, stats
