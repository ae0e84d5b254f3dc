"""The reference backend: candidate masks as Python arbitrary-precision ints.

This is the seed implementation's representation, extracted verbatim from
the engine's inner loops: a matching list is a ``dict`` from pattern-node
index to a ``[good, minus]`` pair of big-int bitmasks, and every
operation is the exact expression the pre-backend engine inlined.  It is
the semantic reference every other backend must match bit-for-bit, and
the default (``REPRO_BACKEND=python``).

The dict operations live as module-level ``*_entries`` functions because
they are the *shared semantics*, not just this backend's: the numpy
backend delegates to them for its small-list mode, so a future fix here
fixes every backend's dict regime at once (bit-identity by construction,
not by parallel maintenance).

**Trivial chains** — a single-row list ``{v: mask}`` cannot trim or
exhaust anything (both operations only touch *other* rows), so its
entire recursion subtree has a closed form: ``σ = [(v, u₁)]`` and
``I = [(v, u_c), …, (v, u₁)]`` where ``u₁ … u_c`` is the pick sequence
(preferred candidates in preference order, then the remaining bits
ascending — exactly what re-running line 2 per frame yields).
``solve_trivial_entries`` returns that in one step instead of one frame
per candidate bit; capacities are irrelevant on the way (nothing else
is left to exhaust).  Every backend answers ``solve_trivial`` through
it.

Big ints are a surprisingly strong baseline — CPython's ``int.bit_count``
and bitwise ops run in C over 30-bit limbs — but every engine loop over
the matching list (the popcount scan of line 2, the capacity sweep, the
``H⁺``/``H⁻`` partition) steps through a Python-level dict.  The numpy
backend exists to collapse those per-row loops into whole-matrix kernels.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.backends.base import MatchingList, SolverBackend

__all__ = [
    "PythonIntBackend",
    "PythonMatchingList",
    "pick_node_entries",
    "pick_candidate_entries",
    "settle_entries",
    "exhaust_entries",
    "trim_entries",
    "partition_entries",
    "solve_trivial_entries",
]

Entries = dict[int, list[int]]


# ----------------------------------------------------------------------
# The reference dict-of-big-ints operations (shared across backends)
# ----------------------------------------------------------------------
def pick_node_entries(entries: Entries) -> int:
    """Maximal good list, deterministic tie-break on the smaller index."""
    v = -1
    best_count = 0
    for cand_v, masks in entries.items():
        count = masks[0].bit_count()
        if count > best_count or (count == best_count and cand_v < v):
            v, best_count = cand_v, count
    return v


def pick_candidate_entries(entries: Entries, v: int, pref: Sequence[int] | None) -> int:
    good_v = entries[v][0]
    if pref is not None:
        for cand_u in pref:
            if good_v >> cand_u & 1:
                return cand_u
    # Arbitrary pick, or a good bit with no similarity row — callers of
    # comp_max_card_engine may seed candidates beyond the workspace's
    # mat ≥ ξ pairs (restricted or partitioned groups), so the
    # preference scan can come up empty on a nonempty mask.
    return (good_v & -good_v).bit_length() - 1  # lowest set bit


def settle_entries(entries: Entries, v: int, u: int) -> None:
    masks = entries[v]
    good_v = masks[0]
    masks[0] = 0
    masks[1] = good_v & ~(1 << u)


def exhaust_entries(entries: Entries, u: int, v: int) -> None:
    u_bit = 1 << u
    for other_v, masks in entries.items():
        if other_v != v and masks[0] >> u & 1:
            masks[0] &= ~u_bit
            masks[1] |= u_bit


def trim_entries(entries: Entries, neighbors: Sequence[int], v: int, mask: int) -> None:
    """One trimMatching side: AND ``v``'s present neighbors with ``mask``."""
    for neighbor in neighbors:
        masks = entries.get(neighbor)
        if masks is not None and neighbor != v:
            bad = masks[0] & ~mask
            if bad:
                masks[0] &= mask
                masks[1] |= bad


def partition_entries(entries: Entries) -> tuple[Entries, Entries]:
    h_plus: Entries = {}
    h_minus: Entries = {}
    for node, (good, minus) in entries.items():
        if good:
            h_plus[node] = [good, 0]
        if minus:
            h_minus[node] = [minus, 0]
    return h_plus, h_minus


def solve_trivial_entries(
    entries: Entries, pref: Sequence[Sequence[int]] | None
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """Closed-form ``(sigma, iset)`` of a single-row list's recursion
    subtree, else ``None``.  ``pref`` is the per-node preference table
    (``None`` for the arbitrary pick rule)."""
    if len(entries) != 1:
        return None
    ((v, masks),) = entries.items()
    rest = masks[0]
    picks = []
    if pref is not None:
        # Re-picking per frame never reorders survivors, so one walk of
        # the preference row reproduces the stepwise pick order.
        for u in pref[v]:
            if rest >> u & 1:
                picks.append(u)
                rest ^= 1 << u
                if not rest:
                    break
    while rest:  # un-ranked (or arbitrary-rule) bits: lowest first
        low = rest & -rest
        picks.append(low.bit_length() - 1)
        rest ^= low
    return [(v, picks[0])], [(v, u) for u in reversed(picks)]


class _PythonContext:
    """Engine context: plain references into the workspace's tables."""

    __slots__ = ("from_rows", "to_rows", "prev", "post", "pref")

    def __init__(
        self,
        from_rows: Sequence[int],
        to_rows: Sequence[int],
        prev: Sequence[Sequence[int]],
        post: Sequence[Sequence[int]],
        pref: Sequence[Sequence[int]],
    ) -> None:
        self.from_rows = from_rows
        self.to_rows = to_rows
        self.prev = prev
        self.post = post
        self.pref = pref


class PythonMatchingList(MatchingList):
    """``H`` as ``{v: [good_int, minus_int]}`` — today's exact semantics."""

    __slots__ = ("entries", "ctx")

    def __init__(self, entries: Entries, ctx: _PythonContext) -> None:
        self.entries = entries
        self.ctx = ctx

    def is_empty(self) -> bool:
        return not self.entries

    def solve_trivial(self, by_similarity: bool):
        return solve_trivial_entries(
            self.entries, self.ctx.pref if by_similarity else None
        )

    def pick_node(self) -> int:
        return pick_node_entries(self.entries)

    def pick_candidate(self, v: int, pref: Sequence[int] | None) -> int:
        return pick_candidate_entries(self.entries, v, pref)

    def settle(self, v: int, u: int) -> None:
        settle_entries(self.entries, v, u)

    def exhaust(self, u: int, v: int) -> None:
        exhaust_entries(self.entries, u, v)

    def trim(self, v: int, u: int) -> None:
        ctx = self.ctx
        trim_entries(self.entries, ctx.prev[v], v, ctx.to_rows[u])
        trim_entries(self.entries, ctx.post[v], v, ctx.from_rows[u])

    def partition(self) -> tuple["PythonMatchingList", "PythonMatchingList"]:
        h_plus, h_minus = partition_entries(self.entries)
        return (
            PythonMatchingList(h_plus, self.ctx),
            PythonMatchingList(h_minus, self.ctx),
        )

    def to_masks(self) -> dict[int, tuple[int, int]]:
        return {v: (masks[0], masks[1]) for v, masks in self.entries.items()}


class PythonIntBackend(SolverBackend):
    """Today's semantics on Python big ints; the default backend."""

    name = "python"

    def build_rows(
        self, from_mask: Sequence[int], to_mask: Sequence[int], num_bits: int
    ) -> tuple[Sequence[int], Sequence[int]]:
        # Big ints *are* the native layout: share the rows by reference.
        return (from_mask, to_mask)

    def evolve_rows(
        self,
        rows: tuple[Sequence[int], Sequence[int]],
        from_mask: Sequence[int],
        to_mask: Sequence[int],
        num_bits: int,
        dirty: Sequence[int],
    ) -> tuple[Sequence[int], Sequence[int]]:
        # The evolved big-int lists are already the native layout.
        return (from_mask, to_mask)

    def build_context(self, workspace) -> _PythonContext:
        return _PythonContext(
            workspace.from_mask,
            workspace.to_mask,
            workspace.prev,
            workspace.post,
            workspace.pref,
        )

    def matching_list(
        self, top_good: dict[int, int], context: _PythonContext
    ) -> PythonMatchingList:
        return PythonMatchingList(
            {v: [mask, 0] for v, mask in top_good.items() if mask}, context
        )
