"""Heuristic optimal-contraction-path search.

Best-first dynamic programming over partial absorption paths: states live in
a priority queue keyed by accumulated cost, each qubit subset is finalized
once at its cheapest score, and candidate extensions are filtered by a rank
cap and an almost-connected rule read off each state's open edges: a
neighbour of the path joins it, and while none waits, a qubit one step
beyond may wait for the next qubit to join it to the rest.  A qubit further
out could never be joined, so its state is never pushed.  With no rank cap
and that rule off (tests patch ``_next_qubits`` to yield every qubit off the
path) the search is exact (optimal substructure of the path score).

Scores are plain Python integers, so accumulation never overflows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from math import prod
from typing import Iterable, Iterator

__all__ = [
    "NetworkShape",
    "PathSearchError",
    "find_optimal_path",
    "treewidth_bound",
]

Edge = tuple[int, int]


class PathSearchError(RuntimeError):
    """Raised when no full contraction path satisfies the constraints."""


@dataclass(frozen=True)
class NetworkShape:
    """Symbolic view of a closed tensor network: nodes plus edge extents,
    with each node's incident edges and neighbours built once."""

    nodes: tuple[int, ...]
    edges: dict[Edge, int]
    _legs: dict[int, frozenset[Edge]] = field(init=False, repr=False, compare=False)
    _adj: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        legs: dict[int, set[Edge]] = {q: set() for q in self.nodes}
        for e in self.edges:
            legs[e[0]].add(e)
            legs[e[1]].add(e)
        object.__setattr__(self, "_legs", {q: frozenset(v) for q, v in legs.items()})
        adj = {q: frozenset(l if k == q else k for k, l in v) for q, v in legs.items()}
        object.__setattr__(self, "_adj", adj)

    def adjacency(self) -> dict[int, frozenset[int]]:
        return self._adj

    def open_edges(self, nodes: Iterable[int]) -> frozenset[Edge]:
        """Edges with one endpoint among the distinct ``nodes``: the symmetric
        difference of their incident edges, in which inner edges cancel."""
        out: frozenset[Edge] = frozenset()
        for q in nodes:
            out ^= self._legs[q]
        return out

    def boundary(self) -> set[int]:
        dmax = max((len(v) for v in self._adj.values()), default=0)
        b = {q for q, v in self._adj.items() if len(v) < dmax}
        return b if b else set(self.nodes)


def _next_qubits(
    shape: NetworkShape, members: frozenset[int], c: int, open_edges: frozenset[Edge]
) -> Iterator[tuple[int, int]]:
    """The qubits the almost-connected rule lets follow ``members``
    (connectivity flag ``c``: -1, or the qubit waiting apart), each with
    its flag after it.  A qubit at the far end of an open edge joins; while
    none waits, one a step beyond may wait, and a waiting qubit takes only
    its neighbours that touch the rest of the path.  A qubit further out
    has no such neighbour: its state could never finish.
    """
    adj = shape._adj
    if c != -1:
        rest = members - {c}
        return ((q, -1) for q in adj[c] if not adj[q].isdisjoint(rest))
    near = {l if k in members else k for k, l in open_edges}
    beyond = set().union(*(adj[q] for q in near)) - near - members
    return chain(((q, -1) for q in near), ((q, q) for q in beyond))


def _candidates(
    shape: NetworkShape,
    members: frozenset[int],
    c: int,
    open_edges: frozenset[Edge],
    max_rank: int | None,
) -> Iterator[tuple[int, int, int, frozenset[Edge]]]:
    """Admissible next qubits after ``members`` (flag ``c``), as ``(qubit,
    step cost, flag after it, open edges after it)``: allowed by the
    almost-connected rule (``_next_qubits``) and leaving at most ``max_rank`` extent > 1 open edges.
    A step costs the product of extents over both operands' open edges.
    """
    ext = shape.edges
    rank = sum(1 for e in open_edges if ext[e] > 1)
    width = prod(ext[e] for e in open_edges)
    for q, nc in _next_qubits(shape, members, c, open_edges):
        legs = shape._legs[q]
        grow = sum(-1 if e in open_edges else 1 for e in legs if ext[e] > 1)
        if max_rank is None or rank + grow <= max_rank:
            cost = width * prod(ext[e] for e in legs if e not in open_edges)
            yield q, cost, nc, open_edges ^ legs


def treewidth_bound(shape: NetworkShape) -> int:
    """Greedy min-degree elimination upper bound on the graph treewidth."""
    adj = {q: set(v) for q, v in shape.adjacency().items()}
    width = 0
    while adj:
        q = min(adj, key=lambda x: (len(adj[x]), x))
        nbs = adj.pop(q)
        width = max(width, len(nbs))
        for a in nbs:
            adj[a].discard(q)
            adj[a].update(nbs - {a})
    return width


def find_optimal_path(
    shape: NetworkShape,
    max_rank: int | None = None,
    max_states: int | None = None,
) -> tuple[list[int], int]:
    """Best-first search for a cheap full contraction path.

    Seeds every boundary node within the rank cap (the first node is the
    first intermediate), pops the least-score partial path, finalizes
    its qubit subset once, and pushes all admissible one-qubit extensions.
    The first full path popped is returned.  Ties break on (score, longer
    path first, lexicographic path) for deterministic runs.
    """
    n = len(shape.nodes)
    if n == 0:
        raise PathSearchError("empty network")

    heap: list[tuple[int, int, tuple[int, ...], int, frozenset[Edge]]] = []
    for q in sorted(shape.boundary()):
        legs = shape._legs[q]
        if max_rank is None or sum(1 for e in legs if shape.edges[e] > 1) <= max_rank:
            heapq.heappush(heap, (0, -1, (q,), -1, legs))
    visited: set[frozenset[int]] = set()
    largest = 0
    pushed = len(heap)

    while heap:
        score, _, path, c, open_edges = heapq.heappop(heap)
        members = frozenset(path)
        if members in visited:
            continue
        visited.add(members)
        largest = max(largest, len(path))
        if len(path) == n:
            return list(path), score
        for q, cost, nc, after in _candidates(shape, members, c, open_edges, max_rank):
            heapq.heappush(heap, (score + cost, -(len(path) + 1), path + (q,), nc, after))
            pushed += 1
            if max_states is not None and pushed > max_states:
                raise PathSearchError(f"search exceeded state budget {max_states}")
    raise PathSearchError(
        f"no full contraction path found; largest subset reached has "
        f"{largest} of {n} qubits (rank cap too small?)"
    )
