"""Heuristic optimal-contraction-path search.

Best-first dynamic programming over partial absorption paths: states live in
a priority queue keyed by accumulated cost, each qubit subset is finalized
once at its cheapest score, and candidate extensions are filtered by a rank
cap and an almost-connected rule.  With all pruning disabled the search is
exact (optimal substructure of the path score).

Scores are plain Python integers, so accumulation never overflows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "NetworkShape",
    "PathSearchError",
    "find_optimal_path",
    "exhaustive_path_oracle",
    "treewidth_bound",
]

Edge = tuple[int, int]

EXHAUSTIVE_NODE_CAP = 10


class PathSearchError(RuntimeError):
    """Raised when no full contraction path satisfies the constraints."""

    def __init__(self, message: str, largest_subset: int = 0):
        super().__init__(message)
        self.largest_subset = largest_subset


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

    @classmethod
    def from_network(cls, net) -> "NetworkShape":
        return cls(tuple(sorted(net.tensors)), dict(net.edges))

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


def _step(
    shape: NetworkShape, open_edges: frozenset[Edge], q: int
) -> tuple[int, int]:
    """Cost of absorbing node ``q`` into an intermediate with ``open_edges``
    (product of extents over both operands' open edges), plus the rank
    (extent > 1 edges) of the result, whose open edges are the operands'
    symmetric difference."""
    legs = shape._legs[q]
    ext = shape.edges
    cost = prod(ext[e] for e in open_edges | legs)
    rank = sum(1 for e in open_edges ^ legs if ext[e] > 1)
    return cost, rank


def _score_increment(path: Sequence[int], next_qubit: int, shape: NetworkShape) -> int:
    """Cost(C^{path}, C^{next_qubit}) from frontier extents only."""
    if next_qubit in path:
        raise ValueError(f"qubit {next_qubit} already on the path")
    cost, _ = _step(shape, shape.open_edges(path), next_qubit)
    return cost


def _connectivity(path: Sequence[int], shape: NetworkShape) -> int:
    """-1 if the path's induced subgraph is connected, else the single
    isolated qubit's index.  Two or more isolated components are invalid."""
    if not path:
        raise ValueError("empty path")
    adj = shape.adjacency()
    members = set(path)
    comps: list[set[int]] = []
    seen: set[int] = set()
    for q in path:
        if q in seen:
            continue
        comp = {q}
        stack = [q]
        while stack:
            for nb in adj[stack.pop()] & members:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        comps.append(comp)
    if len(comps) == 1:
        return -1
    singletons = [c for c in comps if len(c) == 1]
    if len(comps) == 2 and singletons:
        # the isolated qubit is the most recently added singleton
        for q in reversed(path):
            if {q} in singletons:
                return q
    raise ValueError(f"path {list(path)} has more than one isolated component")


def _extend_c(
    adj: Mapping[int, frozenset[int]], members: frozenset[int], c: int, q: int
) -> int | None:
    """Connectivity flag after adding ``q``; None when the extension is
    forbidden by the almost-connected rule."""
    touches_main = bool(adj[q] & (members - ({c} if c != -1 else set())))
    if c == -1:
        return -1 if (touches_main or not members) else q
    # one isolated qubit pending: q must reconnect everything
    if touches_main and c in adj[q]:
        return -1
    return None


def _candidates(
    shape: NetworkShape,
    members: frozenset[int],
    c: int,
    max_rank: int | None,
    connectivity_pruning: bool,
) -> Iterator[tuple[int, int, int]]:
    """Admissible next qubits after ``members`` (connectivity flag ``c``),
    in node order, as ``(qubit, step cost, connectivity flag after it)``.

    A candidate must keep the path almost connected (when pruning) and leave
    an intermediate of rank at most ``max_rank``.
    """
    adj = shape.adjacency()
    open_edges = shape.open_edges(members)
    for q in shape.nodes:
        if q in members:
            continue
        if connectivity_pruning:
            nc = _extend_c(adj, members, c, q)
            if nc is None:
                continue
        else:
            nc = -1
        cost, rank = _step(shape, open_edges, q)
        if max_rank is not None and rank > max_rank:
            continue
        yield q, cost, nc


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
    connectivity_pruning: bool = True,
    max_states: int | None = None,
) -> tuple[list[int], int]:
    """Best-first search for a cheap full contraction path.

    Seeds every boundary node, pops the least-score partial path, finalizes
    its qubit subset once, and pushes all admissible one-qubit extensions.
    The first full path popped is returned.  Ties break on (score, longer
    path first, lexicographic path) for deterministic runs.
    """
    n = len(shape.nodes)
    if n == 0:
        raise PathSearchError("empty network")

    heap: list[tuple[int, int, tuple[int, ...], int]] = []
    for q in sorted(shape.boundary()):
        heapq.heappush(heap, (0, -1, (q,), -1))
    visited: set[frozenset[int]] = set()
    largest = 0
    pushed = len(heap)

    while heap:
        score, _, path, c = heapq.heappop(heap)
        members = frozenset(path)
        if members in visited:
            continue
        visited.add(members)
        largest = max(largest, len(path))
        if len(path) == n:
            return list(path), score
        for q, cost, nc in _candidates(
            shape, members, c, max_rank, connectivity_pruning
        ):
            heapq.heappush(heap, (score + cost, -(len(path) + 1), path + (q,), nc))
            pushed += 1
            if max_states is not None and pushed > max_states:
                raise PathSearchError(
                    f"search exceeded state budget {max_states}", largest
                )
    raise PathSearchError(
        f"no full contraction path found; largest subset reached has "
        f"{largest} of {n} qubits (rank cap too small?)",
        largest,
    )


def exhaustive_path_oracle(shape: NetworkShape) -> tuple[list[int], int]:
    """Global minimum score over all N! absorption orders (test support)."""
    nodes = sorted(shape.nodes)
    n = len(nodes)
    if n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(f"{n} nodes exceeds exhaustive cap {EXHAUSTIVE_NODE_CAP}")
    best_path: list[int] | None = None
    best_score: int | None = None

    def dfs(path: list[int], members: frozenset[int], score: int) -> None:
        nonlocal best_path, best_score
        if len(path) == n:
            if best_score is None or score < best_score:
                best_score, best_path = score, list(path)
            return
        if best_score is not None and score >= best_score:
            return  # extension costs are non-negative
        open_edges = shape.open_edges(members)
        for q in nodes:
            if q in members:
                continue
            cost = _step(shape, open_edges, q)[0] if members else 0
            dfs(path + [q], members | {q}, score + cost)

    dfs([], frozenset(), 0)
    assert best_path is not None and best_score is not None
    return best_path, best_score
