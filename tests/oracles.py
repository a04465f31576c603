"""Test-only references for the path search and the TNS invariants.

The costs here are read off the shape's edge list, not through the search's
own step pricing, so agreement with ``find_optimal_path`` is evidence.
"""

import heapq
from dataclasses import dataclass, field
from math import prod
from typing import Sequence
from unittest import mock

from tnsim import pathfind
from tnsim.circuit import Edge
from tnsim.pathfind import NetworkShape
from tnsim.tensor import Tensor
from tnsim.tns import PHYS, TNSState

EXHAUSTIVE_NODE_CAP = 10


def score_increment(path: Sequence[int], next_qubit: int, shape: NetworkShape) -> int:
    """Cost(C^{path}, C^{next_qubit}): the product of extents over the edges
    that leave the path or touch ``next_qubit``."""
    if next_qubit in path:
        raise ValueError(f"qubit {next_qubit} already on the path")
    members = set(path)
    return prod(
        ext
        for (k, l), ext in shape.edges.items()
        if (k in members) != (l in members) or next_qubit in (k, l)
    )


def boundary_rank(shape: NetworkShape, members: set[int]) -> int:
    """Rank of the intermediate over ``members``: its open edges of extent
    > 1."""
    return sum(
        1
        for (k, l), ext in shape.edges.items()
        if ext > 1 and (k in members) != (l in members)
    )


def connectivity(path: Sequence[int], shape: NetworkShape) -> int:
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


def exhaustive_path_oracle(shape: NetworkShape) -> tuple[list[int], int]:
    """Global minimum score over all N! absorption orders; ties go to the
    lexicographically first path."""
    nodes = sorted(shape.nodes)
    n = len(nodes)
    if n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(f"{n} nodes exceeds exhaustive cap {EXHAUSTIVE_NODE_CAP}")
    best_path: list[int] | None = None
    best_score: int | None = None

    def dfs(path: list[int], score: int) -> None:
        nonlocal best_path, best_score
        if len(path) == n:
            if best_score is None or score < best_score:
                best_score, best_path = score, list(path)
            return
        if best_score is not None and score >= best_score:
            return  # extension costs are non-negative
        for q in nodes:
            if q in path:
                continue
            cost = score_increment(path, q, shape) if path else 0
            dfs(path + [q], score + cost)

    dfs([], 0)
    assert best_path is not None and best_score is not None
    return best_path, best_score


def unpruned():
    """Context in which ``find_optimal_path`` and ``_candidates`` skip the
    almost-connected rule: every qubit not on the path is a candidate and
    keeps the path marked connected.  With no rank cap the search is then
    exact."""
    return mock.patch.object(
        pathfind, "_next_qubits",
        lambda shape, members, c, open_edges: (
            (q, -1) for q in shape.nodes if q not in members
        ),
    )


def reference_path_search(
    shape: NetworkShape, max_rank: int | None = None
) -> tuple[list[int], int]:
    """The search with the almost-connected rule tested on every qubit off
    the path for every popped state: best-first over partial paths, each
    qubit subset finalized once, ties broken on (score, longer path first,
    lexicographic path).  A qubit may join when it touches the path, or wait
    apart from it when none waits; a waiting qubit must be joined to the
    rest by the next qubit.  Raises ``PathSearchError`` where no path is
    within ``max_rank``."""
    adj = shape.adjacency()
    heap = [(0, -1, (q,), -1) for q in sorted(shape.boundary())
            if max_rank is None or boundary_rank(shape, {q}) <= max_rank]
    heapq.heapify(heap)
    visited: set[frozenset[int]] = set()
    while heap:
        score, _, path, waiting = heapq.heappop(heap)
        members = frozenset(path)
        if members in visited:
            continue
        visited.add(members)
        if len(path) == len(shape.nodes):
            return list(path), score
        rest = members - {waiting}
        for q in shape.nodes:
            if q in members:
                continue
            touches = bool(adj[q] & rest)
            if waiting == -1:
                flag = -1 if touches else q
            elif touches and waiting in adj[q]:
                flag = -1
            else:
                continue
            if max_rank is not None and boundary_rank(shape, members | {q}) > max_rank:
                continue
            step = score + score_increment(path, q, shape)
            heapq.heappush(heap, (step, -len(path) - 1, path + (q,), flag))
    raise pathfind.PathSearchError("no full contraction path")


def check_invariants(state: TNSState) -> None:
    """Each node is labelled ``(PHYS, *its edges)`` with physical extent 2,
    and both endpoints of every edge agree on its extent."""
    for q, t in state.tensors.items():
        assert t.labels == (PHYS, *state.graph.node_edges(q)) and t.dims[0] == 2
    for e in state.graph.edges:
        ta, tb = (state.tensors[q] for q in e)
        assert ta.dims[ta.axis(e)] == tb.dims[tb.axis(e)]


@dataclass
class TensorNetwork:
    """Closed network of hand-built nodes, one per qubit, axes labelled by
    graph edges: the compiler's and the executor's input when no states
    stand behind it.

    ``edges`` maps each label to its extent and is derived from the tensors;
    every label must sit on exactly two tensors with equal extents.
    """

    tensors: dict[int, Tensor]
    edges: dict[Edge, int] = field(init=False)

    def __post_init__(self) -> None:
        seen: dict[Edge, list[int]] = {}
        for t in self.tensors.values():
            for lab, ext in zip(t.labels, t.dims):
                seen.setdefault(lab, []).append(ext)
        for lab, exts in seen.items():
            if len(exts) != 2:
                raise ValueError(f"edge {lab!r} on {len(exts)} tensors, expected 2")
            if exts[0] != exts[1]:
                raise ValueError(f"edge {lab!r} extents {exts[0]} != {exts[1]}")
        self.edges = {lab: exts[0] for lab, exts in seen.items()}

    def node(self, q: int, labels: tuple[Edge, ...]) -> Tensor:
        """Node ``q`` with its axes in the order ``labels``: the tensor
        itself when they already are, else a transposed copy."""
        t = self.tensors[q]
        if t.labels == labels:
            return t
        return Tensor(t.data.transpose([t.axis(lab) for lab in labels]), labels)


def network_shape(net: TensorNetwork) -> NetworkShape:
    return NetworkShape(tuple(sorted(net.tensors)), dict(net.edges))
