"""Closed overlap network, cut slicing and amplitude contraction.

The overlap of the bra and ket tensor network states is a closed network on
the circuit graph: per qubit, the physical axes are contracted and each pair
of parallel bonds (one from each state) merges into a single network edge of
product extent.  Cuts fix selected edges to each of their values, splitting
the network into independent slice networks whose scalars sum to the uncut
contraction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import prod
from operator import xor
from typing import Iterator

import numpy as np

from .circuit import Circuit, Edge, fuse_single_qubit_gates
from .pathfind import (
    NetworkShape,
    PathSearchError,
    find_optimal_path,
    treewidth_bound,
)
from .tensor import Tensor, contract_pair, contraction_cost
from .tns import TNSState, two_sided_evolve

__all__ = [
    "TensorNetwork",
    "CutPlan",
    "CutPlanError",
    "build_overlap_network",
    "overlap_network",
    "plan_cuts",
    "slice_network",
    "contract_along_path",
    "compute_amplitude",
]


class CutPlanError(RuntimeError):
    """Raised when no cut plan satisfies the rank cap."""


@dataclass
class TensorNetwork:
    """Closed network: one tensor per qubit, axes labelled by graph edges.

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


@dataclass(frozen=True)
class CutPlan:
    """Distinct edges to slice, their extents, and the contraction path that
    the planner validated for every slice with its per-slice score."""

    cut_edges: tuple[Edge, ...]
    extents: tuple[int, ...]
    path: tuple[int, ...]
    score: int

    @property
    def slice_count(self) -> int:
        return prod(self.extents) if self.extents else 1


def build_overlap_network(phi: TNSState, psi: TNSState) -> TensorNetwork:
    """Per-node physical contraction of bra and ket into a closed network.

    psi is a ket; its tensors enter conjugated, so contracting the result
    yields <psi|phi>.  Parallel bonds merge into one edge of product extent
    (phi index major, psi index minor on both endpoints).
    """
    if phi.graph != psi.graph:
        raise ValueError("overlap requires identical graphs")
    graph = phi.graph
    tensors: dict[int, Tensor] = {}
    for q in range(graph.num_qubits):
        a, b = phi.tensors[q], psi.tensors[q]
        node_edges = graph.node_edges(q)
        t = np.tensordot(a.data, b.data.conj(), axes=([0], [0]))
        # axes: phi aux then psi aux, both in node_edges order; interleave
        deg = len(node_edges)
        t = t.transpose([i + side for i in range(deg) for side in (0, deg)])
        t = t.reshape(tuple(a.dims[i] * b.dims[i] for i in range(1, deg + 1)))
        tensors[q] = Tensor(t, tuple(node_edges))
    return TensorNetwork(tensors)


def _fiedler_order(shape: NetworkShape) -> list[int]:
    """Nodes sorted by the Fiedler vector of the unweighted graph Laplacian;
    a deterministic 1-D sweep coordinate for separator search."""
    nodes = list(shape.nodes)
    idx = {q: i for i, q in enumerate(nodes)}
    n = len(nodes)
    lap = np.zeros((n, n))
    for k, l in shape.edges:
        i, j = idx[k], idx[l]
        lap[i, j] -= 1
        lap[j, i] -= 1
        lap[i, i] += 1
        lap[j, j] += 1
    if n <= 2:
        return sorted(nodes)
    _, vecs = np.linalg.eigh(lap)
    fied = vecs[:, 1]
    nz = fied[np.abs(fied) > 1e-12]
    if nz.size and nz[0] < 0:
        fied = -fied
    return [q for _, q in sorted(zip(fied, nodes), key=lambda t: (t[0], t[1]))]


def _separator_cuts(shape: NetworkShape) -> Iterator[list[Edge]]:
    """Growing cut sets: each adds the uncut edges crossing the thinnest
    split of the Fiedler ordering (the thinnest place of the lattice).

    A split's crossing edges are the open edges of the prefix before it,
    kept as a running symmetric difference along the order.
    """
    order = _fiedler_order(shape)
    splits = list(accumulate((shape.open_edges((q,)) for q in order[:-1]), xor))
    cuts: list[Edge] = []
    for _ in range(len(order)):
        best: frozenset[Edge] | None = None
        for split in splits:
            crossing = split.difference(cuts)
            if crossing and (best is None or len(crossing) < len(best)):
                best = crossing
        if not best:
            return
        cuts = cuts + sorted(best)
        yield cuts


PLANNER_STATE_BUDGET = 1_000_000


def _slice_plan(
    shape: NetworkShape,
    cuts: list[Edge],
    max_rank: int,
    max_states: int | None = None,
) -> CutPlan:
    """The plan slicing ``cuts``, with the path found on its slice-0 shape.

    Cut edges enter the search at extent 1, so adjacency survives; every
    slice is structurally identical and reuses the path.
    """
    for e in cuts:
        if e not in shape.edges:
            raise ValueError(f"cut edge {e} not in network")
    if len(set(cuts)) != len(cuts):
        raise ValueError("duplicate cut edges")
    edges = {**shape.edges, **dict.fromkeys(cuts, 1)}
    path, score = find_optimal_path(
        NetworkShape(shape.nodes, edges), max_rank, max_states=max_states
    )
    extents = tuple(shape.edges[e] for e in cuts)
    return CutPlan(tuple(cuts), extents, tuple(path), score)


def plan_cuts(
    net: TensorNetwork,
    target_max_rank: int | None = None,
    explicit_edges: list[Edge] | None = None,
) -> CutPlan:
    """Choose edges to slice so one slice fits the rank cap, and the path
    that contracts every slice.

    Explicit edges (an empty list for no cuts) are kept verbatim and their
    slice is searched without a state budget.  Automatic mode tries no cuts,
    then each of ``_separator_cuts`` in turn, until a search capped at
    ``PLANNER_STATE_BUDGET`` states succeeds on a slice under the cap.  The
    cap defaults to ``treewidth_bound + 1``.
    """
    shape = NetworkShape.from_network(net)
    if target_max_rank is None:
        target_max_rank = treewidth_bound(shape) + 1
    if explicit_edges is not None:
        edges = [tuple(sorted(e)) for e in explicit_edges]
        return _slice_plan(shape, edges, target_max_rank)
    for cuts in chain([[]], _separator_cuts(shape)):
        try:
            return _slice_plan(shape, cuts, target_max_rank, PLANNER_STATE_BUDGET)
        except PathSearchError:
            continue
    raise CutPlanError(
        f"rank cap {target_max_rank} unachievable even with {len(cuts)} cuts"
    )


def slice_network(
    net: TensorNetwork, plan: CutPlan, slice_index: int
) -> TensorNetwork:
    """Restrict every cut edge to the value decoded from ``slice_index``.

    Decoding is mixed-radix with the first cut edge most significant.  The
    cut edges' axes are gone from the slice's tensors, so from its edges.
    """
    if not 0 <= slice_index < plan.slice_count:
        raise ValueError(f"slice index {slice_index} out of range")
    values: dict[Edge, int] = {}
    rem = slice_index
    for e, ext in zip(reversed(plan.cut_edges), reversed(plan.extents)):
        values[e] = rem % ext
        rem //= ext

    tensors = dict(net.tensors)
    for e, v in values.items():
        for q in e:
            t = tensors[q]
            ax = t.axis(e)
            arr = np.take(t.data, v, axis=ax)
            labels = t.labels[:ax] + t.labels[ax + 1:]
            tensors[q] = Tensor(arr, labels)
    return TensorNetwork(tensors)


def contract_along_path(
    net: TensorNetwork, path: list[int]
) -> tuple[complex, dict]:
    """Fold the network's tensors in path order; returns the scalar plus the
    observed peak intermediate rank and exact multiply count."""
    if sorted(path) != sorted(net.tensors):
        raise ValueError("path is not a permutation of the network's qubits")

    def nrank(t: Tensor) -> int:
        return sum(1 for d in t.dims if d > 1)

    acc = net.tensors[path[0]]
    peak = nrank(acc)
    multiplies = 0
    for q in path[1:]:
        t = net.tensors[q]
        shared = sorted(set(acc.labels) & set(t.labels))
        pairs = [(acc.axis(lab), t.axis(lab)) for lab in shared]
        multiplies += contraction_cost(acc.dims, t.dims, pairs)
        acc = contract_pair(acc, t, pairs)
        peak = max(peak, nrank(acc))
    return acc.scalar(), {"peak_rank": peak, "multiplies": multiplies}


@dataclass
class AmplitudeStats:
    amplitude: complex
    peak_rank: int
    multiplies: int
    slice_count: int
    path: list[int]
    path_score: int
    wall_time_ms: float

    def record(self, timing: bool = True) -> dict:
        rec = {
            "amplitude": [self.amplitude.real, self.amplitude.imag],
            "peak_rank": self.peak_rank,
            "multiplies": self.multiplies,
            "slice_count": self.slice_count,
            "path": list(self.path),
            "path_score": str(self.path_score),
        }
        if timing:
            rec["wall_time_ms"] = self.wall_time_ms
        return rec


def overlap_network(
    circuit: Circuit,
    in_bits: str,
    out_bits: str,
    split_cycle: int | None = None,
) -> TensorNetwork:
    """fuse -> two-sided evolution -> closed overlap network of
    <out_bits|U|in_bits>."""
    fused = fuse_single_qubit_gates(circuit)
    phi, psi = two_sided_evolve(fused, in_bits, out_bits, split_cycle)
    return build_overlap_network(phi, psi)


def compute_amplitude(
    circuit: Circuit,
    in_bits: str,
    out_bits: str,
    split_cycle: int | None = None,
    cuts: str | list[Edge] | None = "auto",
    max_rank: int | None = None,
) -> AmplitudeStats:
    """Full single-amplitude pipeline.

    overlap network -> cut plan, whose one path search on slice 0 is reused
    for every slice -> sum of slice scalars.  ``cuts`` is "auto", None (no
    cuts) or a list of edges.
    """
    start = time.perf_counter()
    net = overlap_network(circuit, in_bits, out_bits, split_cycle)
    explicit = None if cuts == "auto" else list(cuts or ())
    plan = plan_cuts(net, max_rank, explicit)
    path = list(plan.path)

    total = 0.0 + 0.0j
    peak = 0
    multiplies = 0
    for s in range(plan.slice_count):
        sliced = slice_network(net, plan, s)
        value, stats = contract_along_path(sliced, path)
        total += value
        peak = max(peak, stats["peak_rank"])
        multiplies += stats["multiplies"]

    ms = (time.perf_counter() - start) * 1e3
    return AmplitudeStats(
        total, peak, multiplies, plan.slice_count, path, plan.score, ms
    )
