"""Tensor-network-state evolution on a connectivity graph.

Each qubit owns one tensor whose first axis is physical (extent 2) and whose
remaining axes are auxiliary, one per incident graph edge, labelled by the
edge.  Two-qubit gates are applied via their SVD split, growing the touched
bond by the gate rank; an SVD compression on that bond follows each gate.
A bond's extent is never stored apart from the tensors: it is the extent of
the edge's axis in the arrays.

A TNSState is mutated by evolution and confined to one worker at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

from .circuit import Circuit, CircuitGraph, Edge, SplitGate, edge_key, split_gate_matrix
from .tensor import Tensor, svd_factorize

__all__ = [
    "PHYS",
    "TNSState",
    "init_state",
    "apply_gate",
    "compress_edge",
    "evolve",
    "two_sided_evolve",
]

PHYS = "p"  # label of the physical axis on every node tensor


@dataclass
class TNSState:
    """One tensor per qubit, labelled ``(PHYS, *graph.node_edges(q))``; bond
    extents are read from those tensors."""

    graph: CircuitGraph
    tensors: dict[int, Tensor]

    @property
    def bond_dims(self) -> dict[Edge, int]:
        """Each edge's extent, read on its lower-index endpoint."""
        ends = {e: self.tensors[e[0]] for e in self.graph.edges}
        return {e: t.dims[t.axis(e)] for e, t in ends.items()}

    def max_bond(self) -> int:
        return max(self.bond_dims.values(), default=1)


def init_state(graph: CircuitGraph, bitstring: str) -> TNSState:
    """Product state |bitstring> as a bond-dimension-1 network."""
    n = graph.num_qubits
    if len(bitstring) != n:
        raise ValueError(f"bitstring length {len(bitstring)} != {n} qubits")
    tensors: dict[int, Tensor] = {}
    for q in range(n):
        b = bitstring[q]
        if b not in "01":
            raise ValueError(f"non-binary character {b!r} in bitstring")
        edges = graph.node_edges(q)
        vec = np.array([1.0, 0.0] if b == "0" else [0.0, 1.0], dtype=np.complex128)
        shape = (2,) + (1,) * len(edges)
        tensors[q] = Tensor(vec.reshape(shape), (PHYS, *edges))
    return TNSState(graph, tensors)


def _absorb_factor(state: TNSState, node: int, factor: Tensor, e: Edge) -> None:
    """Contract a (sigma', sigma, s) gate factor into a node tensor and merge
    the s axis into the bond axis of edge ``e`` (old bond major, s minor)."""
    t = state.tensors[node]
    b = t.axis(e)
    arr = np.tensordot(factor.data, t.data, axes=([1], [0]))
    # axes now (sigma', s, aux...); bond sits at b + 1
    arr = np.moveaxis(arr, 1, b + 1)
    shape = list(arr.shape)
    merged = shape[b] * shape[b + 1]
    arr = arr.reshape(shape[:b] + [merged] + shape[b + 2:])
    state.tensors[node] = Tensor(arr, t.labels)


def apply_gate(state: TNSState, sg: SplitGate, pair: tuple[int, int]) -> TNSState:
    """Apply a split two-qubit gate on ``pair``; compress the touched bond."""
    k, l = pair
    e = edge_key(k, l)
    if e not in state.graph.edges:
        raise ValueError(f"pair ({k}, {l}) is not a graph edge")
    _absorb_factor(state, k, sg.p, e)
    _absorb_factor(state, l, sg.q, e)
    return compress_edge(state, e)


def compress_edge(state: TNSState, e: Edge) -> TNSState:
    """SVD-compress the bond of edge ``e``.

    The SVD is anchored on the lower-index endpoint: its tensor is replaced
    by the orthonormal factor U while diag(s).V is absorbed into the other
    endpoint.  The represented state changes only by singular values below
    ``svd_factorize``'s default relative tolerance.
    """
    e = edge_key(*e)
    if e not in state.graph.edges:
        raise ValueError(f"edge {e} not in graph")
    anchor, other = e
    ta = state.tensors[anchor]
    bond_ax = ta.axis(e)
    row_axes = [i for i in range(ta.rank) if i != bond_ax]
    u, s, v, kept = svd_factorize(ta, row_axes, new_label=("_c", e))

    assert kept <= ta.dims[bond_ax]
    assert kept <= prod(d for i, d in enumerate(ta.dims) if i != bond_ax)

    # U: (rows..., kept) -> move new axis back to the bond position
    ua = np.moveaxis(u.data, -1, bond_ax)
    state.tensors[anchor] = Tensor(ua, ta.labels)

    m = s[:, None] * v.data  # (kept, old_bond)
    tb = state.tensors[other]
    ob = tb.axis(e)
    arr = np.tensordot(tb.data, m, axes=([ob], [1]))  # (..., kept)
    arr = np.moveaxis(arr, -1, ob)
    state.tensors[other] = Tensor(arr, tb.labels)
    return state


def evolve(
    state: TNSState, gates: Iterable[tuple[tuple[int, int], np.ndarray]]
) -> TNSState:
    """Apply each ``(pair, 4x4 matrix)`` of ``gates`` in order, splitting it
    by SVD and compressing the touched bond."""
    for pair, matrix in gates:
        apply_gate(state, split_gate_matrix(matrix), pair)
    return state


def apply_single_qubit(state: TNSState, q: int, u: np.ndarray) -> TNSState:
    """Multiply a 2x2 unitary into the physical axis of node ``q``."""
    t = state.tensors[q]
    arr = np.tensordot(np.asarray(u, dtype=np.complex128), t.data, axes=([1], [0]))
    state.tensors[q] = Tensor(arr, t.labels)
    return state


def two_sided_evolve(
    circuit: Circuit,
    in_bits: str,
    out_bits: str,
    split_cycle: int | None = None,
) -> tuple[TNSState, TNSState]:
    """Two-sided evolution of a fused circuit.

    phi is |in_bits> evolved by the gates of cycles [0, split_cycle) in
    order.  psi is the ket U2^dag |out_bits>: the fused circuit's
    moment == depth single-qubit gates (last first, each as u^dag), then the
    gates of the remaining cycles, last first, each conjugate-transposed.
    The overlap <psi|phi> equals the full amplitude <out|U|in>.  A
    single-qubit gate before the last cycle is refused: fuse first.
    """
    d = circuit.depth
    if split_cycle is None:
        split_cycle = d // 2
    if not 0 <= split_cycle <= d:
        raise ValueError(f"split_cycle {split_cycle} outside [0, {d}]")
    if any(sg.moment < d for sg in circuit.single_qubit):
        raise ValueError(
            "two_sided_evolve expects a fused circuit (no single-qubit layers)"
        )

    phi = init_state(circuit.graph, in_bits)
    evolve(phi, ((g.pair, g.matrix) for c in circuit.cycles[:split_cycle] for g in c))

    psi = init_state(circuit.graph, out_bits)
    for sg in reversed(circuit.single_qubit):
        apply_single_qubit(psi, sg.qubit, sg.matrix.conj().T)
    later = [g for c in circuit.cycles[split_cycle:] for g in c]
    evolve(psi, ((g.pair, g.matrix.conj().T) for g in reversed(later)))
    return phi, psi
