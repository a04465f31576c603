"""Tensor-network-state evolution on a connectivity graph.

Each qubit owns one tensor whose first axis is physical (extent 2) and whose
remaining axes are auxiliary, one per incident graph edge, labelled by the
edge.  Two-qubit gates are applied via their SVD split, growing the touched
bond by the gate rank; an SVD compression on that bond follows each gate.

A TNSState is mutated by evolution and confined to one worker at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

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
    graph: CircuitGraph
    tensors: dict[int, Tensor]
    bond_dims: dict[Edge, int]

    def max_bond(self) -> int:
        return max(self.bond_dims.values(), default=1)

    def check_invariants(self) -> None:
        for q, t in self.tensors.items():
            assert t.labels[0] == PHYS and t.dims[0] == 2
            assert t.rank == 1 + self.graph.degree(q)
        for e, d in self.bond_dims.items():
            k, l = e
            tk, tl = self.tensors[k], self.tensors[l]
            assert tk.dims[tk.axis(e)] == d == tl.dims[tl.axis(e)]


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
    bonds = {e: 1 for e in graph.edges}
    return TNSState(graph, tensors, bonds)


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


def apply_gate(
    state: TNSState,
    sg: SplitGate,
    pair: tuple[int, int],
    compress: bool = True,
) -> TNSState:
    """Apply a split two-qubit gate on ``pair``; compress the touched bond."""
    k, l = pair
    e = edge_key(k, l)
    if e not in state.graph.edges:
        raise ValueError(f"pair ({k}, {l}) is not a graph edge")
    _absorb_factor(state, k, sg.p, e)
    _absorb_factor(state, l, sg.q, e)
    state.bond_dims[e] *= sg.rank
    if compress:
        compress_edge(state, e)
    return state


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

    old = state.bond_dims[e]
    assert kept <= old
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
    state.bond_dims[e] = kept
    return state


def evolve(
    state: TNSState,
    circuit: Circuit,
    cycle_range: range | None = None,
    direction: str = "forward",
    compress: bool = True,
) -> TNSState:
    """Apply the circuit's cycles to ``state``.

    Forward applies gates in order; inverse applies conjugate-transposed
    gates in reverse order, so that evolving |s> inversely yields U^dag |s>.
    The circuit must already be fused: a single-qubit gate before the last
    cycle is refused, and gates at moment == depth are left to the caller.
    """
    if any(sg.moment < circuit.depth for sg in circuit.single_qubit):
        raise ValueError("evolve expects a fused circuit (no single-qubit layers)")
    if cycle_range is None:
        cycle_range = range(circuit.depth)
    if direction == "forward":
        order = [(c, False) for c in cycle_range]
    elif direction == "inverse":
        order = [(c, True) for c in reversed(cycle_range)]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    for c, inv in order:
        gates = circuit.cycles[c]
        for g in reversed(gates) if inv else gates:
            m = g.matrix.conj().T if inv else g.matrix
            sg = split_gate_matrix(m)
            apply_gate(state, sg, g.pair, compress)
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
    """Two-sided circuit evolution.

    phi carries cycles [0, split_cycle) applied forward to |in_bits>; psi is
    the ket U2^dag |out_bits> obtained by applying the fused circuit's
    moment == depth single-qubit gates (last first, each as u^dag) and then
    the remaining cycles inversely to |out_bits>.  The overlap <psi|phi>
    equals the full amplitude <out|U|in>.
    """
    d = circuit.depth
    if split_cycle is None:
        split_cycle = d // 2
    if not 0 <= split_cycle <= d:
        raise ValueError(f"split_cycle {split_cycle} outside [0, {d}]")

    phi = init_state(circuit.graph, in_bits)
    evolve(phi, circuit, range(0, split_cycle), "forward")

    psi = init_state(circuit.graph, out_bits)
    for sg in reversed(circuit.single_qubit):
        apply_single_qubit(psi, sg.qubit, sg.matrix.conj().T)
    evolve(psi, circuit, range(split_cycle, d), "inverse")
    return phi, psi
