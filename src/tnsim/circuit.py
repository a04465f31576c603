"""Circuit intermediate representation.

Connectivity graph, gate cycles, gate SVD splitting, single-qubit gate
fusion, JSON file I/O and Sycamore-style random-circuit generation.

Graphs and circuits are immutable after construction/parse and safe to share
read-only across workers.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from math import cos, pi, sin

import numpy as np

from .tensor import Tensor, svd_factorize

__all__ = [
    "Edge",
    "CircuitGraph",
    "Gate",
    "Circuit",
    "SplitGate",
    "CircuitFormatError",
    "edge_key",
    "cz_matrix",
    "iswap_matrix",
    "fsim_matrix",
    "identity2",
    "split_gate_matrix",
    "fuse_single_qubit_gates",
    "generate_lattice",
    "generate_rqc",
    "parse_circuit",
    "serialize_circuit",
]

Edge = tuple[int, int]

UNITARY_ATOL = 1e-10


class CircuitFormatError(ValueError):
    """Raised on malformed circuit documents or invalid circuit structure."""


def edge_key(k: int, l: int) -> Edge:
    return (k, l) if k < l else (l, k)


# ---------------------------------------------------------------------------
# Gate matrices.  Two-qubit matrices act on the basis index sigma_k*2+sigma_l
# (first qubit of the pair is the major bit), row-major over
# (sigma_k' sigma_l') x (sigma_k sigma_l).
# ---------------------------------------------------------------------------

def identity2() -> np.ndarray:
    return np.eye(2, dtype=np.complex128)


def cz_matrix() -> np.ndarray:
    return np.diag([1, 1, 1, -1]).astype(np.complex128)


def iswap_matrix() -> np.ndarray:
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = 1
    m[1, 2] = 1j
    m[2, 1] = 1j
    m[3, 3] = 1
    return m


def fsim_matrix(theta: float, phi: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = 1
    m[1, 1] = cos(theta)
    m[1, 2] = -1j * sin(theta)
    m[2, 1] = -1j * sin(theta)
    m[2, 2] = cos(theta)
    m[3, 3] = np.exp(-1j * phi)
    return m


def _sqrt_pauli(p: np.ndarray) -> np.ndarray:
    # principal square root of a Hermitian unitary (eigenvalues +-1)
    return ((1 + 1j) * np.eye(2) + (1 - 1j) * p) / 2


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_W = (_X + _Y) / np.sqrt(2)

SQRT_X = _sqrt_pauli(_X)
SQRT_Y = _sqrt_pauli(_Y)
SQRT_W = _sqrt_pauli(_W)

DEFAULT_SINGLE_QUBIT_SET: tuple[np.ndarray, ...] = (SQRT_X, SQRT_Y, SQRT_W)

DEFAULT_FSIM_PARAMS = (pi / 2, pi / 6)


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircuitGraph:
    """Qubit connectivity graph: nodes 0..N-1 plus undirected edges."""

    num_qubits: int
    edges: frozenset[Edge]
    _incident: dict[int, tuple[Edge, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitFormatError("num_qubits must be positive")
        object.__setattr__(
            self, "edges", frozenset(edge_key(*e) for e in self.edges)
        )
        for k, l in self.edges:
            if k == l:
                raise CircuitFormatError(f"self-loop on qubit {k}")
            if not (0 <= k < self.num_qubits and 0 <= l < self.num_qubits):
                raise CircuitFormatError(f"edge ({k}, {l}) out of range")
        incident: dict[int, list[Edge]] = {q: [] for q in range(self.num_qubits)}
        for e in sorted(self.edges):
            incident[e[0]].append(e)
            incident[e[1]].append(e)
        object.__setattr__(
            self, "_incident", {q: tuple(v) for q, v in incident.items()}
        )
        if not self.is_connected():
            raise CircuitFormatError("graph is not connected")

    def degree(self, q: int) -> int:
        return len(self._incident[q])

    def node_edges(self, q: int) -> tuple[Edge, ...]:
        """Edges incident to ``q``, sorted."""
        return self._incident[q]

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            q = stack.pop()
            for k, l in self._incident[q]:
                nb = l if k == q else k
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.num_qubits


@dataclass(frozen=True)
class Gate:
    """Two-qubit gate on ordered pair (k, l) with a 4x4 unitary."""

    pair: tuple[int, int]
    matrix: np.ndarray
    cycle: int
    name: str = "matrix"
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4):
            raise CircuitFormatError(f"gate matrix shape {m.shape} != (4, 4)")
        if self.pair[0] == self.pair[1]:
            raise CircuitFormatError(f"gate pair {self.pair} repeats a qubit")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))

    def is_unitary(self) -> bool:
        m = self.matrix
        return bool(np.allclose(m @ m.conj().T, np.eye(4), atol=UNITARY_ATOL))


@dataclass(frozen=True)
class SingleQubitGate:
    qubit: int
    moment: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise CircuitFormatError(f"single-qubit matrix shape {m.shape}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class Circuit:
    """Connectivity graph plus ordered gate cycles.

    ``single_qubit`` holds the pre-fusion 2x2 layers; a gate at moment m acts
    before cycle m (moment == depth means after the last cycle).  ``trailing``
    holds per-qubit 2x2 unitaries produced by fusion for qubits with no
    following two-qubit gate; it is applied after all cycles.
    """

    graph: CircuitGraph
    cycles: tuple[tuple[Gate, ...], ...]
    single_qubit: tuple[SingleQubitGate, ...] = ()
    trailing: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cycles", tuple(tuple(c) for c in self.cycles)
        )
        object.__setattr__(self, "single_qubit", tuple(self.single_qubit))
        for c, cycle in enumerate(self.cycles):
            used: set[int] = set()
            for g in cycle:
                k, l = g.pair
                if edge_key(k, l) not in self.graph.edges:
                    raise CircuitFormatError(
                        f"gate pair ({k}, {l}) is not a graph edge"
                    )
                if k in used or l in used:
                    raise CircuitFormatError(
                        f"qubit used twice in cycle {c}: pair ({k}, {l})"
                    )
                used.update((k, l))

    @property
    def depth(self) -> int:
        return len(self.cycles)

    @property
    def num_qubits(self) -> int:
        return self.graph.num_qubits


@dataclass(frozen=True)
class SplitGate:
    """SVD split of a two-qubit gate across its two qubits.

    p has axes (sigma_k', sigma_k, s), q has axes (sigma_l', sigma_l, s);
    summing the shared s axis reconstructs the gate matrix.
    """

    p: Tensor
    q: Tensor
    rank: int


# ---------------------------------------------------------------------------
# Gate splitting and fusion
# ---------------------------------------------------------------------------

def split_gate_matrix(matrix: np.ndarray) -> SplitGate:
    """Split a 4x4 gate matrix into two (2, 2, chi) factors via SVD.

    Singular values are distributed symmetrically (each factor absorbs
    sqrt(s)) so both factors stay well-conditioned.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (4, 4):
        raise CircuitFormatError(f"gate matrix shape {m.shape} != (4, 4)")
    if not np.all(np.isfinite(m)):
        raise CircuitFormatError("non-finite entries in gate matrix")
    if not np.allclose(m @ m.conj().T, np.eye(4), atol=UNITARY_ATOL):
        warnings.warn("splitting a non-unitary gate matrix", stacklevel=2)
    # regroup (sigma_k' sigma_k) x (sigma_l' sigma_l)
    regrouped = Tensor(
        m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3),
        ("kp", "k", "lp", "l"),
    )
    u, s, v, chi = svd_factorize(regrouped, [0, 1], new_label="s")
    root = np.sqrt(s)
    p = Tensor(u.data * root[None, None, :], ("kp", "k", "s"))
    q = Tensor(
        (root[:, None, None] * v.data).transpose(1, 2, 0), ("lp", "l", "s")
    )
    return SplitGate(p, q, chi)


def _expand_on_pair(u: np.ndarray, pair: tuple[int, int], q: int) -> np.ndarray:
    if q == pair[0]:
        return np.kron(u, np.eye(2))
    return np.kron(np.eye(2), u)


def fuse_single_qubit_gates(c: Circuit) -> Circuit:
    """Absorb all single-qubit layers into adjacent two-qubit gates.

    Each 2x2 unitary multiplies into the next two-qubit gate touching its
    qubit; with no following gate it folds into the previous one, and qubits
    with no two-qubit gate at all keep a per-qubit trailing 2x2.  The full
    circuit unitary is unchanged.
    """
    n = c.num_qubits
    pending: list[np.ndarray] = [identity2() for _ in range(n)]
    by_moment: dict[int, list[SingleQubitGate]] = {}
    for sg in c.single_qubit:
        by_moment.setdefault(sg.moment, []).append(sg)

    matrices: list[list[np.ndarray]] = [
        [g.matrix.copy() for g in cycle] for cycle in c.cycles
    ]
    last_gate: dict[int, tuple[int, int]] = {}

    for m in range(c.depth + 1):
        for sg in by_moment.get(m, ()):
            pending[sg.qubit] = sg.matrix @ pending[sg.qubit]
        if m == c.depth:
            break
        for idx, g in enumerate(c.cycles[m]):
            k, l = g.pair
            pre = np.kron(pending[k], pending[l])
            matrices[m][idx] = matrices[m][idx] @ pre
            pending[k] = identity2()
            pending[l] = identity2()
            last_gate[k] = (m, idx)
            last_gate[l] = (m, idx)

    trailing = {q: u.copy() for q, u in c.trailing.items()}
    for q in range(n):
        u = pending[q]
        if np.allclose(u, np.eye(2), atol=0):
            continue
        if q in last_gate:
            m, idx = last_gate[q]
            pair = c.cycles[m][idx].pair
            matrices[m][idx] = _expand_on_pair(u, pair, q) @ matrices[m][idx]
        else:
            trailing[q] = u @ trailing.get(q, identity2())

    cycles = tuple(
        tuple(
            Gate(g.pair, matrices[m][idx], m)
            for idx, g in enumerate(cycle)
        )
        for m, cycle in enumerate(c.cycles)
    )
    return Circuit(c.graph, cycles, (), trailing)


# ---------------------------------------------------------------------------
# Lattice and random circuit generation
# ---------------------------------------------------------------------------

def generate_lattice(kind: str, rows: int, cols: int) -> CircuitGraph:
    """Build a square or sycamore-like connectivity graph.

    The sycamore-like lattice is the diagonal-coupled two-sublattice pattern:
    each node (r, c) couples down to (r+1, c) and diagonally to (r+1, c+1) on
    even rows / (r+1, c-1) on odd rows, giving interior qubits degree 4.
    Node ids are r * cols + c.
    """
    if rows < 2 or cols < 2:
        raise CircuitFormatError("lattice dimensions must be >= 2")
    n = rows * cols
    edges: set[Edge] = set()

    def nid(r: int, c: int) -> int:
        return r * cols + c

    if kind == "square":
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.add(edge_key(nid(r, c), nid(r, c + 1)))
                if r + 1 < rows:
                    edges.add(edge_key(nid(r, c), nid(r + 1, c)))
    elif kind == "sycamore-like":
        for r in range(rows - 1):
            for c in range(cols):
                edges.add(edge_key(nid(r, c), nid(r + 1, c)))
                dc = c + 1 if r % 2 == 0 else c - 1
                if 0 <= dc < cols:
                    edges.add(edge_key(nid(r, c), nid(r + 1, dc)))
    else:
        raise CircuitFormatError(f"unknown lattice kind {kind!r}")
    return CircuitGraph(n, frozenset(edges))


def _edge_coloring(graph: CircuitGraph) -> list[list[Edge]]:
    """Greedy proper edge coloring; returns the color classes in order."""
    colors: dict[Edge, int] = {}
    for e in sorted(graph.edges):
        used = {
            colors[f] for q in e for f in graph.node_edges(q) if f in colors
        }
        c = 0
        while c in used:
            c += 1
        colors[e] = c
    ncolors = max(colors.values()) + 1 if colors else 0
    classes: list[list[Edge]] = [[] for _ in range(ncolors)]
    for e, c in sorted(colors.items()):
        classes[c].append(e)
    return classes


def generate_rqc(
    graph: CircuitGraph, depth: int, seed: int, gate_family: str = "fsim"
) -> Circuit:
    """Deterministic random circuit on ``graph``.

    Cycle d applies the chosen two-qubit gate (fsim at
    ``DEFAULT_FSIM_PARAMS``) over the edges of color class d mod the class
    count of the graph's edge coloring, preceded by a layer of single-qubit
    rotations drawn from ``DEFAULT_SINGLE_QUBIT_SET``.
    """
    if depth < 1:
        raise CircuitFormatError("depth must be >= 1")
    if gate_family == "fsim":
        theta, phi = DEFAULT_FSIM_PARAMS
        m2, name = fsim_matrix(theta, phi), "fsim"
        params = {"theta": theta, "phi": phi}
    elif gate_family == "cz":
        m2, name, params = cz_matrix(), "cz", {}
    elif gate_family == "iswap":
        m2, name, params = iswap_matrix(), "iswap", {}
    else:
        raise CircuitFormatError(f"unknown gate family {gate_family!r}")

    rng = np.random.default_rng(seed)
    classes = _edge_coloring(graph)

    cycles: list[list[Gate]] = []
    singles: list[SingleQubitGate] = []
    for d in range(depth):
        for q in range(graph.num_qubits):
            u = DEFAULT_SINGLE_QUBIT_SET[rng.integers(len(DEFAULT_SINGLE_QUBIT_SET))]
            singles.append(SingleQubitGate(q, d, u))
        color = classes[d % len(classes)]
        cycles.append([Gate(e, m2, d, name, params) for e in color])
    return Circuit(graph, tuple(tuple(c) for c in cycles), tuple(singles))


# ---------------------------------------------------------------------------
# File format (UTF-8 JSON)
# ---------------------------------------------------------------------------

def _complex_list(m: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _expect(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise CircuitFormatError(
            f"{where}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _matrix_from_list(entries, side: int, where: str) -> np.ndarray:
    entries = _expect(entries, list, where)
    if len(entries) != side * side:
        raise CircuitFormatError(
            f"{where}: expected {side * side} complex entries, got {len(entries)}"
        )
    try:
        vals = [complex(re, im) for re, im in entries]
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(f"{where}: bad complex entry ({exc})") from exc
    return np.array(vals, dtype=np.complex128).reshape(side, side)


def serialize_circuit(circuit: Circuit) -> bytes:
    """Serialize to the canonical JSON circuit document."""
    if circuit.trailing:
        raise CircuitFormatError("cannot serialize a fused circuit with trailing gates")
    doc = {
        "num_qubits": circuit.num_qubits,
        "edges": [list(e) for e in sorted(circuit.graph.edges)],
        "cycles": [
            [
                {
                    "pair": list(g.pair),
                    "gate": g.name,
                    **(
                        {"params": {k: g.params[k] for k in sorted(g.params)}}
                        if g.name == "fsim"
                        else {}
                    ),
                    **(
                        {"matrix": _complex_list(g.matrix)}
                        if g.name == "matrix"
                        else {}
                    ),
                }
                for g in cycle
            ]
            for cycle in circuit.cycles
        ],
        "single_qubit": [
            {
                "qubit": sg.qubit,
                "moment": sg.moment,
                "matrix": _complex_list(sg.matrix),
            }
            for sg in circuit.single_qubit
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _gate_from_doc(entry: dict, cycle: int, where: str) -> Gate:
    pair = entry.get("pair")
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(q, int) for q in pair)
    ):
        raise CircuitFormatError(f"{where}: bad pair {pair!r}")
    kind = entry.get("gate")
    if kind == "cz":
        m, params = cz_matrix(), {}
    elif kind == "iswap":
        m, params = iswap_matrix(), {}
    elif kind == "fsim":
        p = entry.get("params", {})
        if not isinstance(p, dict) or "theta" not in p or "phi" not in p:
            raise CircuitFormatError(f"{where}: fsim gate missing theta/phi")
        params = {"theta": float(p["theta"]), "phi": float(p["phi"])}
        m = fsim_matrix(params["theta"], params["phi"])
    elif kind == "matrix":
        m = _matrix_from_list(entry.get("matrix", []), 4, where)
        params = {}
    else:
        raise CircuitFormatError(f"{where}: unknown gate name {kind!r}")
    g = Gate((pair[0], pair[1]), m, cycle, kind, params)
    if not g.is_unitary():
        raise CircuitFormatError(f"{where}: gate matrix is not unitary")
    return g


def parse_circuit(data: bytes | str) -> Circuit:
    """Parse the canonical JSON circuit document; validates all invariants."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top-level document must be an object")

    n = doc.get("num_qubits")
    if not isinstance(n, int) or n < 1:
        raise CircuitFormatError(f"bad num_qubits {n!r}")
    edges: set[Edge] = set()
    for e in _expect(doc.get("edges", []), list, "edges"):
        if not (
            isinstance(e, list)
            and len(e) == 2
            and all(isinstance(q, int) for q in e)
        ):
            raise CircuitFormatError(f"bad edge entry {e!r}")
        k, l = e
        if not (0 <= k < n and 0 <= l < n):
            raise CircuitFormatError(f"edge ({k}, {l}) qubit index out of range")
        edges.add(edge_key(k, l))
    graph = CircuitGraph(n, frozenset(edges))

    cycles: list[list[Gate]] = []
    for ci, cycle_doc in enumerate(_expect(doc.get("cycles", []), list, "cycles")):
        cycle: list[Gate] = []
        for gi, entry in enumerate(_expect(cycle_doc, list, f"cycles[{ci}]")):
            where = f"cycles[{ci}][{gi}]"
            g = _gate_from_doc(_expect(entry, dict, where), ci, where)
            k, l = g.pair
            if not (0 <= k < n and 0 <= l < n):
                raise CircuitFormatError(f"{where}: qubit index out of range")
            if edge_key(k, l) not in graph.edges:
                raise CircuitFormatError(
                    f"{where}: pair ({k}, {l}) is not a graph edge"
                )
            cycle.append(g)
        cycles.append(cycle)

    singles: list[SingleQubitGate] = []
    singles_doc = _expect(doc.get("single_qubit", []), list, "single_qubit")
    for si, entry in enumerate(singles_doc):
        where = f"single_qubit[{si}]"
        entry = _expect(entry, dict, where)
        q = entry.get("qubit")
        m = entry.get("moment")
        if not isinstance(q, int) or not 0 <= q < n:
            raise CircuitFormatError(f"{where}: bad qubit {q!r}")
        if not isinstance(m, int) or not 0 <= m <= len(cycles):
            raise CircuitFormatError(f"{where}: bad moment {m!r}")
        mat = _matrix_from_list(entry.get("matrix", []), 2, where)
        singles.append(SingleQubitGate(q, m, mat))

    return Circuit(graph, tuple(tuple(c) for c in cycles), tuple(singles))
