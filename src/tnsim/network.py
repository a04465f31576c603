"""Closed overlap network, cut slicing and amplitude contraction.

The overlap of the bra and ket tensor network states is a closed network on
the circuit graph: per qubit, the physical axes are contracted and each pair
of parallel bonds (one from each state) merges into a single network edge of
product extent.  Its shape follows from the two states' bond extents alone,
so cuts, path and program are fixed before any node is built.  Cuts fix
selected edges to each of their values, splitting the network into
independent slice networks whose scalars sum to the uncut contraction.  One
``StateOverlap`` serves every run and every slice: it builds each node as
the program reads it, with the slice's cut bonds indexed, and holds the nodes
that serve more than one slice.

A qubit whose merged step is costly may instead enter the program as its two
layer nodes, phi_q and psi_q*, joined by their physical edge.  Node ``~q``
is psi_q*; every edge at a layered qubit splits into its phi bond, labelled
by the graph edge, and its psi bond, labelled by the graph edge with each
layered endpoint ``k`` replaced by ``~k``.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, permutations
from math import prod
from operator import xor
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, CircuitGraph, Edge, fuse_single_qubit_gates
from .pathfind import (
    NetworkShape,
    PathSearchError,
    find_optimal_path,
    treewidth_bound,
)
from .tensor import Tensor, Workers, contract_pair, gemm_time, plan_gemm
from .tns import PHYS, TNSState, two_sided_evolve

__all__ = [
    "StateOverlap",
    "CutPlan",
    "overlap_states",
    "overlap_shape",
    "build_overlap_network",
    "plan_cuts",
    "slice_network",
    "ContractionProgram",
    "Window",
    "compile_program",
    "contract_along_path",
    "compute_amplitude",
]


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


def _common_graph(phi: TNSState, psi: TNSState) -> CircuitGraph:
    if phi.graph != psi.graph:
        raise ValueError("overlap requires identical graphs")
    return phi.graph


def overlap_shape(phi: TNSState, psi: TNSState) -> NetworkShape:
    """The shape of the overlap network of ``phi`` and ``psi``, read from
    their bond extents: each edge's extent is the product of the two."""
    graph = _common_graph(phi, psi)
    a, b = phi.bond_dims, psi.bond_dims
    edges = {e: a[e] * b[e] for e in sorted(graph.edges)}
    return NetworkShape(tuple(range(graph.num_qubits)), edges)


def _state_label(lab: Edge):
    """The label in phi's and psi's tensors of the network label ``lab``:
    its graph edge, or ``PHYS`` for a layered qubit's physical edge."""
    k, l = (~v if v < 0 else v for v in lab)
    return PHYS if k == l else (k, l)


@dataclass(frozen=True)
class StateOverlap:
    """The overlap network of ``phi`` and ``psi``, one slice of it when
    ``values`` fixes each cut edge to one value: ``node`` builds a node when
    it is read.

    psi is a ket; its tensors enter conjugated, so contracting the network
    yields <psi|phi>.  The qubits in ``layered`` are two nodes, phi_q (node
    q) and psi_q* (node ~q).  Every other qubit is one merged node, whose
    parallel bonds merge into one edge of product extent (phi index major,
    psi index minor on both endpoints) unless the edge splits at a layered
    neighbour.

    ``held`` keeps nodes across slices, each with the values of its own cut
    edges that it was built for: the slices of one network share it.
    """

    phi: TNSState
    psi: TNSState
    layered: frozenset[int] = frozenset()
    values: dict[Edge, int] = field(default_factory=dict)
    held: dict[int, tuple[tuple[int, ...], Tensor]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _common_graph(self.phi, self.psi)

    def node(self, q: int, labels: tuple[Edge, ...]) -> Tensor:
        """Node ``q`` with its axes in the order ``labels``: the held one
        when it was built in that order for this slice's values of its cut
        edges, else a new build, held when it is a cut endpoint."""
        key = tuple(v for e, v in self.values.items() if q in e)
        held = self.held.get(q)
        if held is not None and held[0] == key and held[1].labels == labels:
            return held[1]
        t = self._build(q, labels)
        if key:
            self.held[q] = key, t
        return t

    def _build(self, q: int, labels: tuple[Edge, ...]) -> Tensor:
        """A layer node is one copy of its state's tensor into the order
        ``labels``.  A merged node is phi_q . psi_q* over the physical axis:
        one product, then one copy into that order, so its build holds two
        node-sized arrays.

        The cut edges of a merged node are gone from it.  Each is indexed
        before the product: value v is phi's index v // b and psi's index
        v % b, with b psi's extent on the edge, as the merged axis orders
        them."""
        if q < 0 or q in self.layered:
            t = self.psi.tensors[~q] if q < 0 else self.phi.tensors[q]
            data = t.data.transpose([t.axis(_state_label(lab)) for lab in labels])
            return Tensor(np.conjugate(data, order="C") if q < 0 else data, labels)
        a, b = self.phi.tensors[q], self.psi.tensors[q]
        da, db, la, lb = a.data, b.data, a.labels, b.labels
        fixed = {e: divmod(v, b.dims[b.axis(e)]) for e, v in self.values.items() if q in e}
        if fixed:
            da = da[tuple(fixed[e][0] if e in fixed else slice(None) for e in la)]
            db = db[tuple(fixed[e][1] if e in fixed else slice(None) for e in lb)]
            la, lb = (tuple(e for e in l if e not in fixed) for l in (la, lb))
        t = np.tensordot(da, db.conj(), axes=([0], [0]))
        # axes: phi's bonds then psi's, each in its tensor's order
        deg = len(la) - 1
        axes: list[int] = []
        dims: list[int] = []
        for lab in labels:
            e = _state_label(lab)
            ia, ib = la.index(e) - 1, deg + lb.index(e) - 1
            if self.layered.isdisjoint(e):
                axes += [ia, ib]
                dims.append(t.shape[ia] * t.shape[ib])
            else:  # a split bond: psi's when a layered endpoint is negated
                axes.append(ib if min(lab) < 0 else ia)
                dims.append(t.shape[axes[-1]])
        return Tensor(t.transpose(axes).reshape(dims), labels)


def build_overlap_network(
    phi: TNSState,
    psi: TNSState,
    program: ContractionProgram,
    cut_edges: tuple[Edge, ...],
) -> StateOverlap:
    """The overlap network of ``phi`` and ``psi`` that ``program`` runs on
    each slice of ``cut_edges``.  With cuts, it holds each node that no cut
    edge touches, built once in qubit order and in the axis order the
    program reads it; with none, it holds nothing.
    """
    overlap = StateOverlap(phi, psi, program.layered)
    if not cut_edges:
        return overlap
    graph = phi.graph
    # built in qubit order, not program order: on square 4x4 d10 cut on
    # (5, 6), the process's peak RSS read 61.8 MB this way and 62.4 MB in
    # program order (medians of 10 runs, 2 cores)
    reads = {q: graph.node_edges(q) for q in range(graph.num_qubits)}
    reads[program.first] = program.labels
    reads.update((s.node, s.labels) for s in program.steps)
    ends = {q for e in cut_edges for q in e}
    overlap.held.update(
        (q, ((), overlap.node(q, labels))) for q, labels in reads.items() if q not in ends
    )
    return overlap


PLANNER_STATE_BUDGET = 1_000_000


def plan_cuts(
    shape: NetworkShape,
    target_max_rank: int | None = None,
    explicit_edges: list[Edge] | None = None,
) -> CutPlan:
    """Choose edges of the network of ``shape`` to slice so one slice fits
    the rank cap, and the path that contracts every slice.

    One search finds the path, on the searched shape: ``shape`` with any
    explicit edges (kept verbatim; an empty list means no cuts) at extent
    1.  It runs at the least cap that has a path: from ``target_max_rank``
    (default ``treewidth_bound + 1``) up, one step at a time, each probe
    held to ``PLANNER_STATE_BUDGET`` states until the cap reaches the edge
    count and prunes nothing.  Given both explicit edges and a target, the
    search runs once at the target, with no budget.

    With no explicit edges and a target, the plan then cuts along that
    path: while an intermediate (the first node included) has more than
    ``target_max_rank`` uncut edges of extent > 1, it cuts the edge open at
    the most such intermediates, the lower edge on a tie.  ``score`` is the
    path's cost per slice.  A negative target raises ``ValueError``.
    """
    if target_max_rank is not None and target_max_rank < 0:
        raise ValueError(f"rank cap {target_max_rank} is negative")
    cuts: list[Edge] = []
    searched = shape
    if explicit_edges is not None:
        cuts = [tuple(sorted(e)) for e in explicit_edges]
        for e in cuts:
            if e not in shape.edges:
                raise ValueError(f"cut edge {e} not in network")
        if len(set(cuts)) != len(cuts):
            raise ValueError("duplicate cut edges")
        searched = NetworkShape(shape.nodes, {**shape.edges, **dict.fromkeys(cuts, 1)})
    held = explicit_edges is not None and target_max_rank is not None
    cap = treewidth_bound(shape) + 1 if target_max_rank is None else target_max_rank
    while True:
        budget = None if held or cap >= len(shape.edges) else PLANNER_STATE_BUDGET
        try:
            path, score = find_optimal_path(searched, cap, max_states=budget)
            break
        except PathSearchError:
            if budget is None:
                raise
            cap += 1
    if explicit_edges is None and target_max_rank is not None:
        # the open edges of each intermediate, from the first node on
        opens = list(accumulate((shape.open_edges((q,)) for q in path[:-1]), xor))
        wide = [{e for e in s if shape.edges[e] > 1} for s in opens]
        # a set above a cap >= 0 is never empty, so each pass cuts an edge
        while over := [s for s in wide if len(s) > target_max_rank]:
            counts = Counter(chain.from_iterable(over))
            cuts.append(min(counts, key=lambda e: (-counts[e], e)))
            for s in wide:
                s.discard(cuts[-1])
        ext = {**shape.edges, **dict.fromkeys(cuts, 1)}
        score = sum(
            prod(ext[e] for e in s | shape.open_edges((q,))) for s, q in zip(opens, path[1:])
        )
    return CutPlan(tuple(cuts), tuple(shape.edges[e] for e in cuts), tuple(path), score)


def slice_network(net: StateOverlap, plan: CutPlan, slice_index: int) -> StateOverlap:
    """``net`` with every cut edge fixed to the value decoded from
    ``slice_index``, mixed-radix with the first cut edge most significant.
    The slice shares ``net``'s held nodes, and its cut endpoints are built
    without their cut edges' axes."""
    if not 0 <= slice_index < plan.slice_count:
        raise ValueError(f"slice index {slice_index} out of range")
    values: dict[Edge, int] = {}
    rem = slice_index
    for e, ext in zip(reversed(plan.cut_edges), reversed(plan.extents)):
        values[e] = rem % ext
        rem //= ext
    return dataclasses.replace(net, values=values)


# One ``contract_pair`` call costs about as much time as CALL multiplies at
# the full rate, on top of its own multiplies.  Measured with OpenBLAS on 2
# cores: a call on rank-3 or rank-4 operands of extent 2 took 22-29 us, and
# a 1024^3 complex GEMM ran 1.3e10-1.5e10 multiplies/s.
CALL = 400_000

# Copying an accumulator element into a new axis order costs about as much
# time as COPY multiplies.  Measured with numpy on 2 cores: moving the middle
# or the last axis of a 2^23-element array to the front, a quarter at a time,
# took 6 and 12 ns per element, 85 and 170 multiplies at 1.4e10/s.
COPY = 128

# A window may add estimated time (its extra calls, the read of its input
# when its axis does not lead, thinner GEMMs) up to this fraction of the
# multiplies of its steps.
WINDOW_SLACK = 0.02

# A compile held to a peak bound keeps, for each open window, the BEAM
# least-time DP states after each step: split bonds make the full DP slow.
# On square 4x4 d11 with qubits 6, 9 and 10 layered, the full DP took
# 0.23 s; 32 states per window took 0.05 s and found a program that copies
# 69.2M elements, peaks at 6.23M and contracts in 1.32 s; 64 states took
# 0.09 s and found one the estimate puts 10% faster (52.4M copied, peak
# 7.70M) that contracts in 1.33 s with 26 MB more peak RSS.
BEAM = 32


@dataclass(frozen=True)
class Step:
    """Absorb ``node``, its axes in the order ``labels``, into the
    accumulator through ``contract_pair``; the node is the first operand
    when ``node_first``.  ``elements`` is the step's live set unchunked:
    accumulator + node + result elements, of which ``size`` are the
    result's."""

    node: int
    labels: tuple[Edge, ...]
    node_first: bool
    elements: int
    size: int


class Window(NamedTuple):
    """Steps ``start`` to ``stop`` (inclusive) run once per block of the
    accumulator axis ``axis``, which none of their nodes carries, cut into
    ``blocks`` equal blocks, of one index each when ``blocks`` is the
    axis's extent.  Each block is read with ``axis`` moved to the front (a
    view when it already leads), and each block's result is written into
    the window's output."""

    start: int
    stop: int
    axis: Edge
    blocks: int


@dataclass(frozen=True)
class ContractionProgram:
    """A path compiled against one slice's shape (every slice of a plan has
    the same): the first node's axis order, one ``Step`` per node, and the
    windows that run some of the steps one block at a time.

    ``copied`` counts the accumulator elements that steps must copy into a
    new axis order, staged because their paired axes split it or
    transposed as a matrix operand; 0 when every step can multiply the
    accumulator in place (a thin batch staged because that is faster does
    not count).  ``live_elements`` is the program's largest live set, what
    a compile's bound holds: a step's ``elements``, the accumulator it
    transposes and the buffer it stages through, outside windows; inside a
    window, its whole input and output and all its nodes, plus one block of
    the step's accumulator, one of its result and the block it transposes,
    and the buffer.  ``peak_elements`` is what a run holds at once: the
    workspace, sized for the largest step, and beside it what each step
    holds outside it: the first node while that is the accumulator, the
    step's node or its window's nodes, a merged node twice while it is
    built (a product, then a copy into its axis order), and the copies the
    workspace has no room for.  On ``amp-sq16-d11``'s program that is
    2,760,960 elements against a largest live set of 2,726,656.  It leaves
    out the nodes that a cut run holds for every slice, those no cut edge
    touches.  ``time`` is the compiler's estimate of the run time, in
    multiplies.

    ``workspace`` is the size of the one array a run writes every result
    into (``contract_along_path``): the largest share of a live set held
    there, which is all of it but the nodes, the first node and what a
    step copies.  A staged step copies through the room its share leaves
    when that holds its buffer.
    """

    first: int
    labels: tuple[Edge, ...]
    steps: tuple[Step, ...]
    windows: tuple[Window, ...]
    multiplies: int
    peak_rank: int
    copied: int
    peak_elements: int
    live_elements: int
    time: int
    workspace: int

    @property
    def layered(self) -> frozenset[int]:
        """The qubits absorbed as two layer nodes: those whose psi_q*, node
        ~q, the program reads."""
        nodes = (self.first, *(step.node for step in self.steps))
        return frozenset(~q for q in nodes if q < 0)


def _rank(labels, ext: dict) -> int:
    return sum(1 for lab in labels if ext[lab] > 1)


def _moves(layout: tuple[Edge, ...], legs: tuple[Edge, ...], ext: dict, narrow: bool):
    """The ways to absorb a node with edges ``legs`` into an accumulator
    whose axes are in the order ``layout``: per operand order, (node first,
    copied elements, held elements, estimated time in multiplies, buffer
    elements).

    A step copies the accumulator when its paired axes are not one run of
    it, so that it is staged, or when it is the matrix operand and is
    transposed.  Only the transposed copy is held whole; a staged step
    holds its buffer, which the held elements count.  The node's paired
    axes go first, in the accumulator's order, so only the order of its
    free axes and the operand order are chosen.  The node goes first only when ``narrow``: neither
    operand has more axes than the widest intermediate, so a call's first
    operand is never wider than every intermediate.
    """
    shared = tuple(lab for lab in layout if lab in legs)
    free = tuple(lab for lab in legs if lab not in shared)
    dims_acc = [ext[lab] for lab in layout]
    acc = prod(dims_acc)
    pairs = [(layout.index(lab), i) for i, lab in enumerate(shared)]
    run = [i for i, _ in pairs]
    split = bool(run) and run[-1] - run[0] + 1 != len(run)
    # the node's paired axes lead it in the accumulator's order, so the
    # plan does not depend on the order of its free axes
    dims_node = [ext[lab] for lab in shared + free]
    plans = []
    for node_first in (False, True) if narrow else (False,):
        if node_first:
            g = plan_gemm(dims_node, dims_acc, [(j, i) for i, j in pairs])
        else:
            g = plan_gemm(dims_acc, dims_node, pairs)
        buffer = g.stage * g.k
        if g.block_is_a == node_first:  # the accumulator is the matrix
            copied = acc if g.copies_matrix else 0
            work = gemm_time(g) + COPY * copied
            held = copied + buffer
        else:  # the accumulator is the block, copied where a split run stages it
            copied, held, work = acc if split else 0, buffer, gemm_time(g)
        plans.append((node_first, copied, held, work, buffer))
    return tuple(plans)


class Move(NamedTuple):
    """How one step runs: its node's axis order, the operand order, the
    window it runs in or None, the accumulator elements it copies, the
    elements it holds beside its live set, and of those its staging
    buffer's."""

    labels: tuple[Edge, ...]
    node_first: bool
    window: Window | None
    copied: int
    held: int
    buffer: int


class BudgetSpent(Exception):
    """A compile evaluated more moves than its ``Budget`` had left."""


class Budget:
    """The DP move evaluations that compiles may still make between them;
    the compile that makes more raises ``BudgetSpent``."""

    def __init__(self, moves: int) -> None:
        self.moves = moves

    def spend(self, moves: int) -> None:
        self.moves -= moves
        if self.moves < 0:
            raise BudgetSpent


def _search(path, legs, ext, narrow, plain, starts, moves, room, bounded, budget=None):
    """The least-cost first axis order and ``Move`` per step, or None.

    Step ``t`` runs unchunked only where ``plain[t]``; it may also open a
    window of ``starts[t]``, which reads its blocks with the window's axis
    moved to the front (``COPY`` per element unless it leads already), or
    run in the window open before it.  ``room(t, window)`` gives the most
    elements a move may copy, and the most it may hold, beside its live
    set.  Its time is its ``_moves`` estimate and ``CALL``, once per block;
    the node may go first only where ``narrow[t]``.  A DP over (accumulator
    axis order, open window), memoised per step.

    The cost is (copied elements, time), and ``moves`` caches each step's
    moves from a layout, in or out of a window, across calls.  When
    ``bounded``, the cost is (0, time) and only the ``BEAM`` least-cost
    states per open window survive each step.  Given ``budget``, each
    move from a state is spent from it once per node axis order it tries.
    """
    # (result layout, window still open) -> (cost so far, previous key, move)
    layer = {(lay, None): ((0, 0), None, None) for lay in permutations(legs[path[0]])}
    history = []
    for t, q in enumerate(path[1:]):
        best: dict = {}
        rooms: dict = {}
        for (layout, open_), (cost, _, _) in layer.items():
            if open_ is not None:
                options = [(open_, layout, 0)]
            else:
                options = [(None, layout, 0)] if plain[t] else []
                size = prod(ext[e] for e in layout)
                for w in starts[t]:
                    if w.axis in layout:
                        read = 0 if layout[0] == w.axis else COPY * size
                        front = (w.axis,) + tuple(e for e in layout if e != w.axis)
                        options.append((w, front, read))
            for w, lay, read in options:
                blocks = w.blocks if w else 1
                after = None if w is None or w.stop == t else w
                if w not in rooms:
                    rooms[w] = room(t, w)
                most_copied, most_held = rooms[w]
                chunk = (lay, t, w and (w.axis, blocks))
                if chunk not in moves:
                    e = {**ext, w.axis: ext[w.axis] // blocks} if w else ext
                    moves[chunk] = _moves(lay, legs[q], e, narrow[t])
                shared = tuple(lab for lab in lay if lab in legs[q])
                free = tuple(lab for lab in legs[q] if lab not in shared)
                rest = tuple(lab for lab in lay if lab not in shared)
                if budget is not None:
                    budget.spend(len(moves[chunk]) * math.factorial(len(free)))
                for node_first, copied, held, work, buffer in moves[chunk]:
                    # a staged step holds only its buffer but mostly gets
                    # room for its whole copy: on square 4x4 d11 with qubits
                    # 6, 9 and 10 layered, the windows the buffer alone
                    # allows (4 and 8 blocks, peak 7.34M elements) ran no
                    # faster than 8 and 16 blocks (peak 4.20M)
                    if copied > most_copied or held > most_held:
                        continue
                    c = (0 if bounded else cost[0] + copied * blocks,
                         cost[1] + (work + CALL) * blocks + read)
                    for o in permutations(free):
                        labels, result = shared + o, o + rest if node_first else rest + o
                        key = (result, after)
                        old = best.get(key)
                        if old is None or c < old[0]:
                            best[key] = (
                                c, (layout, open_),
                                Move(labels, node_first, w, copied, held, buffer),
                            )
        if not best:
            return None
        if bounded:
            groups: dict = {}
            for key, entry in best.items():
                groups.setdefault(key[1], []).append((key, entry))
            best = dict(chain.from_iterable(
                heapq.nsmallest(BEAM, g, key=lambda kv: kv[1][0]) for g in groups.values()
            ))
        history.append(best)
        layer = best
    key = min(layer, key=lambda k: layer[k][0])
    cost = layer[key][0]
    chosen = []
    for best in reversed(history):
        _, key, move = best[key]
        chosen.append(move)
    return cost, key[0], chosen[::-1]


def compile_program(
    shape: NetworkShape,
    path: list[int],
    peak_bound: int | None = None,
    budget: Budget | None = None,
) -> ContractionProgram | None:
    """Compile ``path`` into the program that contracts networks of
    ``shape``, a slice's shape when edges are cut.

    A DP over the accumulator's axis order, memoised on (step, layout),
    picks the first node's axis order and each step's node axis order and
    operand order.  Its estimated time is each call's ``gemm_time`` (its
    multiplies, the elements its GEMMs read and write, and a staged step's
    copy), ``CALL`` per ``contract_pair`` call, and ``COPY`` per element of
    an accumulator transposed or a window input copied.  Ties go to the
    first move found.

    Without ``peak_bound``, the DP minimises the accumulator elements
    copied, then the estimated time; a copy ranks first because it reads
    and writes the whole accumulator once more, and a transposed one also
    doubles the step's live set.  With it, the DP minimises the estimated
    time of the programs whose ``live_elements`` is at most ``peak_bound``,
    keeping the ``BEAM`` least-time states per open window after each step,
    and the result is None when there are none.  Given ``budget``, the
    DP's move evaluations are spent from it (``_search``), and the compile
    that runs out raises ``BudgetSpent``.  A step that cannot run
    unchunked within the bound may open a window of either of the two
    fewest block counts that hold it, with blocks of extent 2 or more,
    whatever its cost, and a staged step needs room for its whole copy.
    Only where that finds no program may a step whose accumulator a copy
    would not fit beside open one too.  Only where that finds none may a
    window's blocks be single indices and a staged step have room for just
    its buffer, so that a bound at a program's own peak finds one.

    Windows then lower the peak live set by a descent: from the least-cost
    program, the DP runs again below the peak of the last program it
    accepted, offering the windows that fit their slack with the fewest
    blocks that hold the bound, and on a span that the least-cost program
    chunks, the two fewest, one-index blocks included.  It accepts a result
    that copies no more than the least-cost one and whose estimated time
    exceeds the least-cost one's by at most ``WINDOW_SLACK`` of the
    multiplies in its windows; the first it cannot accept ends it.
    """
    if sorted(path) != sorted(shape.nodes):
        raise ValueError("path is not a permutation of the network's qubits")
    ext = shape.edges
    legs = {q: tuple(sorted(shape.open_edges((q,)))) for q in path}
    # the path alone fixes each accumulator's edges, so every size and rank
    opens = list(accumulate((frozenset(legs[q]) for q in path), xor))
    sizes = [prod(ext[e] for e in o) for o in opens]
    nodes = [prod(ext[e] for e in legs[q]) for q in path[1:]]
    elements = [sizes[t] + nodes[t] + sizes[t + 1] for t in range(len(nodes))]
    mults = [
        prod(ext[e] for e in opens[t].union(legs[q])) for t, q in enumerate(path[1:])
    ]
    widest = max((_rank(o, ext) for o in opens[1:]), default=0)
    # a block in a window has its intermediate's rank, or one less where
    # blocks have extent 1, so no rank rises above these
    narrow = [
        max(_rank(opens[t], ext), _rank(legs[q], ext)) <= widest
        for t, q in enumerate(path[1:])
    ]
    m = len(elements)
    bounded = peak_bound is not None

    def live(t: int, w: Window | None) -> int:
        """Step ``t``'s live set before any copy, in window ``w``."""
        if w is None:
            return elements[t]
        i, j, b = w.start, w.stop, w.blocks
        held = sizes[i] + sizes[j + 1] + sum(nodes[i:j + 1])
        return held + (sizes[t] + sizes[t + 1]) // b

    def peak_of(w: Window) -> int:
        """The largest ``live`` set of the steps of ``w``."""
        i, j = w.start, w.stop
        pairs = max(sizes[k] + sizes[k + 1] for k in range(i, j + 1))
        return sizes[i] + sizes[j + 1] + sum(nodes[i:j + 1]) + pairs // w.blocks

    def peak(picked) -> int:
        """The largest live set of the moves ``picked``, with what each holds."""
        return max(
            (live(t, mv.window) + mv.held for t, mv in enumerate(picked)), default=sizes[0]
        )

    def share(t: int, w: Window | None) -> int:
        """Step ``t``'s results in the workspace: its input and result, or
        in ``w`` the window's input and output and one block of each; the
        first node is not among them."""
        if w is None:
            return (sizes[t] if t else 0) + sizes[t + 1]
        i, j = w.start, w.stop
        return (sizes[i] if i else 0) + sizes[j + 1] + (sizes[t] + sizes[t + 1]) // w.blocks

    def space(picked) -> int:
        """The workspace of the moves ``picked``: their largest share."""
        return max((share(t, mv.window) for t, mv in enumerate(picked)), default=0)

    # a merged node, neither a layer node nor beside one, is built as a
    # product and then copied into its axis order: two node-sized arrays
    built = [
        n * (1 if q < 0 or ~q in shape.nodes else 2)
        for q, n in zip(path, [sizes[0], *nodes])
    ]

    def held(picked) -> int:
        """The most a run of the moves ``picked`` holds at once: its
        workspace, and beside it the first node while that is the
        accumulator, the nodes that a step or its window reads, the one it
        builds counted twice when merged, and the copies that the room its
        share leaves in the workspace does not hold."""
        ws = space(picked)
        most = built[0]
        for t, mv in enumerate(picked):
            w = mv.window
            i, j = (w.start, w.stop) if w else (t, t)
            first = sizes[0] if i == 0 else 0
            inside = mv.buffer if ws - share(t, w) >= mv.buffer else 0
            most = max(
                most,
                first + sum(nodes[i:t]) + built[t + 1],
                first + sum(nodes[i:j + 1]) + mv.held - inside,
            )
        return ws + most

    def slack(i: int, j: int) -> float:
        return WINDOW_SLACK * sum(mults[i:j + 1])

    def cheap(w: Window) -> bool:
        """Whether the window's extra calls and input read fit its slack."""
        calls = CALL * (w.blocks - 1) * (w.stop - w.start + 1)
        return calls <= slack(w.start, w.stop) - COPY * sizes[w.start]

    # every window by (start, stop, axis), with the fewest blocks first
    spans: dict[tuple, list[Window]] = {}
    for i in range(m):
        for x in sorted(opens[i]):
            for j in range(i, m):
                if x in legs[path[j + 1]]:
                    break
                spans[i, j, x] = [
                    Window(i, j, x, b)
                    for b in range(2, ext[x] + 1)
                    if ext[x] % b == 0
                ]
    moves: dict = {}

    def within(bound, free=frozenset(), wide=False, fine=frozenset(), whole=True):
        """The least-cost program whose peak is at most ``bound``.

        A window on a span in ``free`` is offered with the two fewest block
        counts that hold the bound; any other only where it fits its slack,
        with the fewest blocks that hold it.  Only a span in ``fine`` may
        be cut into blocks of one index.  A staged step needs room for its
        whole copy when ``whole``, else only for the buffer it holds.
        """
        if sizes[0] > bound:  # step 0's live set holds the first node
            return None
        plain = [e <= bound for e in elements]
        # a window may serve a step that cannot run unchunked, or, when
        # ``wide``, one whose accumulator a copy would not fit beside
        tight = [e + (sizes[t] if wide else 0) > bound for t, e in enumerate(elements)]
        starts = [[] for _ in range(m)]
        covered = set()
        for span, ws in spans.items():
            i, j, x = span
            if span not in fine:
                ws = [w for w in ws if w.blocks < ext[x]]
            if any(tight[i:j + 1]):
                if span in free:
                    # more blocks add calls: on amp-sq16-d11, square 3x3
                    # d12 and 4x4 d10 and sycamore-like 4x5 d14, offering
                    # every count compiled the same programs with up to
                    # 17% more ``_moves`` calls
                    fits = list(islice((w for w in ws if peak_of(w) <= bound), 2))
                else:
                    fits = list(islice((w for w in ws if cheap(w) and peak_of(w) <= bound), 1))
                starts[i] += fits
                covered.update(range(i, j + 1) if fits else ())
        if any(not p and t not in covered for t, p in enumerate(plain)):
            return None
        return _search(
            path, legs, ext, narrow, plain, starts, moves,
            lambda t, w: (bound - live(t, w) if whole else math.inf, bound - live(t, w)),
            bounded, budget,
        )

    if bounded:
        # each offer only where those before find no program: wide offers
        # cost many more DP states (square 3x3 d12 with qubit 4 layered
        # needs them), one-index blocks lead to windows that cannot narrow
        # (square 4x4 d10: peak 1.72M -> 3.15M elements), and the last finds
        # a program at its own peak (amp's layered shape at 2.76M elements)
        found = (
            within(peak_bound, spans)
            or within(peak_bound, spans, wide=True)
            or within(peak_bound, spans, wide=True, fine=spans, whole=False)
        )
        if found is None:
            return None
    else:
        found = within(math.inf)
    (copied, est), _, picked = found
    kept = frozenset(mv.window[:3] for mv in picked if mv.window)
    while True:
        # wide offers: a step's live set may hold the bound while no move's
        # copy fits beside it; without them, the unbounded compiles of
        # square 3x3 d8 (calls and reads free) and d12 kept no window
        chunked = within(peak(found[2]) - 1, kept, wide=True, fine=kept)
        # no more copies, and windows that fit their slack
        if not chunked or chunked[0][0] != copied or chunked[0][1] > est + sum(
            slack(w.start, w.stop) for w in {mv.window for mv in chunked[2] if mv.window}
        ):
            break
        found = chunked

    (_, est), first, picked = found
    steps = tuple(
        Step(q, mv.labels, mv.node_first, e, size)
        for q, mv, e, size in zip(path[1:], picked, elements, sizes[1:])
    )
    chosen = tuple(dict.fromkeys(mv.window for mv in picked if mv.window))
    return ContractionProgram(
        path[0], first, steps, chosen, sum(mults),
        max(_rank(opens[0], ext), widest),
        sum(mv.copied * (mv.window.blocks if mv.window else 1) for mv in picked),
        held(picked),
        peak(picked),
        est,
        space(picked),
    )


# A qubit is absorbed as its two layer nodes where its merged step costs
# at least LAYER_RATIO times their two steps.
LAYER_RATIO = 8

# The layer search (``_layer_more``) makes at most LAYER_MOVES DP move
# evaluations in all its compiles together.
LAYER_MOVES = 60_000


def _layer_steps(
    shape: NetworkShape,
    phi: TNSState,
    psi: TNSState,
    path: list[int],
    cut_edges: tuple[Edge, ...],
) -> dict[int, tuple[int, int, tuple[int, int]]]:
    """Each qubit of ``path`` that may be absorbed as two layer nodes, with
    the multiplies of its merged step, those of its two layer steps in the
    cheaper order, and that order: (q, ~q), phi_q first, or (~q, q).

    With a and b the two states' bond extents, P the accumulator's edges
    to q, F q's other edges and R the accumulator's other edges, the merged
    step costs |R| a_P b_P a_F b_F multiplies.  Absorbing phi_q then psi_q*
    costs 2 |R| b_P a_F (a_P + b_F), and psi_q* first 2 |R| a_P b_F
    (b_P + a_F), so the first node, with P empty, never costs fewer
    layered.  No other step's cost depends on it, so a program's
    multiplies are the path's less what each layered qubit saves.  The
    endpoints of cut edges stay merged, so a slice indexes merged axes
    only.
    """
    a, b = phi.bond_dims, psi.bond_dims
    kept = {q for e in cut_edges for q in e}
    steps = {}
    opened: frozenset[Edge] = frozenset()
    for q in path:
        legs = shape.open_edges((q,))
        if q not in kept:
            r = prod(shape.edges[e] for e in opened - legs)
            ap, bp = (prod(d[e] for e in opened & legs) for d in (a, b))
            af, bf = (prod(d[e] for e in legs - opened) for d in (a, b))
            phi_first, psi_first = 2 * bp * af * (ap + bf), 2 * ap * bf * (bp + af)
            steps[q] = (
                r * ap * bp * af * bf,
                r * min(phi_first, psi_first),
                (q, ~q) if phi_first <= psi_first else (~q, q),
            )
        opened ^= legs
    return steps


def _layered(
    shape: NetworkShape,
    phi: TNSState,
    psi: TNSState,
    path: list[int],
    orders: dict[int, tuple[int, int]],
) -> tuple[NetworkShape, list[int]]:
    """The shape and path that absorb each qubit of ``orders`` as its two
    layer nodes, in its order: each edge at one splits into its phi bond
    and its psi bond, and the two layers share their physical edge."""
    a, b = phi.bond_dims, psi.bond_dims
    edges = {}
    for e, d in shape.edges.items():
        if orders.keys().isdisjoint(e):
            edges[e] = d
        else:
            edges[e] = a[e]
            edges[tuple(~q if q in orders else q for q in e)] = b[e]
    for q in sorted(orders):
        edges[q, ~q] = phi.tensors[q].dims[0]
    nodes = shape.nodes + tuple(~q for q in sorted(orders))
    return NetworkShape(nodes, edges), [v for q in path for v in orders.get(q, (q,))]


def _reference(
    shape: NetworkShape,
    phi: TNSState,
    psi: TNSState,
    path: list[int],
    steps: dict[int, tuple[int, int, tuple[int, int]]],
    peak_bound: int | None,
) -> ContractionProgram | None:
    """The program of ``path`` before the layer search.  Its layered
    qubits are those of ``steps`` whose merged step costs at least
    ``LAYER_RATIO`` times their two layer steps.  Without ``peak_bound``,
    it is the merged program, or the one that layers them within the
    merged program's ``live_elements`` when its estimated time is lower;
    with it, the one that layers them within the bound, else the merged
    one within it, else None."""
    orders = {q: order for q, (merged, layered, order) in steps.items()
              if merged >= LAYER_RATIO * layered}
    if peak_bound is None:
        merged = compile_program(shape, path)
        if not orders:
            return merged
        layered = compile_program(*_layered(shape, phi, psi, path, orders), merged.live_elements)
        return layered if layered is not None and layered.time < merged.time else merged
    if orders:
        layered = compile_program(*_layered(shape, phi, psi, path, orders), peak_bound)
        if layered is not None:
            return layered
    return compile_program(shape, path, peak_bound)


def _layer_more(
    shape: NetworkShape,
    phi: TNSState,
    psi: TNSState,
    path: list[int],
    steps: dict[int, tuple[int, int, tuple[int, int]]],
    program: ContractionProgram,
) -> ContractionProgram:
    """``program``, or a program of ``path`` that layers more of its qubits
    and beats it.

    The candidates are the qubits of ``steps`` whose two layer steps cost
    fewer multiplies than their merged step.  The search compiles the
    program that layers them all within ``program``'s ``live_elements``,
    once, and keeps it when a run of it holds no more than ``program``'s
    ``peak_elements``; while it keeps none, it merges back the candidate
    that saves the fewest multiplies.  The first program kept replaces
    ``program`` when both its estimated time and its multiplies are lower.
    ``program`` stands once the candidates left save no more multiplies
    than the qubits it layers, or once the compiles have made
    ``LAYER_MOVES`` DP move evaluations.
    """
    saved = {q: merged - layered for q, (merged, layered, _) in steps.items() if layered < merged}
    ranked = sorted(saved, key=lambda q: (-saved[q], q))
    floor = sum(saved[q] for q in program.layered)
    budget = Budget(LAYER_MOVES)
    for n in range(len(ranked), 0, -1):
        if sum(saved[q] for q in ranked[:n]) <= floor:
            break
        orders = {q: steps[q][2] for q in ranked[:n]}
        try:
            found = compile_program(
                *_layered(shape, phi, psi, path, orders), program.live_elements, budget
            )
        except BudgetSpent:
            break
        if found is not None and found.peak_elements <= program.peak_elements:
            if found.time < program.time and found.multiplies < program.multiplies:
                return found
            break
    return program


# The programs ``_compile`` returned last in this process, by every input
# it reads but the physical extents, which are 2 on every qubit: a
# circuit's amplitudes share their cuts, path and bond extents, whatever
# their out-strings, and so one program.
PROGRAMS = 8
_programs: dict[tuple, ContractionProgram | None] = {}
_programs_lock = threading.Lock()


def _compile(
    shape: NetworkShape,
    phi: TNSState,
    psi: TNSState,
    path: list[int],
    cut_edges: tuple[Edge, ...],
    peak_bound: int | None = None,
) -> ContractionProgram | None:
    """The program of ``path`` on the slice shape ``shape``: the reference
    program (``_reference``), which the layer search (``_layer_more``) may
    replace with one that layers more qubits, runs within its
    ``peak_elements`` and beats its estimated time and its multiplies.
    Both read one ``_layer_steps`` table.  A cut run's program without a
    bound keeps the reference: it only sets the bound of the slices'
    program and how many slices run at once.

    Memoised on the shape's nodes and extents, the path, the cut edges,
    both states' bond extents and the bound, for the ``PROGRAMS`` most
    recently used."""
    key = (
        shape.nodes, tuple(shape.edges.items()), tuple(path), cut_edges,
        tuple(phi.bond_dims.items()), tuple(psi.bond_dims.items()), peak_bound,
    )
    with _programs_lock:
        cached = key in _programs
        program = _programs.pop(key, None)
    if not cached:
        steps = _layer_steps(shape, phi, psi, path, cut_edges)
        program = _reference(shape, phi, psi, path, steps, peak_bound)
        # a cut run's program without a bound only sets its slices' bound
        if program is not None and (peak_bound is not None or not cut_edges):
            program = _layer_more(shape, phi, psi, path, steps, program)
        # the DP leaves dead cycles (its tuples, about 1 MB on square 3x3
        # d12) that hold heap memory until a full collection, and the
        # workspace would go above them; a collection takes 6-7 ms, so an
        # amplitude that compiles nothing goes without
        gc.collect()
    with _programs_lock:
        _programs[key] = program
        while len(_programs) > PROGRAMS:
            del _programs[next(iter(_programs))]
    return program


def _absorb(
    acc: Tensor,
    node: Tensor,
    step: Step,
    workers: Workers | None,
    out: np.ndarray,
    scratch: np.ndarray,
) -> Tensor:
    pairs = [(acc.axis(lab), i) for i, lab in enumerate(step.labels)
             if lab in acc.labels]
    if step.node_first:
        pairs = [(j, i) for i, j in pairs]
        return contract_pair(node, acc, pairs, out=out, scratch=scratch, workers=workers)
    return contract_pair(acc, node, pairs, out=out, scratch=scratch, workers=workers)


def _split(space: np.ndarray, n: int, high: bool, held: int) -> tuple[np.ndarray, np.ndarray]:
    """``space`` with ``held`` elements taken at one end: the ``n`` at its
    other end, the high one when ``high``, and the room between."""
    if high:
        return space[len(space) - n:], space[held:len(space) - n]
    return space[:n], space[n:len(space) - held]


def _run_window(
    acc: Tensor, high: bool | None, net, steps, window: Window, workspace: np.ndarray,
    workers: Workers | None,
) -> Tensor:
    """The window's steps run on each block of ``acc``'s window axis, moved
    to the front: a view when it leads ``acc``, else a copy of the block.
    Their nodes are read from ``net`` once and held for the whole window.

    ``acc`` sits at the high end of ``workspace`` when ``high``, at its low
    end when not, and outside it when None.  The window's output goes to
    the other end (the high one for an input outside), and each block's
    intermediates alternate between the two ends of the room between; the
    last is copied into its place in the output."""
    nodes = [net.node(step.node, step.labels) for step in steps]
    data = np.moveaxis(acc.data, acc.axis(window.axis), 0)
    labels = (window.axis,) + tuple(e for e in acc.labels if e != window.axis)
    size = len(data) // window.blocks
    held = 0 if high is None else acc.data.size
    out, room = _split(workspace, steps[-1].size, not high, held)
    result = None
    for start in range(0, len(data), size):
        part = data[start:start + size]
        if part.flags["C_CONTIGUOUS"]:
            block, at = Tensor(part, labels), None
        else:
            copy = room[:part.size].reshape(part.shape)
            copy[...] = part
            block, at = Tensor(copy, labels), False
        for step, node in zip(steps, nodes):
            held = 0 if at is None else block.data.size
            at = not at
            block = _absorb(
                block, node, step, workers, *_split(room, step.size // window.blocks, at, held)
            )
        axis = block.axis(window.axis)
        if result is None:
            result = out.reshape(block.dims[:axis] + (len(data),) + block.dims[axis + 1:])
        result[(slice(None),) * axis + (slice(start, start + size),)] = block.data
    return Tensor(result, block.labels)


def contract_along_path(
    net: StateOverlap,
    program: ContractionProgram,
    workspace: np.ndarray | None = None,
    workers: Workers | None = None,
) -> complex:
    """Run ``program`` on ``net``, one slice, and return its scalar.

    Each node is read from ``net`` once, in the axis order the program
    reads it, and released after its step or window.  A step outside
    windows is one ``contract_pair`` call.  A window's steps run once per
    block, so make one call per step per block, each on block-sized
    intermediates.

    Every result is written into ``workspace``, of ``program.workspace``
    elements or more, else into one allocated for this call.  A step's
    result goes to the end of it opposite its input, and a staged step
    copies through the room between when that holds its buffer; the first
    node sits outside it.  Each call may split across ``workers``
    (``contract_pair``).
    """
    if workspace is None:
        workspace = np.empty(program.workspace, dtype=np.complex128)
    acc = net.node(program.first, program.labels)
    high = None  # where acc sits in the workspace; None: outside it
    windows = {w.start: w for w in program.windows}
    t = 0
    while t < len(program.steps):
        w = windows.get(t)
        if w:
            acc = _run_window(
                acc, high, net, program.steps[t:w.stop + 1], w, workspace, workers
            )
            t = w.stop + 1
        else:
            # the node is released with the call, before the next is built
            step = program.steps[t]
            held = 0 if high is None else acc.data.size
            acc = _absorb(
                acc, net.node(step.node, step.labels), step, workers,
                *_split(workspace, step.size, not high, held),
            )
            t += 1
        high = not high
    return acc.scalar()


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


def overlap_states(
    circuit: Circuit,
    in_bits: str,
    out_bits: str,
    split_cycle: int | None = None,
) -> tuple[TNSState, TNSState]:
    """fuse -> two-sided evolution: the states whose overlap network
    contracts to <out_bits|U|in_bits>."""
    fused = fuse_single_qubit_gates(circuit)
    return two_sided_evolve(fused, in_bits, out_bits, split_cycle)


# A run of more than one slice compiles the program it runs on every slice
# within 1 / SLICE_SHARE of the peak of the program it would run otherwise,
# so that as many slices as fit in that peak run at once, one per worker.
# Measured on sliced-sq16-d10 with OpenBLAS on 2 cores, bench/run.py
# --seed 1 in alternating runs: one slice at a time (each large call split
# across the workers) against 1/3 in 10 pairs of 50 s, and 1/2 against 1/3
# in 3 pairs of 25 s, where 1/3 read 0.51-0.59 s:
#
#   bound   wall_s      peak_rss_mb   output
#   none    0.46-0.72   47.9-48.1
#   1/3     0.39-0.60   45.0-45.3     the same bytes
#   1/2     0.49-0.55   51.2-51.3     last bits moved on all 8 out-strings
SLICE_SHARE = 3


def _slices_at_once(whole: ContractionProgram, program: ContractionProgram, count: int) -> int:
    """How many slices on ``program`` run at once, one per worker of
    ``count``: as many as fit in the peak of ``whole``, the program the run
    would use otherwise."""
    return min(count, whole.peak_elements // program.peak_elements)


def _contract_slices(
    net: StateOverlap,
    plan: CutPlan,
    program: ContractionProgram,
    workspace: np.ndarray,
    workers: Workers,
    k: int,
) -> complex:
    """The sum of every slice's scalar, added in slice order, ``k`` slices
    at once: worker j < k contracts one contiguous range of slices in part
    j of ``workspace``, each part ``program.workspace`` long.  Each worker
    holds its cut endpoints in its own copy of ``net``'s held nodes, so
    that it does not rebuild them for every slice after another worker's.
    At k = 1 the calling thread contracts every slice, each call split
    across ``workers``, and adds each scalar as it comes; at k > 1 each
    call runs whole, and the workers keep their scalars until all are
    done."""
    n, size = plan.slice_count, program.workspace
    split = workers if k == 1 else None

    def scalars(j: int):
        own = dataclasses.replace(net, held=dict(net.held))
        part = workspace[j * size:(j + 1) * size]
        for s in range(n * j // k, n * (j + 1) // k):
            yield contract_along_path(
                slice_network(own, plan, s), program, workspace=part, workers=split
            )

    if k == 1:
        return sum(scalars(0))
    ranges: list[list[complex]] = [[]] * k

    def contract(j: int) -> None:
        if j < k:
            ranges[j] = list(scalars(j))

    workers.run(contract)
    return sum(chain.from_iterable(ranges))


def compute_amplitude(
    circuit: Circuit,
    in_bits: str,
    out_bits: str,
    split_cycle: int | None = None,
    cuts: str | list[Edge] | None = "auto",
    max_rank: int | None = None,
) -> AmplitudeStats:
    """Full single-amplitude pipeline.

    two states -> the overlap network's shape -> cut plan, whose one path
    search gives every slice's path -> that path compiled once into a
    program that layers each qubit whose layer steps pay, as many as run
    within the reference program's peak (``_compile``, or the program an
    earlier amplitude of the same shape compiled) -> the network
    (``build_overlap_network``) -> sum of its slices' scalars, in slice
    order (``_contract_slices``).  BLAS runs single-threaded throughout,
    inside the amplitude's ``Workers``.
    Only then is a node built: up front, in qubit order, each node that no
    cut edge touches when there are cuts; every other node when its step
    reads it, a cut endpoint at its slice's size, rebuilt only when the
    values of its cut edges change.  ``cuts`` is "auto", None (no cuts) or
    a list of edges.

    With more than one slice, every slice runs on a program whose live
    sets fit ``1 / SLICE_SHARE`` of the unbounded one's where one does.
    Its k slices at once are as many as fit in the unbounded program's
    peak, at most one per worker (``_slices_at_once``), each in its own
    part of one workspace.  At k = 1 each large call splits across the
    amplitude's ``Workers`` instead.  The program does not depend on the
    worker count, and the scalars are summed in slice order, so the output
    is the same at any thread count.

    ``path_score`` is the program's multiplies per slice, the search's
    score unless a qubit is layered.
    """
    start = time.perf_counter()
    # BLAS runs single-threaded from the evolution on: the SVDs of
    # sycamore-like 4x5 d14 round differently at two BLAS threads
    with Workers() as workers:
        phi, psi = overlap_states(circuit, in_bits, out_bits, split_cycle)
        shape = overlap_shape(phi, psi)
        explicit = None if cuts == "auto" else list(cuts or ())
        plan = plan_cuts(shape, max_rank, explicit)
        path = list(plan.path)
        edges = {e: d for e, d in shape.edges.items() if e not in plan.cut_edges}
        sliced = NetworkShape(shape.nodes, edges)
        whole = program = _compile(sliced, phi, psi, path, plan.cut_edges)
        if plan.slice_count > 1:
            bound = whole.live_elements // SLICE_SHARE
            program = _compile(sliced, phi, psi, path, plan.cut_edges, bound) or whole
        net = build_overlap_network(phi, psi, program, plan.cut_edges)
        k = _slices_at_once(whole, program, workers.count)
        workspace = np.empty(k * program.workspace, dtype=np.complex128)
        total = _contract_slices(net, plan, program, workspace, workers, k)
    ms = (time.perf_counter() - start) * 1e3
    return AmplitudeStats(
        total,
        program.peak_rank,
        program.multiplies * plan.slice_count,
        plan.slice_count,
        path,
        program.multiplies,
        ms,
    )
