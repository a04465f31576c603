"""In-memory span tracer wrapped around tnsim's layer functions.

Each traced function is replaced on the module object that looks it up at
call time, so ``src/`` stays untouched.  A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the enclosing
span (-1 for a root) and ``op`` the id of the CLI invocation it belongs to.
Observers record counts next to the spans without adding a span.
"""

from __future__ import annotations

import time
from collections import defaultdict

import tnsim.cli
import tnsim.network
import tnsim.tns
from tnsim.tensor import contraction_cost


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[self.op][key] += value

    def peak(self, key: str, value: float) -> None:
        c = self.counters[self.op]
        c[key] = max(c[key], value)

    def set(self, key: str, value: float) -> None:
        self.counters[self.op][key] = value

    def wrap(self, fn, name: str | None, before=None, after=None):
        """``fn`` inside a span called ``name`` (no span when None).

        ``before(args)`` runs ahead of the span and ``after(result)`` behind
        it, so their cost falls on the caller's self time.
        """

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
            if after is not None:
                after(result)
            return result

        return traced


def self_times(spans: list[list]) -> dict[tuple[int, str], float]:
    """Summed self time per (op, span name): each span's duration minus the
    durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[tuple[int, str], float] = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[op, name] += (end - start) - child[i]
    return dict(out)


def install(tracer: Tracer):
    """Wrap every traced layer function; returns a callable that undoes it."""

    def bonds(result):
        phi, psi = result
        tracer.peak("tns.max_bond_phi", phi.max_bond())
        tracer.peak("tns.max_bond_psi", psi.max_bond())

    def nrank(t) -> int:
        return sum(1 for d in t.dims if d > 1)

    # multiplies and ranks are counted on every contraction the network
    # layer makes, not taken from the statistics it reports about itself
    def pair_cost(args):
        a, b, pairs = args
        tracer.add("network.multiplies", contraction_cost(a.dims, b.dims, pairs))
        tracer.peak("network.peak_rank", nrank(a))

    def pair_rank(result):
        tracer.peak("network.peak_rank", nrank(result))

    def amplitude(stats):
        tracer.add("network.predicted", stats.path_score * stats.slice_count)

    def searched(result):
        tracer.set("pathfind.score", result[1])

    # (module that calls it, attribute, span name, before, after)
    table = [
        (tnsim.cli, "parse_circuit", "circuit.parse", None, None),
        (tnsim.cli, "compute_amplitude", None, None, amplitude),
        (tnsim.network, "fuse_single_qubit_gates", "circuit.fuse", None, None),
        (tnsim.tns, "split_gate_matrix", "circuit.split", None, None),
        (tnsim.network, "two_sided_evolve", "tns.evolve", None, bonds),
        (tnsim.tns, "apply_gate", None,
         lambda args: tracer.add("tns.apply_gate_calls", 1), None),
        (tnsim.tns, "compress_edge", "tns.compress", None, None),
        (tnsim.tns, "svd_factorize", "tensor.svd", None, None),
        (tnsim.network, "build_overlap_network", "network.overlap", None, None),
        (tnsim.network, "plan_cuts", "network.plan", None, None),
        (tnsim.network, "find_optimal_path", "pathfind.search", None, searched),
        (tnsim.network, "slice_network", "network.slice", None, None),
        (tnsim.network, "contract_along_path", "network.contract", None, None),
        (tnsim.network, "contract_pair", "tensor.contract", pair_cost, pair_rank),
    ]
    saved = []
    for module, attr, name, before, after in table:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, name, before, after))

    def restore() -> None:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return restore
