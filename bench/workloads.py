"""The benchmark's workloads: circuits, bitstrings and CLI argument lists.

Everything a run feeds the program comes from ``make_inputs(name, seed)``;
the same seed always gives byte-identical inputs.

Circuits are what ``tnsim gen --lattice square`` makes: ``generate_rqc`` with
its default gates, fSim and single-qubit gates from {sqrt X, sqrt Y, sqrt W}.
The seed picks the gate sequence and the out-strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tnsim import generate_lattice, generate_rqc, serialize_circuit

# distinct out-strings per run; invocation i uses string i % 8
AMPLITUDE_OUTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    lattice: str
    rows: int
    cols: int
    depth: int
    cuts: str | None  # the amplitude command's --cuts; None keeps "auto"
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "amp-sq16-d11", "square", 4, 4, 11, None,
            "one uncut contraction of 3.1e10 multiplies: BLAS rate and peak "
            "memory decide it; search and evolution changes should leave it flat",
        ),
        Workload(
            "sliced-sq16-d10", "square", 4, 4, 10, "5-6",
            "32 small contractions sharing a prefix: shows slice-prefix reuse, "
            "and a change that helps one big contraction but hurts many small ones",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    circuit: bytes
    outs: tuple[str, ...]  # out-string of each distinct invocation, cycled
    argvs: tuple[tuple[str, ...], ...]  # the CLI arguments for each out-string


def make_inputs(name: str, seed: int, circuit_path: str) -> Inputs:
    """Circuit document, out-strings and ``amplitude`` argument lists of
    workload ``name``; ``circuit_path`` is where the caller writes the
    circuit, and the argument lists name it."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    graph = generate_lattice(w.lattice, w.rows, w.cols)
    circuit = generate_rqc(graph, w.depth, int(rng.integers(2**31)))
    n = graph.num_qubits
    outs = tuple(
        "".join("1" if b else "0" for b in rng.integers(0, 2, n))
        for _ in range(AMPLITUDE_OUTS)
    )
    cuts = ("--cuts", w.cuts) if w.cuts else ()
    argvs = tuple(
        ("amplitude", "-c", circuit_path, "--in", "0" * n, "--out", out) + cuts
        for out in outs
    )
    return Inputs(serialize_circuit(circuit), outs, argvs)
