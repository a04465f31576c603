"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the library and prints a single
PASS/FAIL line (past pytest's capture) so a plain ``pytest`` run leaves an
auditable one-line-per-criterion record.
"""

import itertools
import random
import sys

import numpy as np
import pytest

from tnsim.circuit import (
    Circuit,
    CircuitGraph,
    Gate,
    cz_matrix,
    fsim_matrix,
    fuse_single_qubit_gates,
    generate_lattice,
    generate_rqc,
    iswap_matrix,
    split_gate_matrix,
)
from tnsim.cli import main
from tnsim.network import (
    StateOverlap,
    build_overlap_network,
    compile_program,
    compute_amplitude,
    contract_along_path,
    overlap_shape,
    plan_cuts,
    slice_network,
)
from tnsim.oracle import amplitude_oracle, full_state_evolve
from tnsim.pathfind import NetworkShape, find_optimal_path, treewidth_bound
from tnsim.tns import apply_gate, init_state, two_sided_evolve
from tnsim.workload import ErrorModel, estimate_workload

from conftest import random_bits
from oracles import exhaustive_path_oracle, unpruned
from test_tns import state_vector


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, written past pytest's capture."""

    def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] criterion {num:2d}: {name}"
        if detail:
            line += f" -- {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return _report


LATTICES = [
    ("square", 2, 3),
    ("square", 2, 4),
    ("square", 3, 3),
    ("square", 2, 5),
    ("square", 3, 4),
    ("square", 2, 7),
    ("sycamore-like", 2, 3),
    ("sycamore-like", 2, 4),
    ("sycamore-like", 3, 3),
    ("sycamore-like", 2, 5),
    ("sycamore-like", 3, 4),
    ("sycamore-like", 2, 7),
]

FAMILIES = ["cz", "iswap", "fsim"]


def test_criterion_01_oracle_equivalence(report):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    cases = 0
    for i in range(200):
        kind, rows, cols = LATTICES[i % len(LATTICES)]
        family = FAMILIES[i % len(FAMILIES)]
        graph = generate_lattice(kind, rows, cols)
        n = graph.num_qubits
        depth = int(rng.integers(2, 9))
        circuit = generate_rqc(graph, depth, seed=1000 + i, gate_family=family)
        in_bits = random_bits(rng, n)
        out_bits = random_bits(rng, n)
        got = compute_amplitude(circuit, in_bits, out_bits).amplitude
        ref = amplitude_oracle(circuit, in_bits, out_bits)
        worst = max(worst, abs(got - ref))
        cases += 1
    ok = cases == 200 and worst <= 1e-10
    report(1, "oracle equivalence", ok, f"{cases} cases, max |delta| = {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_02_fresh_qubit_bond_bound(report):
    gates = {
        "cz": (cz_matrix(), 2),
        "iswap": (iswap_matrix(), 4),
        "fsim": (fsim_matrix(np.pi / 2, np.pi / 6), 4),
    }
    rng = np.random.default_rng(7)
    violations = 0
    checked = 0
    for kind, rows, cols in LATTICES:
        graph = generate_lattice(kind, rows, cols)
        bits = random_bits(rng, graph.num_qubits)
        for name, (matrix, chi) in gates.items():
            sg = split_gate_matrix(matrix)
            assert sg.rank == chi
            for e in sorted(graph.edges):
                state = init_state(graph, bits)  # both qubits fresh
                apply_gate(state, sg, e)
                checked += 1
                if state.bond_dims[e] > 2:
                    violations += 1
    ok = violations == 0
    report(2, "fresh-pair bond bound", ok,
           f"{checked} gate applications, {violations} bonds above 2")
    assert ok


def test_criterion_03_gate_split_ranks(report):
    cases = [
        ("cz", cz_matrix(), 2),
        ("iswap", iswap_matrix(), 4),
        ("fsim", fsim_matrix(0.83, 0.41), 4),
        ("identity", np.eye(4, dtype=complex), 1),
    ]
    worst = 0.0
    ok = True
    for _, matrix, expected in cases:
        sg = split_gate_matrix(matrix)
        ok = ok and sg.rank == expected
        rebuilt = np.einsum("iks,jls->ijkl", sg.p.data, sg.q.data).reshape(4, 4)
        worst = max(worst, float(np.abs(rebuilt - matrix).max()))
    ok = ok and worst <= 1e-12
    report(3, "gate-split ranks", ok,
           f"cz=2 iswap=4 fsim=4 identity=1, max reconstruction error {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_04_two_sided_consistency(report):
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(50):
        kind, rows, cols = LATTICES[i % len(LATTICES)]
        graph = generate_lattice(kind, rows, cols)
        n = graph.num_qubits
        if n > 12:
            graph = generate_lattice(kind, 2, 5)
            n = graph.num_qubits
        depth = int(rng.integers(2, 9))
        circuit = generate_rqc(graph, depth, seed=2000 + i)
        in_bits, out_bits = random_bits(rng, n), random_bits(rng, n)
        amps = [
            compute_amplitude(circuit, in_bits, out_bits, split_cycle=s,
                              cuts=None).amplitude
            for s in (0, depth // 2, depth)
        ]
        for a, b in itertools.combinations(amps, 2):
            worst = max(worst, abs(a - b))
    ok = worst <= 1e-10
    report(4, "two-sided split consistency", ok,
           f"50 circuits x 3 split points, max pairwise |delta| = {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_05_slice_sum_identity(report):
    rnd = random.Random(55)
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(50):
        kind, rows, cols = LATTICES[i % len(LATTICES)]
        graph = generate_lattice(kind, rows, cols)
        n = graph.num_qubits
        circuit = generate_rqc(graph, rnd.randint(2, 6), seed=3000 + i)
        fused = fuse_single_qubit_gates(circuit)
        phi, psi = two_sided_evolve(fused, random_bits(rng, n), random_bits(rng, n))
        shape = overlap_shape(phi, psi)
        order, _ = find_optimal_path(shape)
        whole = contract_along_path(StateOverlap(phi, psi), compile_program(shape, order))
        edges = rnd.sample(sorted(shape.edges), rnd.randint(1, 3))
        plan = plan_cuts(shape, explicit_edges=edges)
        kept = {e: d for e, d in shape.edges.items() if e not in plan.cut_edges}
        program = compile_program(NetworkShape(shape.nodes, kept), order)
        # the network compute_amplitude slices
        net = build_overlap_network(phi, psi, program, plan.cut_edges)
        total = sum(
            contract_along_path(slice_network(net, plan, s), program)
            for s in range(plan.slice_count)
        )
        worst = max(worst, abs(total - whole))
    ok = worst <= 1e-12
    report(5, "slice-sum identity", ok,
           f"50 networks with 1-3 cuts, max |sum - uncut| = {worst:.2e} (tol 1e-12)")
    assert ok


def _all_connected_shapes_upto_4(rnd: random.Random):
    for n in (2, 3, 4):
        all_edges = list(itertools.combinations(range(n), 2))
        for r in range(n - 1, len(all_edges) + 1):
            for subset in itertools.combinations(all_edges, r):
                adj = {q: set() for q in range(n)}
                for k, l in subset:
                    adj[k].add(l)
                    adj[l].add(k)
                seen, stack = {0}, [0]
                while stack:
                    for nb in adj[stack.pop()]:
                        if nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
                if len(seen) != n:
                    continue
                edges = {e: rnd.choice([2, 4]) for e in subset}
                yield NetworkShape(tuple(range(n)), edges)


def test_criterion_06_path_search_exactness(report):
    from conftest import random_network_shape

    rnd = random.Random(66)
    shapes = list(_all_connected_shapes_upto_4(rnd))
    shapes += [random_network_shape(rnd, rnd.randint(5, 8)) for _ in range(40)]
    mismatches = 0
    for shape in shapes:
        with unpruned():
            _, got = find_optimal_path(shape)
        _, best = exhaustive_path_oracle(shape)
        if got != best:
            mismatches += 1
    ok = mismatches == 0
    report(6, "unpruned search exactness", ok,
           f"{len(shapes)} connected networks, {mismatches} score mismatches")
    assert ok


def _grid_shape(rows: int, cols: int, extent: int) -> NetworkShape:
    edges = {}
    for i in range(rows):
        for j in range(cols):
            q = i * cols + j
            if j + 1 < cols:
                edges[(q, q + 1)] = extent
            if i + 1 < rows:
                edges[(q, q + cols)] = extent
    return NetworkShape(tuple(range(rows * cols)), edges)


def test_criterion_07_pruned_search_quality(report):
    results = []
    ok = True
    for rows, cols in ((3, 3), (4, 4)):
        shape = _grid_shape(rows, cols, 4)
        cap = treewidth_bound(shape) + 1
        path, pruned = find_optimal_path(shape, max_rank=cap)
        ok = ok and sorted(path) == list(shape.nodes)
        if rows * cols <= 10:
            _, optimal = exhaustive_path_oracle(shape)
        else:
            # the unpruned priority-queue search is exact
            with unpruned():
                _, optimal = find_optimal_path(shape)
        results.append(f"{rows}x{cols}: {pruned}/{optimal} = {pruned / optimal:.3f}")
        ok = ok and pruned >= optimal
    report(7, "pruned search quality", ok, "score ratios " + "; ".join(results))
    assert ok


def _sycamore53_graph() -> CircuitGraph:
    full = generate_lattice("sycamore-like", 9, 6)
    edges = frozenset(e for e in full.edges if 53 not in e)
    return CircuitGraph(53, edges)


def test_criterion_08_workload_estimator(report):
    model = ErrorModel()  # e1=0.16%, e2=0.62%, eq=3.8%
    bare = CircuitGraph(53, frozenset((i, i + 1) for i in range(52)))
    est = estimate_workload(Circuit(bare, ()), model)
    f_err = abs(est.fidelity - (1 - 0.038) ** 53)
    graph = _sycamore53_graph()
    samples = [
        estimate_workload(generate_rqc(graph, d, seed=1), model).required_samples
        for d in range(5, 12)
    ]
    increasing = all(a < b for a, b in zip(samples, samples[1:]))
    ok = f_err <= 1e-12 and increasing
    report(8, "workload estimator", ok,
           f"|F - 0.962^53| = {f_err:.2e} (tol 1e-12), "
           f"N_s(d=5..11) = {samples} strictly increasing: {increasing}")
    assert ok


def test_criterion_09_dcd_compression(report):
    graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
    f = fsim_matrix(np.pi / 2, np.pi / 6)
    cycles = (
        (Gate((0, 1), f),),
        (Gate((1, 2), f),),
        (Gate((0, 1), f),),
    )
    circuit = Circuit(graph, cycles)
    state = init_state(graph, "000")
    initial = state.bond_dims[(0, 1)]
    for cycle in cycles:
        for g in cycle:
            apply_gate(state, split_gate_matrix(g.matrix), g.pair)
    bond = state.bond_dims[(0, 1)]
    delta = float(np.abs(state_vector(state) - full_state_evolve(circuit, "000")).max())
    ok = bond < 16 * initial and delta <= 1e-10
    report(9, "DCD boundary compression", ok,
           f"bond (0,1) = {bond} (< {16 * initial}), state error {delta:.2e} (tol 1e-10)")
    assert ok


def test_criterion_10_cli_determinism(tmp_path, capsys, report):
    circuit_path = tmp_path / "c.json"
    gen = ["gen", "--lattice", "square", "--size", "9", "--depth", "4", "--seed", "3"]

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    stable = run(gen) == run(gen)
    assert main(gen + ["-o", str(circuit_path)]) == 0
    amp = ["amplitude", "-c", str(circuit_path), "--in", "0" * 9, "--out", "1" * 9]
    stable = stable and run(amp) == run(amp)
    pth = ["path", "-c", str(circuit_path)]
    stable = stable and run(pth) == run(pth)
    report(10, "CLI determinism", stable,
           "gen/amplitude/path byte-identical across repeated runs")
    assert stable


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
