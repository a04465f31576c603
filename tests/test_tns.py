import numpy as np
import pytest

from tnsim import tns
from tnsim.circuit import (
    Circuit,
    CircuitGraph,
    Gate,
    SingleQubitGate,
    cz_matrix,
    edge_key,
    fsim_matrix,
    fuse_single_qubit_gates,
    generate_lattice,
    generate_rqc,
    iswap_matrix,
    split_gate_matrix,
)
from tnsim.oracle import full_state_evolve
from tnsim.tns import (
    PHYS,
    apply_gate,
    compress_edge,
    evolve,
    init_state,
    two_sided_evolve,
)

from conftest import random_bits, random_graph
from oracles import check_invariants


def state_vector(state) -> np.ndarray:
    """Contract a TNS into the 2^N amplitude array (qubit 0 = LSB)."""
    n = state.graph.num_qubits
    acc = None
    labels: list = []
    for q in range(n):
        t = state.tensors[q]
        if acc is None:
            acc, labels = t.data, [PHYS + str(q)] + list(t.labels[1:])
            continue
        t_labels = [PHYS + str(q)] + list(t.labels[1:])
        shared = [lab for lab in labels if lab in t_labels]
        pairs = ([labels.index(s) for s in shared], [t_labels.index(s) for s in shared])
        acc = np.tensordot(acc, t.data, axes=pairs)
        labels = [lab for lab in labels if lab not in shared] + [
            lab for lab in t_labels if lab not in shared
        ]
    order = [labels.index(PHYS + str(q)) for q in reversed(range(n))]
    return acc.transpose(order).reshape(-1)


def gate_stream(circuit) -> list:
    """The circuit's two-qubit gates as ``(pair, matrix)``, in order."""
    return [(g.pair, g.matrix) for cycle in circuit.cycles for g in cycle]


def absorb_uncompressed(state, sg, pair) -> None:
    """What ``apply_gate`` does before it compresses the touched bond."""
    e = edge_key(*pair)
    tns._absorb_factor(state, pair[0], sg.p, e)
    tns._absorb_factor(state, pair[1], sg.q, e)


class TestInitState:
    def test_two_node_path(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "01")
        assert s.tensors[0].dims == (2, 1)
        assert s.tensors[1].dims == (2, 1)
        np.testing.assert_allclose(s.tensors[0].data[:, 0], [1, 0])
        np.testing.assert_allclose(s.tensors[1].data[:, 0], [0, 1])
        assert s.bond_dims == {(0, 1): 1}

    def test_ranks_match_degree_on_big_lattice(self):
        graph = generate_lattice("sycamore-like", 9, 6)
        s = init_state(graph, "0" * 54)
        for q in range(54):
            assert s.tensors[q].rank == 1 + graph.degree(q)
        check_invariants(s)

    def test_recovers_basis_state(self, rnd):
        graph = random_graph(rnd, 5)
        bits = "10110"
        vec = state_vector(init_state(graph, bits))
        expected = np.zeros(32)
        expected[int(bits[::-1], 2)] = 1.0
        np.testing.assert_allclose(vec, expected)

    def test_bad_bitstring(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            init_state(graph, "0")
        with pytest.raises(ValueError):
            init_state(graph, "0x")


class TestApplyGate:
    def test_identity_split_keeps_bond_at_one(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "00")
        sg = split_gate_matrix(np.eye(4, dtype=complex))
        apply_gate(s, sg, (0, 1))
        assert s.bond_dims[(0, 1)] == 1

    @pytest.mark.parametrize(
        "matrix,chi",
        [(cz_matrix(), 2), (iswap_matrix(), 4), (fsim_matrix(0.7, 0.3), 4)],
        ids=["cz", "iswap", "fsim"],
    )
    def test_fresh_pair_bond_at_most_two(self, matrix, chi):
        # acting on fresh product qubits, any chi_o compresses to <= 2
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "00")
        sg = split_gate_matrix(matrix)
        assert sg.rank == chi
        apply_gate(s, sg, (0, 1))
        assert s.bond_dims[(0, 1)] <= 2
        check_invariants(s)

    def test_uncompressed_bond_grows_by_rank(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "00")
        sg = split_gate_matrix(iswap_matrix())
        absorb_uncompressed(s, sg, (0, 1))
        assert s.bond_dims[(0, 1)] == 4

    def test_matches_oracle_after_one_gate(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "10")
        apply_gate(s, split_gate_matrix(iswap_matrix()), (0, 1))
        c = Circuit(graph, ((Gate((0, 1), iswap_matrix()),),))
        np.testing.assert_allclose(
            state_vector(s), full_state_evolve(c, "10"), atol=1e-12
        )

    def test_non_edge_rejected(self):
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        s = init_state(graph, "000")
        with pytest.raises(ValueError, match="not a graph edge"):
            apply_gate(s, split_gate_matrix(cz_matrix()), (0, 2))


class TestCompressEdge:
    def test_never_grows_and_floors_at_one(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "00")
        absorb_uncompressed(s, split_gate_matrix(fsim_matrix(0.7, 0.3)), (0, 1))
        before = state_vector(s)
        compress_edge(s, (0, 1))
        assert 1 <= s.bond_dims[(0, 1)] <= 2
        np.testing.assert_allclose(state_vector(s), before, atol=1e-12)

    def test_preserves_state_on_random_circuit(self, rnd):
        graph = generate_lattice("square", 2, 3)
        c = fuse_single_qubit_gates(generate_rqc(graph, 4, seed=21))
        s = init_state(graph, "000000")
        for pair, matrix in gate_stream(c):
            absorb_uncompressed(s, split_gate_matrix(matrix), pair)
        before = state_vector(s)
        for e in sorted(graph.edges):
            compress_edge(s, e)
        check_invariants(s)
        np.testing.assert_allclose(state_vector(s), before, atol=1e-10)

    def test_diamond_pattern_stays_small(self):
        # repeated gate-compress on one edge: the bond saturates instead of
        # multiplying by the gate rank every cycle
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        s = init_state(graph, "000")
        sg = split_gate_matrix(fsim_matrix(np.pi / 2, np.pi / 6))
        for _ in range(4):
            apply_gate(s, sg, (0, 1))
            apply_gate(s, sg, (1, 2))
        assert s.bond_dims[(0, 1)] == 2
        assert s.bond_dims[(1, 2)] <= 4

    def test_unknown_edge_rejected(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        s = init_state(graph, "00")
        with pytest.raises(ValueError, match="not in graph"):
            compress_edge(s, (0, 2))


class TestEvolve:
    def test_empty_range_is_identity(self):
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 3, seed=1))
        s = init_state(graph, "0000")
        before = state_vector(s)
        evolve(s, [])
        np.testing.assert_allclose(state_vector(s), before)

    def test_forward_matches_oracle(self, rng):
        for seed in range(4):
            graph = generate_lattice("square", 2, 3)
            c = fuse_single_qubit_gates(generate_rqc(graph, 4, seed=seed))
            bits = random_bits(rng, 6)
            s = init_state(graph, bits)
            evolve(s, gate_stream(c))
            np.testing.assert_allclose(
                state_vector(s), full_state_evolve(c, bits), atol=1e-10
            )

    def test_inverse_undoes_forward(self):
        graph = generate_lattice("square", 2, 2)
        c = fuse_single_qubit_gates(generate_rqc(graph, 3, seed=5))
        s = init_state(graph, "0101")
        evolve(s, gate_stream(c))
        evolve(s, [(pair, m.conj().T) for pair, m in reversed(gate_stream(c))])
        expected = np.zeros(16)
        expected[int("0101"[::-1], 2)] = 1.0
        np.testing.assert_allclose(state_vector(s), expected, atol=1e-10)

    def test_norm_is_preserved(self):
        graph = generate_lattice("square", 3, 3)
        c = fuse_single_qubit_gates(generate_rqc(graph, 5, seed=17))
        s = init_state(graph, "0" * 9)
        evolve(s, gate_stream(c))
        assert np.linalg.norm(state_vector(s)) == pytest.approx(1.0, abs=1e-10)

    def test_unfused_circuit_rejected(self):
        graph = generate_lattice("square", 2, 2)
        c = generate_rqc(graph, 2, seed=0)  # has single-qubit layers
        with pytest.raises(ValueError, match="fused"):
            two_sided_evolve(c, "0000", "0000")


class TestTwoSidedEvolve:
    def overlap(self, phi, psi) -> complex:
        return complex(np.vdot(state_vector(psi), state_vector(phi)))

    @pytest.mark.parametrize("split", [0, 2, 4])
    def test_overlap_equals_amplitude(self, split, rng):
        graph = generate_lattice("square", 2, 3)
        c = fuse_single_qubit_gates(generate_rqc(graph, 4, seed=13))
        out = random_bits(rng, 6)
        phi, psi = two_sided_evolve(c, "000000", out, split)
        full = full_state_evolve(c, "000000")
        expected = full[int(out[::-1], 2)]
        assert self.overlap(phi, psi) == pytest.approx(expected, abs=1e-10)

    def test_trailing_rotations_enter_the_ket(self):
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(
            graph,
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(0, 1, H),),
        )
        phi, psi = two_sided_evolve(c, "00", "00", split_cycle=1)
        full = full_state_evolve(c, "00")
        assert self.overlap(phi, psi) == pytest.approx(full[0], abs=1e-12)

    @pytest.mark.parametrize("split", [0, 1])
    def test_moment_depth_gates_enter_the_ket_last_first(self, split):
        # H then S on qubit 0 after the last cycle: they do not commute, so
        # the ket must apply S^dag before H^dag
        H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        S = np.diag([1, 1j])
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(
            graph,
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(0, 1, H), SingleQubitGate(0, 1, S)),
        )
        full = full_state_evolve(c, "10")
        for out in ("00", "10", "01", "11"):
            phi, psi = two_sided_evolve(c, "10", out, split_cycle=split)
            expected = full[int(out[::-1], 2)]
            assert abs(self.overlap(phi, psi) - expected) < 1e-12

    def test_bad_split_cycle(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix()),),))
        with pytest.raises(ValueError, match="split_cycle"):
            two_sided_evolve(c, "00", "00", split_cycle=2)

    def test_bond_dims_stay_modest_at_depth(self):
        graph = generate_lattice("sycamore-like", 9, 6)
        c = fuse_single_qubit_gates(generate_rqc(graph, 8, seed=7))
        phi, psi = two_sided_evolve(c, "0" * 54, "1" * 54)
        assert phi.max_bond() <= 4
        assert psi.max_bond() <= 4
        check_invariants(phi)
        check_invariants(psi)
