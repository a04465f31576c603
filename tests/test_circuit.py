import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnsim.circuit import (
    Circuit,
    CircuitFormatError,
    CircuitGraph,
    Gate,
    SingleQubitGate,
    cz_matrix,
    edge_key,
    fsim_matrix,
    fuse_single_qubit_gates,
    generate_lattice,
    generate_rqc,
    identity2,
    iswap_matrix,
    parse_circuit,
    serialize_circuit,
    split_gate_matrix,
)
from tnsim.oracle import amplitude_oracle
from tnsim.pathfind import NetworkShape

from conftest import random_bits


def reconstruct(sg) -> np.ndarray:
    # O[(kp lp), (k l)] = sum_s P[kp, k, s] Q[lp, l, s]
    return np.einsum("iks,jls->ijkl", sg.p.data, sg.q.data).reshape(4, 4)


H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def lattice_shape(g: CircuitGraph) -> NetworkShape:
    return NetworkShape(tuple(range(g.num_qubits)), dict.fromkeys(g.edges, 2))


class TestGateSplit:
    @pytest.mark.parametrize(
        "matrix,rank",
        [
            (cz_matrix(), 2),
            (iswap_matrix(), 4),
            (fsim_matrix(np.pi / 6, np.pi / 3), 4),
            (np.eye(4, dtype=complex), 1),
        ],
        ids=["cz", "iswap", "fsim", "identity"],
    )
    def test_rank_and_reconstruction(self, matrix, rank):
        sg = split_gate_matrix(matrix)
        assert sg.rank == rank
        np.testing.assert_allclose(reconstruct(sg), matrix, atol=1e-12)

    def test_gate_wrapper(self):
        g = Gate((0, 1), cz_matrix(), "cz")
        assert split_gate_matrix(g.matrix).rank == 2

    def test_non_unitary_warns_but_splits(self):
        with pytest.warns(UserWarning, match="non-unitary"):
            sg = split_gate_matrix(np.diag([1, 1, 1, 2.0]))
        np.testing.assert_allclose(reconstruct(sg), np.diag([1, 1, 1, 2.0]), atol=1e-12)

    def test_non_finite_rejected(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(CircuitFormatError, match="finite"):
            split_gate_matrix(m)


class TestFusion:
    def test_noop_without_single_qubit_gates(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix()),),))
        f = fuse_single_qubit_gates(c)
        assert f.single_qubit == ()
        np.testing.assert_allclose(f.cycles[0][0].matrix, cz_matrix())

    def test_h_then_cz(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(
            graph,
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(0, 0, H),),
        )
        f = fuse_single_qubit_gates(c)
        np.testing.assert_allclose(
            f.cycles[0][0].matrix, cz_matrix() @ np.kron(H, np.eye(2)), atol=1e-15
        )

    def test_trailing_only_qubits(self):
        # qubit 2 never sees a two-qubit gate: its rotation must survive
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        c = Circuit(
            graph,
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(2, 1, H),),
        )
        f = fuse_single_qubit_gates(c)
        assert [(sg.qubit, sg.moment) for sg in f.single_qubit] == [(2, f.depth)]
        np.testing.assert_allclose(f.single_qubit[0].matrix, H)

    def test_preserves_unitary_via_oracle(self, rng):
        graph = generate_lattice("square", 2, 2)
        c = generate_rqc(graph, 4, seed=11)
        f = fuse_single_qubit_gates(c)
        for _ in range(6):
            out = random_bits(rng, 4)
            a = amplitude_oracle(c, "0000", out)
            b = amplitude_oracle(f, "0000", out)
            assert abs(a - b) < 1e-12

    def test_dangling_final_folds_into_previous_gate(self, rng):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(
            graph,
            ((Gate((0, 1), iswap_matrix()),),),
            (SingleQubitGate(0, 1, H), SingleQubitGate(1, 1, H)),
        )
        f = fuse_single_qubit_gates(c)
        assert f.single_qubit == ()
        for out in ("00", "01", "10", "11"):
            assert abs(amplitude_oracle(c, "00", out) - amplitude_oracle(f, "00", out)) < 1e-12


class TestLattices:
    def test_square_2x2(self):
        g = generate_lattice("square", 2, 2)
        assert g.num_qubits == 4
        assert len(g.edges) == 4
        assert lattice_shape(g).boundary() == {0, 1, 2, 3}

    def test_square_3x3_center_excluded(self):
        g = generate_lattice("square", 3, 3)
        assert g.degree(4) == 4
        assert 4 not in lattice_shape(g).boundary()

    def test_sycamore_54(self):
        g = generate_lattice("sycamore-like", 9, 6)
        assert g.num_qubits == 54
        assert g.is_connected()
        degs = {g.degree(q) for q in range(54)}
        assert degs <= {1, 2, 3, 4}
        assert 4 in degs  # interior qubits are fully coupled

    def test_too_small(self):
        with pytest.raises(CircuitFormatError):
            generate_lattice("square", 1, 5)

    def test_unknown_kind(self):
        with pytest.raises(CircuitFormatError, match="unknown lattice"):
            generate_lattice("triangular", 3, 3)


class TestGenerateRqc:
    def test_deterministic_bytes(self):
        g = generate_lattice("square", 2, 3)
        a = serialize_circuit(generate_rqc(g, 5, seed=42))
        b = serialize_circuit(generate_rqc(g, 5, seed=42))
        assert a == b

    def test_seed_changes_circuit(self):
        g = generate_lattice("square", 2, 3)
        a = serialize_circuit(generate_rqc(g, 5, seed=42))
        b = serialize_circuit(generate_rqc(g, 5, seed=43))
        assert a != b

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_invariants_over_seeds(self, seed):
        g = generate_lattice("square", 2, 2)
        c = generate_rqc(g, 3, seed=seed)
        for cycle in c.cycles:
            used = set()
            for gate in cycle:
                assert edge_key(*gate.pair) in g.edges
                assert not used & set(gate.pair)
                used |= set(gate.pair)
                assert gate.is_unitary()

    def test_unknown_family(self):
        g = generate_lattice("square", 2, 2)
        with pytest.raises(CircuitFormatError, match="gate family"):
            generate_rqc(g, 2, seed=0, gate_family="xx")


class TestFileFormat:
    def test_round_trip(self):
        g = generate_lattice("square", 2, 4)
        c = generate_rqc(g, 4, seed=5)
        data = serialize_circuit(c)
        c2 = parse_circuit(data)
        assert c2.num_qubits == c.num_qubits
        assert c2.graph.edges == c.graph.edges
        assert c2.depth == c.depth
        assert serialize_circuit(c2) == data
        for cyc1, cyc2 in zip(c.cycles, c2.cycles):
            for g1, g2 in zip(cyc1, cyc2):
                assert g1.pair == g2.pair
                np.testing.assert_allclose(g1.matrix, g2.matrix, atol=1e-15)

    def test_gate_on_non_edge_rejected(self):
        doc = {
            "num_qubits": 3,
            "edges": [[0, 1], [1, 2]],
            "cycles": [[{"pair": [0, 2], "gate": "cz"}]],
            "single_qubit": [],
        }
        with pytest.raises(CircuitFormatError, match=r"\(0, 2\)"):
            parse_circuit(json.dumps(doc))

    def test_duplicate_qubit_in_cycle_rejected(self):
        doc = {
            "num_qubits": 3,
            "edges": [[0, 1], [1, 2]],
            "cycles": [
                [{"pair": [0, 1], "gate": "cz"}, {"pair": [1, 2], "gate": "cz"}]
            ],
            "single_qubit": [],
        }
        with pytest.raises(CircuitFormatError, match="twice"):
            parse_circuit(json.dumps(doc))

    @pytest.mark.parametrize(
        "qubit,moment,message",
        [
            (0, 5, "single_qubit[0]: bad moment 5"),
            (0, -1, "single_qubit[0]: bad moment -1"),
            (7, 0, "single_qubit[0]: bad qubit 7"),
        ],
        ids=["moment-past-depth", "negative-moment", "qubit-out-of-range"],
    )
    def test_single_qubit_range_checked(self, qubit, moment, message):
        # the same check whether the circuit is built in Python or parsed
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        cycles = ((Gate((0, 1), cz_matrix()),),)
        with pytest.raises(CircuitFormatError, match=re.escape(message)):
            Circuit(graph, cycles, (SingleQubitGate(qubit, moment, H),))
        flat = [[z.real, z.imag] for z in H.reshape(-1)]
        doc = {
            "num_qubits": 2,
            "edges": [[0, 1]],
            "cycles": [[{"pair": [0, 1], "gate": "cz"}]],
            "single_qubit": [{"qubit": qubit, "moment": moment, "matrix": flat}],
        }
        with pytest.raises(CircuitFormatError, match=re.escape(message)):
            parse_circuit(json.dumps(doc))

    def test_syntax_error_reports_position(self):
        with pytest.raises(CircuitFormatError, match="line 1"):
            parse_circuit(b'{"num_qubits": }')

    def test_qubit_out_of_range(self):
        doc = {"num_qubits": 2, "edges": [[0, 5]], "cycles": [], "single_qubit": []}
        with pytest.raises(CircuitFormatError, match="out of range"):
            parse_circuit(json.dumps(doc))

    def test_disconnected_graph_rejected(self):
        doc = {"num_qubits": 4, "edges": [[0, 1], [2, 3]], "cycles": [], "single_qubit": []}
        with pytest.raises(CircuitFormatError, match="not connected"):
            parse_circuit(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("edges", [["a", 1]]),
            ("edges", {"0": 1}),
            ("cycles", {"0": []}),
            ("cycles", [5]),
            ("cycles", [["cz"]]),
            ("cycles", [[{"pair": [0, 1], "gate": "fsim", "params": [1, 2]}]]),
            ("cycles", [[{"pair": [0, 1], "gate": "matrix", "matrix": 4}]]),
            ("single_qubit", [[0, 0]]),
        ],
        ids=[
            "edge-endpoint", "edges-object", "cycles-object", "cycle-scalar",
            "gate-string", "fsim-params-list", "matrix-scalar", "single-list",
        ],
    )
    def test_malformed_structure_rejected(self, field, value):
        doc = {"num_qubits": 2, "edges": [[0, 1]], "cycles": [], "single_qubit": []}
        doc[field] = value
        with pytest.raises(CircuitFormatError):
            parse_circuit(json.dumps(doc))

    def test_unknown_gate_name(self):
        doc = {
            "num_qubits": 2,
            "edges": [[0, 1]],
            "cycles": [[{"pair": [0, 1], "gate": "toffoli"}]],
            "single_qubit": [],
        }
        with pytest.raises(CircuitFormatError, match="unknown gate"):
            parse_circuit(json.dumps(doc))

    def test_fused_circuit_round_trips(self, rng):
        # depth 1 on 3x3 leaves some qubits without a two-qubit gate, so the
        # fused circuit keeps single-qubit gates at moment == depth
        c = generate_rqc(generate_lattice("square", 3, 3), 1, seed=4)
        f = fuse_single_qubit_gates(c)
        assert f.single_qubit
        assert all(sg.moment == f.depth for sg in f.single_qubit)
        data = serialize_circuit(f)
        f2 = parse_circuit(data)
        assert serialize_circuit(f2) == data
        for _ in range(6):
            out = random_bits(rng, 9)
            ref = amplitude_oracle(c, "0" * 9, out)
            assert abs(amplitude_oracle(f2, "0" * 9, out) - ref) < 1e-12

    def test_readme_example_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (block,) = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        c = parse_circuit(block)
        assert c.depth == len(json.loads(block)["cycles"])
