import numpy as np
import pytest

from tnsim.circuit import (
    Circuit,
    CircuitGraph,
    Gate,
    SingleQubitGate,
    cz_matrix,
    generate_lattice,
    generate_rqc,
    iswap_matrix,
)
from tnsim.oracle import (
    OracleCapError,
    amplitude_oracle,
    full_state_evolve,
)

from conftest import random_bits

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def two_qubit_graph() -> CircuitGraph:
    return CircuitGraph(2, frozenset({(0, 1)}))


class TestFullStateEvolve:
    def test_empty_circuit_is_identity(self):
        c = Circuit(two_qubit_graph(), ())
        state = full_state_evolve(c, "10")
        expected = np.zeros(4)
        expected[1] = 1.0  # qubit 0 = LSB, so "10" means qubit 0 is |1>
        np.testing.assert_allclose(state, expected)

    def test_hadamard_superposition(self):
        c = Circuit(two_qubit_graph(), (), (SingleQubitGate(0, 0, H),))
        state = full_state_evolve(c, "00")
        np.testing.assert_allclose(
            state, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0], atol=1e-15
        )

    def test_cz_after_hadamards(self):
        # CZ (H x H) |00> = (|00> + |01> + |10> - |11>) / 2
        c = Circuit(
            two_qubit_graph(),
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(0, 0, H), SingleQubitGate(1, 0, H)),
        )
        state = full_state_evolve(c, "00")
        np.testing.assert_allclose(state, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_iswap_swaps_with_phase(self):
        c = Circuit(two_qubit_graph(), ((Gate((0, 1), iswap_matrix()),),))
        assert amplitude_oracle(c, "10", "01") == pytest.approx(1j)
        assert amplitude_oracle(c, "10", "10") == pytest.approx(0)

    def test_trailing_gate_applied(self):
        # a moment == depth gate acts after the last cycle
        c = Circuit(
            two_qubit_graph(),
            ((Gate((0, 1), cz_matrix()),),),
            (SingleQubitGate(0, 1, H),),
        )
        assert amplitude_oracle(c, "00", "10") == pytest.approx(1 / np.sqrt(2))

    def test_norm_preserved_on_random_circuit(self, rng):
        graph = generate_lattice("square", 2, 3)
        c = generate_rqc(graph, 5, seed=3)
        state = full_state_evolve(c, random_bits(rng, 6))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_gate_order_within_cycle_is_irrelevant(self):
        # gates in one cycle act on disjoint pairs, so they commute
        graph = CircuitGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
        g1 = Gate((0, 1), iswap_matrix())
        g2 = Gate((2, 3), cz_matrix())
        a = full_state_evolve(Circuit(graph, ((g1, g2),)), "1010")
        b = full_state_evolve(Circuit(graph, ((g2, g1),)), "1010")
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestAmplitudeOracle:
    def test_sums_to_unit_probability(self, rng):
        graph = generate_lattice("square", 2, 2)
        c = generate_rqc(graph, 4, seed=9)
        total = sum(
            abs(amplitude_oracle(c, "0000", format(i, "04b")[::-1])) ** 2
            for i in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_qubit_cap_enforced(self):
        graph = CircuitGraph(27, frozenset((i, i + 1) for i in range(26)))
        c = Circuit(graph, ())
        with pytest.raises(OracleCapError, match="27"):
            amplitude_oracle(c, "0" * 27, "0" * 27)

    def test_bad_bitstring_rejected(self):
        c = Circuit(two_qubit_graph(), ())
        with pytest.raises(ValueError, match="bad bitstring"):
            amplitude_oracle(c, "0", "00")
        with pytest.raises(ValueError, match="bad bitstring"):
            amplitude_oracle(c, "00", "0x")
