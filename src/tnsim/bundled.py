"""Access to the bundled 54-qubit sycamore-like example circuit."""

from __future__ import annotations

from importlib import resources

from .circuit import Circuit, parse_circuit

__all__ = ["load_sycamore54_circuit"]


def load_sycamore54_circuit() -> Circuit:
    """Depth-8 random circuit on the 54-qubit sycamore-like lattice."""
    return parse_circuit(
        resources.files("tnsim.data").joinpath("sycamore54_circuit.json").read_bytes()
    )
