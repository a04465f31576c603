"""Brute-force Schrodinger full-state simulator.

Correctness oracle for the tensor-network pipeline.  Deliberately shares no
contraction code with the tensor module: gates act directly on the 2^N
amplitude array via raw numpy index manipulation.

Qubit 0 is the least significant bit of the amplitude index.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit

__all__ = ["QUBIT_CAP", "OracleCapError", "full_state_evolve", "amplitude_oracle"]

QUBIT_CAP = 26  # ~1 GiB of complex amplitudes


class OracleCapError(ValueError):
    """Raised when a circuit exceeds the oracle's qubit cap."""


def _as_qubit_axes(state: np.ndarray, n: int) -> np.ndarray:
    # axis i corresponds to qubit n-1-i (most significant first, C order)
    return state.reshape((2,) * n)


def _apply_single(state: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    t = _as_qubit_axes(state, n)
    ax = n - 1 - q
    t = np.tensordot(np.asarray(u, dtype=np.complex128), t, axes=([1], [ax]))
    t = np.moveaxis(t, 0, ax)
    return t.reshape(-1)


def _apply_two(
    state: np.ndarray, n: int, k: int, l: int, m: np.ndarray
) -> np.ndarray:
    # m is indexed (sigma_k' sigma_l') x (sigma_k sigma_l), sigma_k major
    t = _as_qubit_axes(state, n)
    axk, axl = n - 1 - k, n - 1 - l
    g = np.asarray(m, dtype=np.complex128).reshape(2, 2, 2, 2)
    t = np.tensordot(g, t, axes=([2, 3], [axk, axl]))
    # result axes: (sigma_k', sigma_l', rest...); restore positions
    rest = [a for a in range(n) if a not in (axk, axl)]
    order = {axk: 0, axl: 1}
    for i, a in enumerate(rest):
        order[a] = i + 2
    inv = [order[a] for a in range(n)]
    t = t.transpose(inv)
    return t.reshape(-1)


def _bit_index(bits: str) -> int:
    return sum(1 << q for q, b in enumerate(bits) if b == "1")


def _check(circuit: Circuit, bits: str) -> None:
    n = circuit.num_qubits
    if n > QUBIT_CAP:
        raise OracleCapError(f"{n} qubits exceeds oracle cap {QUBIT_CAP}")
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"bad bitstring {bits!r} for {n} qubits")


def full_state_evolve(circuit: Circuit, in_bits: str) -> np.ndarray:
    """Evolve |in_bits> through the full circuit by direct matrix action."""
    _check(circuit, in_bits)
    n = circuit.num_qubits
    state = np.zeros(1 << n, dtype=np.complex128)
    state[_bit_index(in_bits)] = 1.0

    by_moment: dict[int, list] = {}
    for sg in circuit.single_qubit:
        by_moment.setdefault(sg.moment, []).append(sg)

    for m in range(circuit.depth + 1):
        for sg in by_moment.get(m, ()):
            state = _apply_single(state, n, sg.qubit, sg.matrix)
        if m == circuit.depth:
            break
        for g in circuit.cycles[m]:
            state = _apply_two(state, n, g.pair[0], g.pair[1], g.matrix)
    return state


def amplitude_oracle(circuit: Circuit, in_bits: str, out_bits: str) -> complex:
    """<out_bits| U |in_bits> by full state evolution."""
    _check(circuit, out_bits)
    state = full_state_evolve(circuit, in_bits)
    return complex(state[_bit_index(out_bits)])
