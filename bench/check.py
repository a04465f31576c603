"""Checks of the CLI's outputs against the brute-force oracle.

Amplitudes are compared with ``tnsim.oracle.full_state_evolve``; one
evolution per circuit covers every out-string, and the amplitudes a run needs
are cached by circuit hash.
"""

from __future__ import annotations

import hashlib
import json
import os

from tnsim import parse_circuit
from tnsim.oracle import full_state_evolve

TOLERANCE = 1e-10


def _bit_index(bits: str) -> int:
    # qubit 0 is the least significant bit of the oracle's state index
    return sum(1 << q for q, b in enumerate(bits) if b == "1")


def oracle_amplitudes(
    circuit_doc: bytes, outs: set[str], cache_dir: str
) -> dict[str, complex]:
    """<out|U|0...0> for every string in ``outs``, from the on-disk cache
    when it holds them all, else from one full-state evolution."""
    key = hashlib.sha256(circuit_doc).hexdigest()[:16]
    path = os.path.join(cache_dir, f"oracle-{key}.json")
    cached: dict[str, list[float]] = {}
    if os.path.exists(path):
        with open(path) as fh:
            cached = json.load(fh)
    if not outs <= cached.keys():
        circuit = parse_circuit(circuit_doc)
        state = full_state_evolve(circuit, "0" * circuit.num_qubits)
        for bits in outs:
            amp = state[_bit_index(bits)]
            cached[bits] = [float(amp.real), float(amp.imag)]
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(cached, fh, sort_keys=True)
        os.replace(tmp, path)
    return {bits: complex(*cached[bits]) for bits in outs}


def check_amplitude(stdout: str, expected: complex) -> str | None:
    """Why an ``amplitude`` output misses ``expected``, or None."""
    try:
        amp = complex(*json.loads(stdout)["amplitude"])
    except (ValueError, KeyError, TypeError):
        return f"expected one amplitude record, got {stdout[:200]!r}"
    if not abs(amp - expected) <= TOLERANCE:
        return f"amplitude {amp} differs from oracle {expected}"
    return None


def error_of(rec: dict) -> str | None:
    """Why one invocation failed before its output is looked at, or None."""
    if rec["rc"] != 0:
        # the last lines of stderr name the error, also after a traceback
        return f"exit code {rec['rc']}: {rec['stderr'].strip()[-200:]}"
    for line in rec["stderr"].splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "error" in doc:
            return f"error record: {doc['error']}"
    return None
