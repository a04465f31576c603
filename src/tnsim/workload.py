"""Verification-workload estimation: circuit fidelity under a per-gate
error model and the sample count needed to verify it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import Circuit

__all__ = [
    "SYCAMORE_E1",
    "SYCAMORE_E2",
    "SYCAMORE_EQ",
    "ErrorModel",
    "WorkloadEstimate",
    "WorkloadError",
    "estimate_workload",
]

# error rates of the 53-qubit Sycamore processor
SYCAMORE_E1 = 0.0016
SYCAMORE_E2 = 0.0062
SYCAMORE_EQ = 0.038


class WorkloadError(ValueError):
    """Raised when the fidelity underflows double precision."""

    def __init__(self, message: str, log_fidelity: float):
        super().__init__(message)
        self.log_fidelity = log_fidelity


@dataclass(frozen=True)
class ErrorModel:
    """Per-gate and readout error probabilities."""

    e1: float = SYCAMORE_E1
    e2: float = SYCAMORE_E2
    eq: float = SYCAMORE_EQ

    def __post_init__(self) -> None:
        for name, r in (("e1", self.e1), ("e2", self.e2), ("eq", self.eq)):
            if not 0 <= r < 1:
                raise ValueError(f"{name}={r} outside [0, 1)")


@dataclass(frozen=True)
class WorkloadEstimate:
    fidelity: float
    required_samples: int
    statistical_error: float
    raw_samples: float  # unrounded (3/F)^2


def estimate_workload(circuit: Circuit, model: ErrorModel) -> WorkloadEstimate:
    """Circuit fidelity from per-gate error rates and the sample count needed
    for a 3-sigma-above-zero fidelity estimate: N_s >= (3/F)^2.

    The fidelity product runs over every gate (e1 for single-qubit, e2 for
    two-qubit layers) and every measured qubit (eq); accumulated in the log
    domain so thousands of factors do not underflow.
    """
    n1 = len(circuit.single_qubit)
    n2 = sum(len(c) for c in circuit.cycles)
    log_f = (
        n1 * math.log1p(-model.e1)
        + n2 * math.log1p(-model.e2)
        + circuit.num_qubits * math.log1p(-model.eq)
    )
    fidelity = math.exp(log_f)
    if fidelity == 0.0:
        raise WorkloadError(
            f"fidelity underflows double precision (log F = {log_f})", log_f
        )
    raw = 9.0 * math.exp(-2.0 * log_f)
    samples = math.ceil(raw)
    return WorkloadEstimate(fidelity, samples, 1.0 / math.sqrt(samples), raw)
