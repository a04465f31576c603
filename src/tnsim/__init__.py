"""Tensor-network-states simulator for single amplitudes of random quantum
circuits on arbitrary qubit-connectivity graphs."""

from .circuit import (
    Circuit,
    CircuitGraph,
    Gate,
    SplitGate,
    fuse_single_qubit_gates,
    generate_lattice,
    generate_rqc,
    parse_circuit,
    serialize_circuit,
)
from .network import (
    CutPlan,
    StateOverlap,
    build_overlap_network,
    compile_program,
    compute_amplitude,
    contract_along_path,
    overlap_shape,
    overlap_states,
    plan_cuts,
    slice_network,
)
from .oracle import amplitude_oracle, full_state_evolve
from .pathfind import NetworkShape, find_optimal_path, treewidth_bound
from .tensor import Tensor, contract_pair, contraction_cost, svd_factorize
from .tns import TNSState, apply_gate, compress_edge, evolve, init_state, two_sided_evolve
from .workload import ErrorModel, WorkloadEstimate, estimate_workload

__version__ = "0.1.0"
