"""Command-line entry point.

Subcommands: gen, amplitude, verify, path, estimate-workload.  Every
subcommand is deterministic given its flags and seed; all output records are
UTF-8 JSON lines and failures exit nonzero with a machine-parsable error
line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .circuit import (
    Circuit,
    CircuitFormatError,
    CircuitGraph,
    generate_lattice,
    generate_rqc,
    parse_circuit,
    serialize_circuit,
)
from .network import CutPlanError, compute_amplitude, overlap_network
from .oracle import amplitude_oracle
from .pathfind import NetworkShape, PathSearchError, find_optimal_path
from .workload import (
    SYCAMORE_E1,
    SYCAMORE_E2,
    SYCAMORE_EQ,
    ErrorModel,
    WorkloadError,
    estimate_workload,
)

__all__ = ["main"]

# Sycamore-like lattice sizes from the bundled layouts
SYCAMORE_SIZES = {54: (9, 6), 60: (10, 6), 66: (11, 6), 72: (12, 6), 104: (13, 8)}


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _fail(message: str) -> int:
    print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)
    return 1


def _load_circuit(path: str) -> Circuit:
    with open(path, "rb") as fh:
        return parse_circuit(fh.read())


def _parse_cuts(spec: str | None):
    if spec is None or spec == "auto":
        return spec
    if spec in ("none", ""):
        return None
    edges = []
    for part in spec.split(","):
        k, _, l = part.partition("-")
        edges.append((int(k), int(l)))
    return edges


def _lattice_graph(kind: str, size: int | None, rows: int | None, cols: int | None) -> CircuitGraph:
    if rows is not None and cols is not None:
        return generate_lattice(kind, rows, cols)
    if size is None:
        raise CircuitFormatError("give --size or both --rows and --cols")
    if kind == "sycamore-like":
        if size not in SYCAMORE_SIZES:
            raise CircuitFormatError(
                f"no bundled sycamore-like layout of size {size}; "
                f"known sizes: {sorted(SYCAMORE_SIZES)}"
            )
        return generate_lattice(kind, *SYCAMORE_SIZES[size])
    side = math.isqrt(size)
    if side * side != size:
        raise CircuitFormatError(f"square --size {size} is not a perfect square")
    return generate_lattice(kind, side, side)


def _cmd_gen(args) -> int:
    graph = _lattice_graph(args.lattice, args.size, args.rows, args.cols)
    circuit = generate_rqc(graph, args.depth, args.seed, args.gate_family)
    data = serialize_circuit(circuit)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data + b"\n")
    return 0


def _cmd_amplitude(args) -> int:
    circuit = _load_circuit(args.circuit)
    stats = compute_amplitude(
        circuit,
        args.in_bits,
        args.out_bits,
        split_cycle=args.split_cycle,
        cuts=_parse_cuts(args.cuts),
        max_rank=args.max_rank,
    )
    rec = stats.record(timing=args.timing)
    if args.format == "csv":
        print(",".join(str(rec[k]) for k in sorted(rec)))
    else:
        _emit(rec)
    return 0


def _verify_one(task) -> tuple[str, float]:
    circuit, in_bits, out_bits, use_oracle = task
    # first, so the oracle's qubit cap refuses a circuit before any amplitude
    ref = amplitude_oracle(circuit, in_bits, out_bits) if use_oracle else 0
    amp = compute_amplitude(circuit, in_bits, out_bits).amplitude
    return out_bits, abs(amp - ref)


def _cmd_verify(args) -> int:
    circuit = _load_circuit(args.circuit)
    n = circuit.num_qubits
    rng = np.random.default_rng(args.seed)
    in_bits = "0" * n
    tasks = [
        (circuit, in_bits, "".join(rng.choice(["0", "1"], n)), args.oracle)
        for _ in range(args.samples)
    ]
    workers = args.workers or int(os.environ.get("TNSIM_WORKERS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_one, tasks))
    else:
        results = [_verify_one(t) for t in tasks]
    max_delta = 0.0
    for out_bits, delta in results:
        rec = {"out": out_bits}
        rec["abs_delta" if args.oracle else "abs_amplitude"] = delta
        _emit(rec)
        max_delta = max(max_delta, delta)
    if args.oracle:
        _emit({"max_abs_delta": max_delta, "samples": args.samples})
    return 0


def _cmd_path(args) -> int:
    circuit = _load_circuit(args.circuit)
    n = circuit.num_qubits
    net = overlap_network(circuit, "0" * n, "0" * n, args.split_cycle)
    path, score = find_optimal_path(NetworkShape.from_network(net), args.max_rank)
    _emit({"path": path, "score": str(score)})
    return 0


def _cmd_estimate_workload(args) -> int:
    circuit = _load_circuit(args.circuit)
    model = ErrorModel(args.e1, args.e2, args.eq)
    est = estimate_workload(circuit, model)
    _emit(
        {
            "fidelity": est.fidelity,
            "required_samples": est.required_samples,
            "raw_samples": est.raw_samples,
            "statistical_error": est.statistical_error,
        }
    )
    return 0


def build_parser(defaults: dict[str, dict] | None = None) -> argparse.ArgumentParser:
    """``defaults`` maps a subcommand to values replacing its flag defaults."""
    parser = argparse.ArgumentParser(
        prog="tnsim",
        description="Single-amplitude random-quantum-circuit simulator on "
        "arbitrary connectivity graphs",
    )
    parser.add_argument(
        "--config", help="JSON file with flag defaults for the subcommand"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random circuit file")
    p.add_argument("--lattice", choices=["sycamore-like", "square"], required=True)
    p.add_argument("--size", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gate-family", choices=["fsim", "cz", "iswap"], default="fsim")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("amplitude", help="compute one amplitude")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--in", dest="in_bits", required=True)
    p.add_argument("--out", dest="out_bits", required=True)
    p.add_argument("--cuts", default="auto", help="auto | none | k-l,k-l,...")
    p.add_argument("--max-rank", type=int)
    p.add_argument("--split-cycle", type=int)
    p.add_argument("--timing", action="store_true", help="include wall_time_ms")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_amplitude)

    p = sub.add_parser("verify", help="cross-check amplitudes against the oracle")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("path", help="contraction path for a circuit's overlap network")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--max-rank", type=int)
    p.add_argument("--split-cycle", type=int)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("estimate-workload", help="fidelity and sample count")
    p.add_argument("-c", "--circuit", required=True)
    p.add_argument("--e1", type=float, default=SYCAMORE_E1)
    p.add_argument("--e2", type=float, default=SYCAMORE_E2)
    p.add_argument("--eq", type=float, default=SYCAMORE_EQ)
    p.set_defaults(func=_cmd_estimate_workload)

    for command, values in (defaults or {}).items():
        sub.choices[command].set_defaults(**values)
    return parser


def _read_config(args, path: str) -> dict:
    """The JSON object in ``path`` as flag values for ``args.command``; a key
    naming no flag of the subcommand is an error."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path}: top level must be an object")
    flags = set(vars(args)) - {"command", "config", "func"}
    values = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise ValueError(
                f"config {path}: unknown key {key!r} for {args.command}"
            )
        values[attr] = value
    return values


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # config values replace the built-in defaults; given flags win
            config = _read_config(args, args.config)
            args = build_parser({args.command: config}).parse_args(argv)
        return args.func(args)
    except (
        CircuitFormatError,
        CutPlanError,
        PathSearchError,
        WorkloadError,
        ValueError,
        OSError,
    ) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
