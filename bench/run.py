"""Benchmark of tnsim's amplitude pipeline through its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run makes its inputs from the
seed, times set-up in fresh child processes, then drives
``tnsim.cli.main(argv)`` in one more child for about S seconds, checks every
output, and prints the metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs half the time untraced and
half traced and reports the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NPROC = len(os.sched_getaffinity(0))
# BLAS threads are pinned only through the environment, here and in children
THREAD_ENV = {
    var: str(NPROC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

# set-up is timed in 4 set-up-only children and in the measuring child (False)
SETUP_ORDER = (True, True, False, True, True)
RUN_LIMIT = 165.0  # seconds; a run must end within 180


def _spawn(job: dict, job_path: Path) -> tuple[float, subprocess.Popen]:
    """Start a child on ``job``; returns its set-up time and the process."""
    job_path.write_text(json.dumps(job))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(job_path)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not start (exit code {proc.returncode})")
    return setup, proc


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child ran longer than {timeout} s") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")


def machine_record(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": NPROC,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "blas": blas_name,
        "blas_threads": NPROC,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def _check_all(inputs, invocations) -> list[str | None]:
    """One entry per invocation: None when correct, else why it failed."""
    from check import check_amplitude, error_of, oracle_amplitudes

    expected = oracle_amplitudes(inputs.circuit, set(inputs.outs), str(OUT / "cache"))
    return [
        error_of(rec)
        or check_amplitude(rec["stdout"], expected[inputs.outs[rec["argv"]]])
        for rec in invocations
    ]


END_TO_END_UNITS = {
    "wall_s": "s", "amplitudes_per_s": "amp/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def end_to_end(untraced, setups, peak_rss_kb) -> dict:
    wall = statistics.median(r["seconds"] for r in untraced)
    values = {
        "wall_s": wall,
        "amplitudes_per_s": 1 / wall,  # each invocation returns one
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    return {m: (v, END_TO_END_UNITS[m]) for m, v in values.items()}


# per-layer metric -> span whose summed self time it is
SELF_TIME = {
    "circuit.parse_s": "circuit.parse",
    "circuit.fuse_s": "circuit.fuse",
    "circuit.split_s": "circuit.split",
    "tns.evolve_s": "tns.evolve",
    "tns.compress_s": "tns.compress",
    "tensor.svd_s": "tensor.svd",
    "tensor.contract_s": "tensor.contract",
    "network.overlap_s": "network.overlap",
    "network.plan_s": "network.plan",
    "network.slice_s": "network.slice",
    "network.contract_s": "network.contract",
    "pathfind.search_s": "pathfind.search",
    "cli.self_s": "cli",
}
# per-layer metric -> span whose calls it counts
CALLS = {
    "circuit.parse_calls": "circuit.parse",
    "circuit.fuse_calls": "circuit.fuse",
    "circuit.split_calls": "circuit.split",
    "tensor.svd_calls": "tensor.svd",
    "tensor.contract_calls": "tensor.contract",
    "network.slices": "network.slice",
    "pathfind.search_calls": "pathfind.search",
}
# per-layer metric -> unit, for the tracer's counters
COUNTERS = {
    "tns.apply_gate_calls": "count",
    "tns.max_bond_phi": "dim",
    "tns.max_bond_psi": "dim",
    "network.multiplies": "mult",
    "network.peak_rank": "axes",
    "pathfind.score": "mult",
}
LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME},
    **{m: "count" for m in CALLS},
    **COUNTERS,
    "tensor.multiplies_per_s": "mult/s",
    "network.cost_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer(traced, untraced, spans, counters) -> tuple[dict, float]:
    """Per-layer metrics, each the median over traced invocations, and the
    largest gap between an invocation's summed self times and its wall time."""
    from tracer import self_times

    selfs = self_times(spans)
    calls: dict[tuple[int, str], int] = defaultdict(int)
    for name, _, _, _, op in spans:
        calls[op, name] += 1
    per_op: dict[str, list[float]] = defaultdict(list)
    gap = 0.0
    for rec in traced:
        op = rec["op"]
        c = counters.get(str(op), {})
        for metric, span in SELF_TIME.items():
            per_op[metric].append(selfs.get((op, span), 0.0))
        for metric, span in CALLS.items():
            per_op[metric].append(calls[op, span])
        for metric in COUNTERS:
            per_op[metric].append(c.get(metric, 0))
        # both ratios divide the multiplies the tracer counted itself; a
        # count that is missing fails the run instead of reading as 0
        counted = c.get("network.multiplies", 0)
        contract_s = selfs.get((op, "tensor.contract"), 0.0)
        predicted = c.get("network.predicted", 0)
        if not (counted and contract_s and predicted):
            raise RuntimeError(
                f"op {op}: the trace is missing counted multiplies ({counted}), "
                f"contraction time ({contract_s}) or predicted cost ({predicted})"
            )
        per_op["tensor.multiplies_per_s"].append(counted / contract_s)
        per_op["network.cost_ratio"].append(counted / predicted)
        covered = sum(t for (o, _), t in selfs.items() if o == op)
        gap = max(gap, abs(covered - rec["seconds"]))
    values = {m: statistics.median(v) for m, v in per_op.items()}
    values["trace.overhead_ratio"] = statistics.median(
        r["seconds"] for r in traced
    ) / statistics.median(r["seconds"] for r in untraced)
    return {m: (v, LAYER_UNITS[m]) for m, v in values.items()}, gap


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "tnsim" / "__init__.py").is_file():
        print(f"error: no tnsim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads, for the oracle too
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT

    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    circuit_path = work / f"{args.workload}-seed{args.seed}.circuit.json"
    inputs = make_inputs(args.workload, args.seed, str(circuit_path))
    circuit_path.write_bytes(inputs.circuit)

    job = {
        "src": str(SRC), "bench": str(BENCH), "circuit": str(circuit_path),
        "argvs": inputs.argvs, "seconds": args.seconds, "trace": bool(args.trace),
        "setup_only": True, "result": str(work / f"{stem}.result.json"),
    }
    # set-up-only children run before and after the measuring one, so that
    # set-up is sampled across the run's phases of machine speed
    setups = []
    for setup_only in SETUP_ORDER:
        setup, proc = _spawn({**job, "setup_only": setup_only}, work / f"{stem}.job.json")
        _finish(proc, deadline - time.monotonic())
        setups.append(setup)
    with open(job["result"]) as fh:
        result = json.load(fh)

    invocations = result["invocations"]
    errors = _check_all(inputs, invocations)
    failed = sum(err is not None for err in errors)
    for rec, err in zip(invocations, errors):
        if err is not None:
            print(f"FAILED op {rec['op']}: {err}")
    untraced = [r for r in invocations if not r["traced"]]
    traced = [r for r in invocations if r["traced"]]

    if args.trace:
        metrics, gap = per_layer(traced, untraced, result["spans"], result["counters"])
        print(f"self times cover traced wall time to within {gap:.2e} s")
    else:
        metrics = end_to_end(untraced, setups, result["peak_rss_kb"])
    machine = machine_record(args.seed)
    print(f"workload {args.workload}: {len(untraced)} untraced and "
          f"{len(traced)} traced invocations; set-up timed {len(setups)} times")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:.6g} {unit}")
    print(f"  {'error_rate':26s} {failed / len(invocations):.6g} "
          f"({failed} failed of {len(invocations)})")
    print("machine " + json.dumps(machine, sort_keys=True))

    record = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps({
        **record,
        "workload": args.workload,
        "samples": {"untraced": len(untraced), "traced": len(traced),
                    "setup": len(setups)},
        "wall_s_all": [r["seconds"] for r in invocations],
        "errors": [e for e in errors if e is not None],
        "machine": machine,
        "trace_file": job["result"] if args.trace else None,
    }, indent=1, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
