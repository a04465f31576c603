"""One measured process: ``python3 bench/child.py JOB.json``.

Imports tnsim and parses the workload's circuit, then prints ``ready`` so the
parent can time set-up.  Unless the job is set-up only, it then calls
``tnsim.cli.main(argv)`` in a closed loop, one invocation after the other,
and writes every invocation's exit code, output and time, its peak RSS and,
when traced, its spans to the job's result file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def _invoke(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, not a lost run
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "seconds": seconds}


def _loop(cli, argvs, seconds: float, first: int, tracer=None) -> list[dict]:
    """Invoke until the next invocation would end after ``seconds``; at
    least once."""
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        i = first + len(records)
        argv = argvs[i % len(argvs)]
        if tracer is None:
            rec = _invoke(cli, argv)
        else:
            tracer.op = i
            idx = tracer.open("cli")
            rec = _invoke(cli, argv)
            tracer.close(idx)
            # the root span is the traced invocation's wall time
            span = tracer.spans[idx]
            rec["seconds"] = span[2] - span[1]
        rec.update(op=i, argv=i % len(argvs), traced=tracer is not None)
        records.append(rec)
        typical = statistics.median(r["seconds"] for r in records)
        if time.perf_counter() - start + typical > seconds:
            return records


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import tnsim.cli

    with open(job["circuit"], "rb") as fh:
        tnsim.cli.parse_circuit(fh.read())
    print("ready", flush=True)
    if job["setup_only"]:
        return 0

    argvs, seconds = job["argvs"], job["seconds"]
    spans: list = []
    counters: dict = {}
    if job["trace"]:
        # untraced then traced halves give the tracing overhead
        records = _loop(tnsim.cli, argvs, seconds / 2, 0)
        sys.path.insert(0, job["bench"])
        from tracer import Tracer, install

        tracer = Tracer()
        restore = install(tracer)
        try:
            records += _loop(tnsim.cli, argvs, seconds / 2, len(records), tracer)
        finally:
            restore()
        spans, counters = tracer.spans, tracer.counters
    else:
        records = _loop(tnsim.cli, argvs, seconds, 0)

    result = {
        "invocations": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
        "counters": {op: dict(c) for op, c in counters.items()},
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
