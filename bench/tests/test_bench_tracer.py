import contextlib
import io
import json

import pytest

import tnsim.cli
import tnsim.network
import tracer as tracer_mod
from tnsim import generate_lattice, generate_rqc, serialize_circuit
from tracer import Tracer, install, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_synthetic_nested_call(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", clock)
    tr = Tracer()

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1
        leaf_t(3)
        clock.now += 1
        leaf_t(2)

    leaf_t = tr.wrap(leaf, "leaf")
    middle_t = tr.wrap(middle, "middle")
    tr.op = 7
    root = tr.open("root")
    clock.now += 0.5
    middle_t()
    clock.now += 0.25
    tr.close(root)

    selfs = self_times(tr.spans)
    assert selfs == {(7, "root"): 0.75, (7, "middle"): 2.0, (7, "leaf"): 5.0}
    assert sum(selfs.values()) == tr.spans[root][2] - tr.spans[root][1]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 1]


def test_wrap_closes_the_span_when_the_call_raises(monkeypatch):
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.spans[0][2] >= tr.spans[0][1] and not tr._stack


def test_traced_cli_run_accounts_for_its_wall_time(tmp_path):
    circuit = generate_rqc(generate_lattice("square", 3, 3), 6, 1)
    path = tmp_path / "c.json"
    path.write_bytes(serialize_circuit(circuit))
    original = tnsim.network.contract_pair
    tr = Tracer()
    restore = install(tr)
    try:
        tr.op = 0
        root = tr.open("cli")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = tnsim.cli.main(["amplitude", "-c", str(path), "--in", "0" * 9,
                                 "--out", "1" * 9, "--cuts", "1-2"])
        tr.close(root)
    finally:
        restore()
    assert rc == 0
    assert tnsim.network.contract_pair is original
    wall = tr.spans[root][2] - tr.spans[root][1]
    assert sum(self_times(tr.spans).values()) == pytest.approx(wall, abs=1e-9)
    names = {s[0] for s in tr.spans}
    assert {"circuit.parse", "circuit.fuse", "circuit.split", "tns.evolve",
            "tns.compress", "tensor.svd", "network.overlap", "network.plan",
            "pathfind.search", "network.slice", "network.contract",
            "tensor.contract"} <= names
    # the tracer's own counts agree with what the program reports
    record = json.loads(out.getvalue())
    c = tr.counters[0]
    assert c["network.multiplies"] == c["network.predicted"] > 0
    assert c["network.multiplies"] == record["multiplies"]
    assert c["network.peak_rank"] == record["peak_rank"]


def test_per_layer_fails_when_the_trace_counted_no_multiplies():
    import run

    spans = [["cli", 0.0, 2.0, -1, 0], ["tensor.contract", 0.5, 1.5, 0, 0]]
    rec = {"op": 0, "seconds": 2.0}
    counters = {"0": {"network.multiplies": 8.0, "network.predicted": 8.0}}
    metrics, gap = run.per_layer([rec], [rec], spans, counters)
    assert metrics["network.cost_ratio"] == (1.0, "ratio")
    assert metrics["tensor.multiplies_per_s"] == (8.0, "mult/s")
    assert gap == 0.0
    for missing in ("network.multiplies", "network.predicted"):
        partial = {"0": {k: v for k, v in counters["0"].items() if k != missing}}
        with pytest.raises(RuntimeError):
            run.per_layer([rec], [rec], spans, partial)
