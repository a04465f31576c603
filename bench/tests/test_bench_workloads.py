import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    a = make_inputs(name, 5, "c.json")
    assert a == make_inputs(name, 5, "c.json")
    b = make_inputs(name, 6, "c.json")
    assert a.circuit != b.circuit
    assert a.outs != b.outs and a.argvs != b.argvs


def test_every_benchmark_workload_is_defined():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "amp-sq16-d11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_reports_the_metrics_benchmark_json_names():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
