import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import tnsim.cli
import tnsim.network
from tnsim.circuit import Circuit, CircuitGraph, Gate, cz_matrix, parse_circuit
from tnsim.cli import main
from tnsim.oracle import amplitude_oracle
from tnsim.workload import ErrorModel, WorkloadError, estimate_workload


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "circuit.json"
    rc = main(
        ["gen", "--lattice", "square", "--size", "4", "--depth", "3",
         "--seed", "2", "-o", str(path)]
    )
    assert rc == 0
    return str(path)


def run(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def base_argv(command: str, circuit_file: str) -> list[str]:
    if command == "gen":
        return ["gen", "--lattice", "square", "--size", "4", "--depth", "2"]
    if command == "amplitude":
        return ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0000"]
    return [command, "-c", circuit_file]


def untimed(out: str) -> str:
    return re.sub(r'"wall_time_ms": [-+.0-9e]+', '"wall_time_ms": 0', out)


class TestEstimateWorkload:
    def test_measurement_only_fidelity(self):
        graph = CircuitGraph(3, frozenset({(0, 1), (1, 2)}))
        est = estimate_workload(Circuit(graph, ()), ErrorModel())
        assert est.fidelity == pytest.approx((1 - 0.038) ** 3, rel=1e-12)

    def test_gate_counting(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix()),),) * 4)
        model = ErrorModel(e1=0.01, e2=0.02, eq=0.03)
        est = estimate_workload(c, model)
        assert est.fidelity == pytest.approx(0.98**4 * 0.97**2, rel=1e-12)

    def test_sample_count_formula(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        est = estimate_workload(Circuit(graph, ()), ErrorModel())
        assert est.raw_samples == pytest.approx(9.0 / est.fidelity**2, rel=1e-12)
        assert est.required_samples == math.ceil(est.raw_samples)
        assert est.statistical_error == pytest.approx(
            1 / math.sqrt(est.required_samples)
        )

    def test_underflow_raises_with_log_fidelity(self):
        graph = CircuitGraph(2, frozenset({(0, 1)}))
        c = Circuit(graph, ((Gate((0, 1), cz_matrix()),),) * 200)
        with pytest.raises(WorkloadError) as exc:
            estimate_workload(c, ErrorModel(e2=0.99))
        assert exc.value.log_fidelity < -700

    @pytest.mark.parametrize("bad", [{"e1": -0.1}, {"e2": 1.0}, {"eq": 2.0}])
    def test_rates_validated(self, bad):
        with pytest.raises(ValueError):
            ErrorModel(**bad)


class TestGen:
    def test_deterministic_file_bytes(self, capsys):
        args = ["gen", "--lattice", "square", "--size", "9", "--depth", "4",
                "--seed", "11"]
        _, out1, _ = run(capsys, args)
        _, out2, _ = run(capsys, args)
        assert out1 == out2
        c = parse_circuit(out1.strip())
        assert c.num_qubits == 9 and c.depth == 4

    def test_rows_cols_override_size(self, capsys):
        rc, out, _ = run(
            capsys,
            ["gen", "--lattice", "sycamore-like", "--rows", "3", "--cols", "3",
             "--depth", "2"],
        )
        assert rc == 0
        assert parse_circuit(out.strip()).num_qubits == 9

    def test_non_square_size_fails(self, capsys):
        rc, out, err = run(
            capsys, ["gen", "--lattice", "square", "--size", "7", "--depth", "2"]
        )
        assert rc == 1
        assert "perfect square" in json.loads(err)["error"]

    def test_stdout_is_output_file_plus_newline(self, tmp_path):
        argv = ["gen", "--lattice", "square", "--size", "9", "--depth", "4",
                "--seed", "3"]
        path = tmp_path / "circuit.json"
        assert main([*argv, "-o", str(path)]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        assert out.getvalue().encode() == path.read_bytes() + b"\n"

    # sha256 of the written file: a change here changes every circuit that
    # tnsim gen writes, including the 54-qubit example in the README
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--lattice", "sycamore-like", "--size", "54", "--depth", "8",
              "--seed", "7"],
             "4447748751089898fc5591775ba7be80e93643fa8834b1c07621e18f9fb21146"),
            (["--lattice", "square", "--size", "9", "--depth", "4", "--seed", "3",
              "--gate-family", "fsim"],
             "6a47208c997d75e61195e6b91facd968a77a7bd18d50f09577d30a8bcb6b36b8"),
            (["--lattice", "square", "--size", "9", "--depth", "4", "--seed", "3",
              "--gate-family", "cz"],
             "5e0c58a8f1b4068ad8c1fb25ad698d2f8e9a613a1e1ed16c013651ae661ef973"),
            (["--lattice", "square", "--size", "9", "--depth", "4", "--seed", "3",
              "--gate-family", "iswap"],
             "28cd0b68fdc75ea914cf61e5df768e93b1e9271121c788777d36db5a29e2b513"),
        ],
        ids=["sycamore54-d8-seed7", "square9-fsim", "square9-cz", "square9-iswap"],
    )
    def test_file_digest_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "circuit.json"
        assert main(["gen", *argv, "-o", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_unknown_sycamore_size_fails(self, capsys):
        rc, _, err = run(
            capsys,
            ["gen", "--lattice", "sycamore-like", "--size", "55", "--depth", "2"],
        )
        assert rc == 1
        assert "55" in json.loads(err)["error"]


class TestAmplitude:
    def test_matches_oracle(self, capsys, circuit_file):
        rc, out, _ = run(
            capsys,
            ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0110"],
        )
        assert rc == 0
        rec = json.loads(out)
        with open(circuit_file, "rb") as fh:
            ref = amplitude_oracle(parse_circuit(fh.read()), "0000", "0110")
        assert complex(*rec["amplitude"]) == pytest.approx(ref, abs=1e-10)
        assert "wall_time_ms" not in rec

    def test_output_is_byte_stable(self, capsys, circuit_file):
        args = ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "1111"]
        assert run(capsys, args) == run(capsys, args)

    def test_timing_flag_adds_wall_time(self, capsys, circuit_file):
        rc, out, _ = run(
            capsys,
            ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0000",
             "--timing"],
        )
        assert rc == 0
        assert json.loads(out)["wall_time_ms"] > 0

    def test_csv_format(self, capsys, circuit_file):
        rc, out, _ = run(
            capsys,
            ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0000",
             "--format", "csv"],
        )
        assert rc == 0
        assert out.count(",") >= 4 and "{" not in out

    def test_csv_row_reads_back_one_field_per_key(self, capsys, circuit_file):
        args = ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0110"]
        _, out_json, _ = run(capsys, args)
        rc, out, _ = run(capsys, args + ["--format", "csv"])
        assert rc == 0
        rec = json.loads(out_json)
        (row,) = csv.reader(io.StringIO(out))
        assert len(row) == len(rec) == 6
        for key, field in zip(sorted(rec), row):
            if isinstance(rec[key], list):  # amplitude and path
                assert json.loads(field) == rec[key]
            else:
                assert field == str(rec[key])

    def test_explicit_and_disabled_cuts(self, capsys, circuit_file):
        base = ["amplitude", "-c", circuit_file, "--in", "0000", "--out", "0101"]
        _, out_none, _ = run(capsys, base + ["--cuts", "none"])
        _, out_cut, _ = run(capsys, base + ["--cuts", "0-1"])
        a = complex(*json.loads(out_none)["amplitude"])
        b = complex(*json.loads(out_cut)["amplitude"])
        assert json.loads(out_none)["slice_count"] == 1
        assert a == pytest.approx(b, abs=1e-10)

    def test_negative_cap_is_refused(self, capsys, circuit_file):
        argv = base_argv("amplitude", circuit_file) + ["--max-rank", "-1"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert err == '{"error": "ValueError: rank cap -1 is negative"}\n'

    def test_missing_file_is_json_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            ["amplitude", "-c", str(tmp_path / "nope.json"), "--in", "0",
             "--out", "0"],
        )
        assert rc == 1
        assert "error" in json.loads(err)

    def test_failed_allocation_is_json_error(self, capsys, circuit_file, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(tnsim.cli, "compute_amplitude", no_memory)
        rc, out, err = run(capsys, base_argv("amplitude", circuit_file))
        assert (rc, out) == (1, "")
        assert err == '{"error": "MemoryError: Unable to allocate 32.0 GiB"}\n'

    def test_config_supplies_defaults(self, capsys, circuit_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max-rank": 4}))
        rc, out, _ = run(
            capsys,
            ["--config", str(cfg), "amplitude", "-c", circuit_file,
             "--in", "0000", "--out", "0000"],
        )
        assert rc == 0
        assert json.loads(out)["peak_rank"] <= 4

    @pytest.mark.parametrize(
        "content,message",
        [
            ('{"max-rank": 4, "max-rnak": 3}', "unknown key 'max-rnak'"),
            ("[4]", "must be an object"),
            ('{"max-rank": ', "JSONDecodeError"),
            (None, "FileNotFoundError"),
        ],
        ids=["unknown-key", "not-an-object", "invalid-json", "missing-file"],
    )
    def test_bad_config_is_json_error(
        self, capsys, circuit_file, tmp_path, content, message
    ):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        rc, out, err = run(
            capsys,
            ["--config", str(cfg), "amplitude", "-c", circuit_file,
             "--in", "0000", "--out", "0000"],
        )
        assert rc == 1 and out == ""
        assert message in json.loads(err)["error"]


class TestConfig:
    # every flag here has a built-in default that is not None
    @pytest.mark.parametrize(
        "command,config,flags",
        [
            ("amplitude", {"cuts": "0-1"}, ["--cuts", "0-1"]),
            ("amplitude", {"timing": True}, ["--timing"]),
            ("amplitude", {"format": "csv"}, ["--format", "csv"]),
            ("verify", {"seed": 3, "samples": 2}, ["--seed", "3", "--samples", "2"]),
            ("gen", {"seed": 5, "gate-family": "cz"},
             ["--seed", "5", "--gate-family", "cz"]),
            ("estimate-workload", {"e1": 0, "e2": 0, "eq": 0},
             ["--e1", "0", "--e2", "0", "--eq", "0"]),
        ],
        ids=["cuts", "timing", "format", "seed-samples", "gen-seed-family",
             "error-rates"],
    )
    def test_config_replaces_builtin_defaults(
        self, capsys, circuit_file, tmp_path, command, config, flags
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = base_argv(command, circuit_file)
        rc, from_config, _ = run(capsys, ["--config", str(cfg)] + argv)
        assert rc == 0
        _, from_flags, _ = run(capsys, argv + flags)
        _, builtin, _ = run(capsys, argv)
        assert untimed(from_config) == untimed(from_flags)
        assert untimed(from_config) != untimed(builtin)

    @pytest.mark.parametrize(
        "config,flags",
        [
            ({"cuts": 5}, ["--cuts", "5"]),
            ({"format": "xml"}, ["--format", "xml"]),
            ({"max-rank": "abc"}, ["--max-rank", "abc"]),
        ],
        ids=["cuts-int", "format-choice", "max-rank-type"],
    )
    def test_config_values_checked_like_flags(
        self, capsys, circuit_file, tmp_path, config, flags
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = base_argv("amplitude", circuit_file)
        from_config = run(capsys, ["--config", str(cfg)] + argv)
        assert from_config[0] != 0
        assert from_config == run(capsys, argv + flags)

    def test_command_line_overrides_config(self, capsys, circuit_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cuts": "0-1", "timing": True}))
        argv = base_argv("amplitude", circuit_file)
        _, out, _ = run(capsys, ["--config", str(cfg)] + argv + ["--cuts", "none"])
        rec = json.loads(out)
        assert rec["slice_count"] == 1 and "wall_time_ms" in rec
        _, uncut, _ = run(capsys, argv + ["--cuts", "none", "--timing"])
        assert untimed(out) == untimed(uncut)


class TestVerify:
    def test_oracle_deltas_are_tiny(self, capsys, circuit_file):
        rc, out, _ = run(
            capsys,
            ["verify", "-c", circuit_file, "--samples", "4", "--oracle"],
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["samples"] == 4
        assert lines[-1]["max_abs_delta"] < 1e-10
        assert all("abs_delta" in rec for rec in lines[:-1])

    def test_without_oracle_reports_magnitudes(self, capsys, circuit_file):
        rc, out, _ = run(capsys, ["verify", "-c", circuit_file, "--samples", "2"])
        assert rc == 0
        for line in out.splitlines():
            assert 0 <= json.loads(line)["abs_amplitude"] <= 1 + 1e-12

    def test_negative_samples_is_json_error(self, capsys, circuit_file):
        rc, out, err = run(capsys, ["verify", "-c", circuit_file, "--samples", "-1"])
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError: --samples -1 is negative"}

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_worker_count_below_one_is_json_error(
        self, capsys, circuit_file, monkeypatch, count
    ):
        monkeypatch.setattr(tnsim.cli, "compute_amplitude", None)  # never reached
        rc, out, err = run(
            capsys, ["verify", "-c", circuit_file, "--samples", "2", "--workers", count]
        )
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": f"ValueError: --workers {count} is below 1"}

    def test_environment_worker_count_below_one_is_json_error(
        self, capsys, circuit_file, monkeypatch
    ):
        monkeypatch.setattr(tnsim.cli, "compute_amplitude", None)  # never reached
        monkeypatch.setenv("TNSIM_WORKERS", "0")
        rc, out, err = run(capsys, ["verify", "-c", circuit_file, "--samples", "2"])
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": "ValueError: TNSIM_WORKERS 0 is below 1"}

    def test_flag_overrides_environment(self, capsys, circuit_file, monkeypatch):
        monkeypatch.setenv("TNSIM_WORKERS", "0")
        rc, out, _ = run(
            capsys, ["verify", "-c", circuit_file, "--samples", "1", "--workers", "1"]
        )
        assert rc == 0 and len(out.splitlines()) == 1

    def test_circuit_parsed_once(self, capsys, circuit_file, monkeypatch):
        calls = []

        def counting_parse(data):
            calls.append(data)
            return parse_circuit(data)

        monkeypatch.setattr(tnsim.cli, "parse_circuit", counting_parse)
        rc, _, _ = run(capsys, ["verify", "-c", circuit_file, "--samples", "3"])
        assert rc == 0 and len(calls) == 1

    def test_process_pool_matches_serial(self, capsys, circuit_file):
        argv = ["verify", "-c", circuit_file, "--samples", "2", "--oracle"]
        assert run(capsys, argv + ["--workers", "2"]) == run(capsys, argv)

    def test_import_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(tnsim.cli.__file__))
        code = (
            "import sys, threading, tnsim.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules), threading.active_count())"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, check=True,
        )
        # and it starts no thread
        assert done.stdout.strip() == "[] 1"

    def test_oracle_cap_checked_before_any_amplitude(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "wide.json"
        rc = main(["gen", "--lattice", "square", "--rows", "4", "--cols", "7",
                   "--depth", "1", "-o", str(path)])
        assert rc == 0
        calls = []

        def no_amplitude(*args, **kwargs):
            calls.append(args)
            raise AssertionError("amplitude computed before the oracle cap check")

        monkeypatch.setattr(tnsim.cli, "compute_amplitude", no_amplitude)
        rc, out, err = run(
            capsys, ["verify", "-c", str(path), "--samples", "2", "--oracle"]
        )
        assert rc == 1 and out == "" and calls == []
        assert "OracleCapError: 28 qubits" in json.loads(err)["error"]


class TestPath:
    def test_reports_path_and_score(self, capsys, circuit_file):
        rc, out, _ = run(capsys, ["path", "-c", circuit_file])
        assert rc == 0
        rec = json.loads(out)
        assert sorted(rec["path"]) == list(range(4))
        assert int(rec["score"]) > 0

    def test_plans_on_the_shape_without_building_a_node(
        self, capsys, circuit_file, monkeypatch
    ):
        with open(circuit_file, "rb") as fh:
            circuit = parse_circuit(fh.read())
        phi, psi = tnsim.network.overlap_states(circuit, "0000", "0000")
        # the path that `amplitude --cuts none` contracts
        plan = tnsim.network.plan_cuts(tnsim.network.overlap_shape(phi, psi), None, [])
        expected = json.dumps(
            {"path": list(plan.path), "score": str(plan.score)}, sort_keys=True
        )

        def no_nodes(*args):
            raise AssertionError("path built a node tensor")

        monkeypatch.setattr(tnsim.network, "build_overlap_network", no_nodes)
        monkeypatch.setattr(tnsim.network.StateOverlap, "node", no_nodes)
        rc, out, err = run(capsys, ["path", "-c", circuit_file])
        assert (rc, out, err) == (0, expected + "\n", "")

    def test_infeasible_cap_fails_cleanly(self, capsys, circuit_file):
        rc, _, err = run(capsys, ["path", "-c", circuit_file, "--max-rank", "0"])
        assert rc == 1
        assert "PathSearchError" in json.loads(err)["error"]

    def test_negative_cap_is_refused(self, capsys, circuit_file):
        rc, _, err = run(capsys, ["path", "-c", circuit_file, "--max-rank", "-1"])
        assert rc == 1
        assert err == '{"error": "ValueError: rank cap -1 is negative"}\n'


class TestEstimateWorkloadCommand:
    def test_matches_library(self, capsys, circuit_file):
        rc, out, _ = run(capsys, ["estimate-workload", "-c", circuit_file])
        assert rc == 0
        rec = json.loads(out)
        with open(circuit_file, "rb") as fh:
            est = estimate_workload(parse_circuit(fh.read()), ErrorModel())
        assert rec["fidelity"] == pytest.approx(est.fidelity, rel=1e-15)
        assert rec["required_samples"] == est.required_samples

    def test_custom_rates(self, capsys, circuit_file):
        rc, out, _ = run(
            capsys,
            ["estimate-workload", "-c", circuit_file, "--e1", "0", "--e2", "0",
             "--eq", "0"],
        )
        assert rc == 0
        rec = json.loads(out)
        assert rec["fidelity"] == 1.0 and rec["required_samples"] == 9

