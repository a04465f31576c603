import json

import pytest

from check import check_amplitude, error_of, oracle_amplitudes
from tnsim import (
    compute_amplitude, generate_lattice, generate_rqc, parse_circuit,
    serialize_circuit,
)

N = 9


@pytest.fixture(scope="module")
def doc():
    return serialize_circuit(generate_rqc(generate_lattice("square", 3, 3), 5, 2))


def _amp_stdout(amp):
    return json.dumps({"amplitude": [amp.real, amp.imag], "path": []}) + "\n"


def test_amplitude_check_accepts_the_pipeline_and_rejects_a_perturbation(doc, tmp_path):
    out = "101100111"
    amp = compute_amplitude(parse_circuit(doc), "0" * N, out).amplitude
    want = oracle_amplitudes(doc, {out}, str(tmp_path))[out]
    assert check_amplitude(_amp_stdout(amp), want) is None
    assert check_amplitude(_amp_stdout(amp + 1e-9), want) is not None
    assert check_amplitude(_amp_stdout(amp + 1e-9j), want) is not None
    assert check_amplitude("not json\n", want) is not None


def test_oracle_cache_is_reused_and_extended(doc, tmp_path):
    first = oracle_amplitudes(doc, {"0" * N}, str(tmp_path))
    (cache,) = tmp_path.iterdir()
    assert json.loads(cache.read_text()).keys() == {"0" * N}
    both = oracle_amplitudes(doc, {"0" * N, "1" * N}, str(tmp_path))
    assert both["0" * N] == first["0" * N]
    assert json.loads(cache.read_text()).keys() == {"0" * N, "1" * N}


def test_exit_codes_and_error_records_fail_an_invocation():
    ok = {"rc": 0, "stdout": "{}", "stderr": ""}
    assert error_of(ok) is None
    assert error_of({**ok, "rc": 1}) is not None
    assert error_of({**ok, "stderr": '{"error": "CutPlanError: x"}\n'}) is not None


def test_a_crash_in_the_cli_is_a_failed_invocation():
    from child import _invoke

    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("contraction blew up")

    rec = _invoke(Crashing, ["amplitude"])
    assert rec["rc"] == 1
    assert "RuntimeError: contraction blew up" in error_of(rec)
