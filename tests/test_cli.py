import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whitdim
from whitdim.cli import EXIT_BROKEN_PIPE, EXIT_CONSTRAINT, EXIT_RESOURCE_LIMIT, main

KP_GL2 = {
    "rank": 2,
    "roots": [[1, -1], [-1, 1]],
    "coroots": [[1, -1], [-1, 1]],
    "simple": [0],
    "bq": [[0, 1], [1, 0]],
    "n": 4,
    "q": 5,
}


@pytest.fixture
def kp_file(tmp_path):
    path = tmp_path / "kp_gl2.json"
    path.write_text(json.dumps(KP_GL2))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, (json.loads(out) if code == 0 else None), err


# ---------------------------------------------------------------------------
# info

def test_info_kp_document(capsys, kp_file):
    code, record, _ = run_json(capsys, ["info", kp_file])
    assert code == 0
    results = record["results"]
    assert results["central_index"] == 16
    assert (results["squeeze_lower"], results["squeeze_upper"]) == (2, 4)
    assert results["family"] == "kazhdan_patterson"
    assert results["q_simple_coroots"] == [-1]
    assert results["q_e0"] == 1
    assert record["version"]


def test_info_degree_one_reports_ones(capsys, tmp_path):
    doc = dict(KP_GL2, n=1)
    path = tmp_path / "n1.json"
    path.write_text(json.dumps(doc))
    code, record, _ = run_json(capsys, ["info", str(path)])
    assert code == 0
    results = record["results"]
    assert results["central_index"] == 1
    assert results["squeeze_lower"] == results["squeeze_upper"] == 1


def test_info_constraint_violation_exits_3(capsys, tmp_path):
    doc = dict(KP_GL2, n=3)
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["info", str(path)])
    assert code == 3 and "divide" in err and out == ""


def test_info_non_invariant_form_exits_3(capsys, tmp_path):
    doc = dict(KP_GL2, bq=[[2, 0], [0, 4]], n=1)
    path = tmp_path / "bad_form.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["info", str(path)])
    assert code == 3 and "invariant" in err


def test_info_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, ["info", str(path)])
    assert code == 2
    missing = tmp_path / "missing_field.json"
    missing.write_text(json.dumps({k: v for k, v in KP_GL2.items() if k != "bq"}))
    code, _, err = run(capsys, ["info", str(missing)])
    assert code == 2 and "bq" in err


# ---------------------------------------------------------------------------
# residual

def test_residual_origin_last_coordinates_zero(capsys, kp_file):
    code, record, _ = run_json(capsys, ["residual", kp_file, "--point", "0,0"])
    assert code == 0
    assert all(row["iota"][-1] == 0 for row in record["results"]["iota"])
    assert record["results"]["hyperspecial"] is True


def test_residual_half_point(capsys, kp_file):
    code, record, _ = run_json(
        capsys, ["residual", kp_file, "--point", "1/2,-1/2"])
    assert code == 0
    table = {tuple(r["coroot"]): r["iota"] for r in record["results"]["iota"]}
    assert table[(1, -1)] == [1, -1, -1]
    assert record["results"]["splits"] is True


def test_residual_third_point_empty(capsys, kp_file):
    code, record, _ = run_json(capsys, ["residual", kp_file, "--point", "1/3,0"])
    assert code == 0
    assert record["results"]["phi_x"] == []
    assert record["results"]["vertex"] is False


def test_residual_malformed_point_exits_2(capsys, kp_file):
    code, _, _ = run(capsys, ["residual", kp_file, "--point", "1/2,zebra"])
    assert code == 2
    code, _, _ = run(capsys, ["residual", kp_file, "--point", "1/2"])
    assert code == 2


def test_residual_fr_fixedness_exits_3(capsys, tmp_path):
    torus = {"rank": 2, "roots": [], "coroots": [], "simple": [],
             "frobenius": [[0, 1], [1, 0]], "bq": [[2, 0], [0, 2]],
             "n": 2, "q": 5}
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(torus))
    code, _, err = run(capsys, ["residual", str(path), "--point", "1/2,0"])
    assert code == 3 and "Frobenius" in err


# ---------------------------------------------------------------------------
# whittaker

def test_whittaker_dimension(capsys):
    code, record, _ = run_json(capsys, [
        "whittaker", "--r", "2", "--q", "5", "--n", "4",
        "--pp", "0", "--qq", "1", "--a", "3"])
    assert code == 0
    assert record["results"]["dimension"] == 2
    assert record["results"]["general_position"] is True


def test_whittaker_oracle_agreement(capsys):
    code, record, _ = run_json(capsys, [
        "whittaker", "--r", "2", "--q", "5", "--n", "4",
        "--pp", "0", "--qq", "1", "--a", "1", "--oracle"])
    assert code == 0
    results = record["results"]
    assert results["dimension"] == results["dimension_oracle"] == 4
    assert results["dimension_orbit_search"] == 4
    assert results["agreement"] is True


def test_whittaker_unique_model_when_n_divides_m(capsys):
    code, record, _ = run_json(capsys, [
        "whittaker", "--r", "3", "--q", "5", "--n", "4",
        "--pp", "1", "--qq", "1", "--a", "2", "--oracle"])
    assert code == 0 and record["results"]["dimension"] == 1


def test_whittaker_not_general_position_exits_4(capsys):
    code, _, err = run(capsys, [
        "whittaker", "--r", "2", "--q", "5", "--n", "4",
        "--pp", "0", "--qq", "1", "--a", "0"])
    assert code == 4 and "general position" in err


def test_whittaker_bad_degree_exits_3(capsys):
    code, _, _ = run(capsys, [
        "whittaker", "--r", "2", "--q", "5", "--n", "3",
        "--pp", "0", "--qq", "1", "--a", "1"])
    assert code == 3


def test_whittaker_weyl_guard_exits_6(capsys):
    code, out, err = run(capsys, [
        "whittaker", "--r", "10", "--q", "3", "--n", "2",
        "--pp", "0", "--qq", "1", "--a", "1", "--oracle"])
    assert code == EXIT_RESOURCE_LIMIT == 6
    assert out == "" and "semisimple rank exceeds the guard" in err


# ---------------------------------------------------------------------------
# table

def test_table_histogram(capsys):
    code, record, _ = run_json(capsys, [
        "table", "--r", "2", "--q", "5", "--n", "4", "--pp", "0", "--qq", "1"])
    assert code == 0
    assert record["results"]["histogram"] == {"2": 2, "4": 8}


def test_table_degree_one_single_bar(capsys):
    code, record, _ = run_json(capsys, [
        "table", "--r", "2", "--q", "5", "--n", "1", "--pp", "0", "--qq", "1"])
    assert code == 0
    assert record["results"]["histogram"] == {"1": 10}


def test_table_enumeration_guard_exits_6(capsys):
    code, out, err = run(capsys, [
        "table", "--r", "3", "--q", "101", "--n", "2", "--pp", "0", "--qq", "1"])
    assert code == EXIT_RESOURCE_LIMIT
    assert out == "" and "exceeds the enumeration bound" in err


def test_table_q_not_a_prime_power_exits_3_like_whittaker(capsys):
    args = ["--r", "2", "--q", "6", "--n", "5", "--pp", "0", "--qq", "1"]
    code, out, err = run(capsys, ["table", *args])
    wh_code, _, wh_err = run(capsys, ["whittaker", *args, "--a", "1"])
    assert code == wh_code == EXIT_CONSTRAINT
    assert out == "" and err == wh_err == "error: q = 6 is not a prime power\n"


# ---------------------------------------------------------------------------
# output contract

def test_json_output_is_deterministic(capsys, kp_file):
    _, out1, _ = run(capsys, ["info", kp_file, "--format", "json"])
    _, out2, _ = run(capsys, ["info", kp_file, "--format", "json"])
    assert out1 == out2


def test_text_and_json_expose_the_same_result_names(capsys, kp_file):
    code, record, _ = run_json(capsys, ["info", kp_file])
    _, text, _ = run(capsys, ["info", kp_file])
    assert code == 0
    for key in record["results"]:
        assert key in text


def test_results_go_to_stdout_only(capsys, kp_file):
    code, out, err = run(capsys, ["info", kp_file])
    assert code == 0 and err == "" and out != ""


def test_closed_stdout_exits_without_traceback():
    # about 780 kB of JSON, far more than a pipe buffers, so the writer
    # meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(whitdim.__file__).resolve().parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "whitdim", "table", "--r", "2", "--q", "127", "--n", "6",
             "--pp", "1", "--qq", "1", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err, err
