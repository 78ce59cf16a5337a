import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import whitdim
from whitdim import cli
from whitdim.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONSTRAINT,
    EXIT_MALFORMED,
    EXIT_RESOURCE_LIMIT,
    main,
)
from whitdim.cover import glr_cover
from whitdim.errors import MathConstraintError, ResourceLimitError
from whitdim.whittaker import (
    enumerate_glr_table,
    glr_coxeter_parameter,
    glr_table,
    wh_dim_glr_closed,
    wh_dim_oracle,
)

from _oracles import TABLE_CASES, TABLE_FORMS, TABLE_WINDOW_CASES

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


def test_info_rank_beyond_the_form_exits_2_quickly(capsys, tmp_path):
    doc = {"rank": 10 ** 6, "roots": [], "coroots": [], "simple": [],
           "bq": [[0]], "n": 1, "q": 3}
    path = tmp_path / "huge_rank.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, ["info", str(path)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: form size does not match the root datum rank\n"


def test_info_form_beyond_the_rank_exits_2(capsys, tmp_path):
    doc = {"rank": 1, "roots": [], "coroots": [], "simple": [],
           "bq": [[2, 0], [0, 2]], "n": 1, "q": 3}
    path = tmp_path / "small_rank.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, ["info", str(path)]) == (
        2, "", "error: form size does not match the root datum rank\n")


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


def test_residual_zero_denominator_exits_2_without_traceback(kp_file):
    env = dict(os.environ, PYTHONPATH=str(Path(whitdim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "whitdim", "residual", kp_file, "--point", "1/00,0"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "malformed rational '1/00'" in proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


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


def test_whittaker_exponent_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, [
        "whittaker", "--r", "2", "--q", "5", "--n", "4",
        "--pp", "0", "--qq", "1", "--a", "24"])
    assert (code, out) == (2, "")
    assert err == "error: exponent a must lie in [0, q^r - 1) = [0, 24)\n"


def test_whittaker_rank_10_agrees(capsys):
    # GL_10 is past the Weyl-group guard, and the orbit search never enumerates W
    code, out, _ = run(capsys, [
        "whittaker", "--r", "10", "--q", "3", "--n", "2",
        "--pp", "0", "--qq", "1", "--a", "1", "--oracle"])
    assert code == 0
    assert "agreement = true\n" in out


def _run_whittaker_process(q, *extra, r=2):
    env = dict(os.environ, PYTHONPATH=str(Path(whitdim.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "whitdim", "whittaker", "--r", str(r), "--q", str(q),
         "--n", "2", "--pp", "0", "--qq", "1", "--a", "5", *extra],
        capture_output=True, text=True, env=env, timeout=10)


def test_whittaker_rank_guard_exits_6():
    proc = _run_whittaker_process(3, "--oracle", r=100_000)
    assert proc.returncode == EXIT_RESOURCE_LIMIT == 6
    assert proc.stdout == "" and "exceeds the rank guard 16" in proc.stderr


def test_whittaker_large_prime_q_is_decided_quickly():
    proc = _run_whittaker_process(10 ** 18 + 3, "--oracle")
    assert proc.returncode == 0, proc.stderr
    assert "agreement = true\n" in proc.stdout


def test_whittaker_q_beyond_the_primality_bound_exits_6():
    proc = _run_whittaker_process(2 ** 89 - 1)
    assert proc.returncode == EXIT_RESOURCE_LIMIT
    assert proc.stdout == "" and "3317044064679887385961981" in proc.stderr


def test_whittaker_strong_pseudoprime_q_exits_3():
    proc = _run_whittaker_process(318665857834031151167461)
    assert proc.returncode == EXIT_CONSTRAINT
    assert proc.stdout == "" and "is not a prime power" in proc.stderr


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


@pytest.mark.parametrize("r,q", [(14_400, 2), (4_000_000, 3)])
def test_table_guard_exits_6_for_large_r_without_forming_q_to_the_r(capsys, r, q):
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "table", "--r", str(r), "--q", str(q), "--n", "1", "--pp", "0", "--qq", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_RESOURCE_LIMIT
    assert out == "" and err == (f"error: q^r - 1 with r = {r} exceeds the "
                                 "enumeration bound 1000000\n")


def test_table_guard_quotes_q_to_the_r_when_it_prints(capsys):
    code, out, err = run(capsys, [
        "table", "--r", "21", "--q", "2", "--n", "1", "--pp", "0", "--qq", "1"])
    assert code == EXIT_RESOURCE_LIMIT
    assert out == "" and err == "error: q^r - 1 = 2097151 exceeds the enumeration bound 1000000\n"


@pytest.mark.parametrize("r,q,quoted", [
    (1, 2 ** 1999, True),  # r * q.bit_length() = 2,000: 602 digits
    (1, 2 ** 2000, False),
    (1001, 2, False),
    (25, 5.0, False),  # a float q past the bound meets the size guard first
    (10, 5.0, False),
], ids=["2^1999", "2^2000", "2^1001", "5.0^25", "5.0^10"])
def test_table_guard_quotes_q_to_the_r_up_to_2000_bits(r, q, quoted):
    limit = sys.get_int_max_str_digits()
    # 640 digits, the least limit Python accepts, still prints a quoted power
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ResourceLimitError) as caught:
            glr_table(r, q, 1, 0, 1)
    finally:
        sys.set_int_max_str_digits(limit)
    power = f"= {q ** r - 1}" if quoted else f"with r = {r}"
    assert str(caught.value) == f"q^r - 1 {power} exceeds the enumeration bound 1000000"


def test_table_q_not_a_prime_power_exits_3_like_whittaker(capsys):
    args = ["--r", "2", "--q", "6", "--n", "5", "--pp", "0", "--qq", "1"]
    code, out, err = run(capsys, ["table", *args])
    wh_code, _, wh_err = run(capsys, ["whittaker", *args, "--a", "1"])
    assert code == wh_code == EXIT_CONSTRAINT
    assert out == "" and err == wh_err == "error: q = 6 is not a prime power\n"


#: The five GL_r library routes, called with r, q, n and a, by default the
#: valid inputs 2, 5, 4 and 1 with the form (pp, qq) = (0, 1); the table and
#: the cover take no exponent and ignore a.
GLR_ROUTES = {
    "wh_dim_glr_closed": lambda r=2, q=5, n=4, a=1: wh_dim_glr_closed(r, q, n, 0, 1, a),
    "wh_dim_oracle": lambda r=2, q=5, n=4, a=1: wh_dim_oracle(r, q, n, 0, 1, a),
    "glr_table": lambda r=2, q=5, n=4, a=1: glr_table(r, q, n, 0, 1),
    "glr_cover": lambda r=2, q=5, n=4, a=1: glr_cover(r, 0, 1, n, q),
    "glr_coxeter_parameter": lambda r=2, q=5, n=4, a=1: glr_coxeter_parameter(r, q, a, n),
}
#: The routes that take an exponent a.
GLR_EXPONENT_ROUTES = ("glr_coxeter_parameter", "wh_dim_glr_closed", "wh_dim_oracle")
#: One fault each in the valid inputs, and what every route that reads the
#: faulty input raises for it.  The checks run in one order: r >= 1, the
#: route's size guard, n >= 1, q a prime power (q < 2 included), n | q - 1,
#: a in [0, q^r - 1).
GLR_FAULTS = [
    ({"r": 0}, ValueError, "GL_r needs r >= 1"),
    ({"r": 2.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"q": 5.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"q": Fraction(5)}, TypeError, "'Fraction' object cannot be interpreted as an integer"),
    ({"q": 0, "n": 1}, MathConstraintError, "q must be a prime power >= 2"),
    ({"q": 1, "n": 1}, MathConstraintError, "q must be a prime power >= 2"),
    ({"q": 6, "n": 1}, MathConstraintError, "q = 6 is not a prime power"),
    ({"n": 0}, ValueError, "cover degree n must be a positive integer"),
    ({"n": 4.0}, TypeError, "'float' object cannot be interpreted as an integer"),
    ({"n": 3}, MathConstraintError, "cover degree n = 3 must divide q - 1 = 4"),
    ({"a": 24}, ValueError, "exponent a must lie in [0, q^r - 1) = [0, 24)"),
    ({"a": -1}, ValueError, "exponent a must lie in [0, q^r - 1) = [0, 24)"),
]


@pytest.mark.parametrize("fault,error,message", GLR_FAULTS)
def test_glr_routes_refuse_one_fault_alike(fault, error, message):
    routes = GLR_EXPONENT_ROUTES if "a" in fault else sorted(GLR_ROUTES)
    for route in routes:
        with pytest.raises(error) as caught:
            GLR_ROUTES[route](**fault)
        assert type(caught.value) is error and str(caught.value) == message, route
    # the table and the cover read no exponent
    if "a" in fault:
        assert GLR_ROUTES["glr_table"](**fault).modulus == 24
        assert GLR_ROUTES["glr_cover"](**fault).n == 4


def test_glr_routes_refuse_a_rank_above_their_own_size_guard():
    for route in sorted(GLR_ROUTES):
        if route == "glr_table":
            message = "q^r - 1 = 762939453124 exceeds the enumeration bound 1000000"
        else:
            message = "GL_r with r = 17 exceeds the rank guard 16"
        with pytest.raises(ResourceLimitError) as caught:
            GLR_ROUTES[route](r=17)
        assert str(caught.value) == message, route
    # the table's bound is on q^r - 1, so it takes r = 17 at q = 2
    assert GLR_ROUTES["glr_table"](r=17, q=2, n=1).modulus == 2 ** 17 - 1


@pytest.mark.parametrize("fault,code,message", [
    ({"q": 0, "n": 1}, EXIT_CONSTRAINT, "q must be a prime power >= 2"),
    ({"q": 1, "n": 1}, EXIT_CONSTRAINT, "q must be a prime power >= 2"),
    ({"q": 6, "n": 1}, EXIT_CONSTRAINT, "q = 6 is not a prime power"),
    ({"r": 0}, EXIT_MALFORMED, "GL_r needs r >= 1"),
    ({"n": 3}, EXIT_CONSTRAINT, "cover degree n = 3 must divide q - 1 = 4"),
])
def test_glr_commands_refuse_one_fault_alike(capsys, fault, code, message):
    inputs = {"r": 2, "q": 5, "n": 4, "pp": 0, "qq": 1, **fault}
    flags = [text for key, value in inputs.items() for text in (f"--{key}", str(value))]
    for command in (["table"], ["whittaker", "--a", "1"], ["whittaker", "--a", "1", "--oracle"]):
        for fmt in ("text", "json"):
            assert run(capsys, [*command, *flags, "--format", fmt]) == (
                code, "", f"error: {message}\n"), (command, fmt)


def test_table_bound_applies_once_q_is_at_least_2(capsys):
    # q^r - 1 is no size for q = 1, which is refused as no prime power
    code, out, err = run(capsys, [
        "table", "--r", "25", "--q", "1", "--n", "1", "--pp", "0", "--qq", "1"])
    assert (code, out, err) == (EXIT_CONSTRAINT, "", "error: q must be a prime power >= 2\n")


@pytest.mark.parametrize("n", [0, -4])
@pytest.mark.parametrize("route", sorted(GLR_ROUTES))
def test_glr_routes_refuse_a_degree_below_one_with_value_error(route, n):
    # the degree is refused before q is tested, so a q that is no prime
    # power (12) changes nothing
    message = "cover degree n must be a positive integer"
    for q in (9, 12):
        with pytest.raises(ValueError) as caught:
            GLR_ROUTES[route](q=q, n=n)
        assert str(caught.value) == message


@pytest.mark.parametrize("route", sorted(GLR_ROUTES))
def test_glr_routes_refuse_a_degree_that_is_no_integer_with_type_error(route):
    # 4.0 divides q - 1 = 4 and 2.5 does not: neither reaches the arithmetic
    for n in (4.0, 2.5, Fraction(4)):
        with pytest.raises(TypeError):
            GLR_ROUTES[route](q=5, n=n)


@pytest.mark.parametrize("n", [0, -4])
@pytest.mark.parametrize("command", [["table"], ["whittaker", "--a", "1"]])
def test_glr_commands_refuse_a_degree_below_one_with_exit_2(capsys, command, n):
    # malformed input, exit 2, on both commands, before q is tested
    for q in (9, 12):
        code, out, err = run(capsys, [command[0], "--r", "2", "--q", str(q), "--n", str(n),
                                      "--pp", "0", "--qq", "1", *command[1:]])
        assert code == EXIT_MALFORMED
        assert out == "" and err == "error: cover degree n must be a positive integer\n"


ROW_KEYS = ("representative", "class_size", "dimension")


def _table_reference(r, q, n, pp, qq):
    """The table record built from the library's triples, as ``json.dumps``
    prints it indented and, in text mode, one ``json.dumps`` line per row."""
    rows, histogram = enumerate_glr_table(r, q, n, pp, qq)
    record = {"command": "table",
              "inputs": {"r": r, "q": q, "n": n, "pp": pp, "qq": qq},
              "results": {"rows": [dict(zip(ROW_KEYS, row)) for row in rows],
                          "histogram": {str(dim): count for dim, count in histogram.items()}},
              "version": whitdim.__version__}
    lines = ["command: table", "rows:"]
    lines += [f"  {json.dumps(row)}" for row in record["results"]["rows"]]
    lines.append("histogram:")
    lines += [f"  {dim} = {count}" for dim, count in record["results"]["histogram"].items()]
    return json.dumps(record, indent=2) + "\n", "\n".join(lines) + "\n"


def _assert_table_prints_as_json_dumps(r, q, n, pp, qq):
    json_text, text = _table_reference(r, q, n, pp, qq)
    for fmt, expected in (("json", json_text), ("text", text)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["table", "--r", str(r), "--q", str(q), "--n", str(n),
                         "--pp", str(pp), "--qq", str(qq), "--format", fmt])
        assert code == 0
        assert buf.getvalue() == expected, (r, q, n, pp, qq, fmt)


def test_table_prints_as_json_dumps_of_the_library_rows():
    for r, q in TABLE_CASES:
        for n in (d for d in range(1, q) if (q - 1) % d == 0):
            for pp, qq in TABLE_FORMS:
                _assert_table_prints_as_json_dumps(r, q, n, pp, qq)


class _CountingStdout(io.StringIO):
    """A stdout that counts the writes made to it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("r,q", [(2, 199), (1, 8209)])
def test_table_rows_across_chunk_boundaries_print_as_json_dumps(r, q):
    # 19,701 rows in blocks of up to P = 200, and 8,208 rows in blocks of one
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        cli._write_rows(glr_table(r, q, 2, 0, 1), *cli._ROW_JSON, ",\n")
    assert out.writes > 2
    _assert_table_prints_as_json_dumps(r, q, 2, 0, 1)
    _assert_table_prints_as_json_dumps(r, q, q - 1, -3, -1)


@pytest.mark.parametrize("r,q", TABLE_WINDOW_CASES + ((2, 127), (6, 7), (12, 2), (8, 3)))
def test_table_blocks_across_windows_print_as_json_dumps(r, q):
    # blocks of more than 1,000 rows spanning several windows, and a single
    # block, at the largest and the smallest degree; at (2, 127), P = 128,
    # block starts run through 125 values mod 1000 and the blocks based
    # below 1000 cross into padded windows; (6, 7) has P = 19,608 and four
    # dimensions at n = 6 and form (0, 1); (12, 2) and (8, 3) have fewer
    # rows than pieces (335 and 810), which reach past 2,000 and 4,000
    for n in sorted({1, q - 1}):
        for pp, qq in ((0, 1), (-3, -1)):
            _assert_table_prints_as_json_dumps(r, q, n, pp, qq)


WORST_TABLE = ["table", "--r", "2", "--q", "499", "--n", "498", "--pp", "-3", "--qq", "-1"]


def _worst_case_table_peak(fmt):
    # 124,251 rows and 12.5 MB of JSON; the output goes to the null device,
    # so the peak is what the command itself holds
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            code = main([*WORST_TABLE, "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


def test_worst_case_table_json_peak_memory():
    assert _worst_case_table_peak("json") < 8 * 2 ** 20


def test_worst_case_table_text_peak_memory():
    assert _worst_case_table_peak("text") < 8 * 2 ** 20


def _render_peak(table):
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            cli._write_rows(table, *cli._ROW_JSON, ",\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


def test_largest_period_table_render_peak_memory():
    # P = 524,287, the largest period MAX_TABLE_ORDER admits: the pieces of
    # the rows come from tables of 1,000 entries per dimension, not from
    # lists as long as P
    assert _render_peak(glr_table(19, 2, 1, 0, 1)) < 5 * 2 ** 20


def test_few_row_table_render_peak_memory():
    # 99 rows, fewer than the 1,000 pieces of their one dimension: only the
    # pieces of the rows are built (about 64 KiB; 238 KiB with all 1,000)
    assert _render_peak(glr_table(10, 2, 1, 0, 1)) < 128 * 2 ** 10


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


def _close_stdout_after_first_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(whitdim.__file__).resolve().parents[1]))
    with subprocess.Popen([sys.executable, "-m", "whitdim", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err, err


def test_closed_stdout_exits_without_traceback():
    # about 780 kB of JSON, far more than a pipe buffers, so the writer
    # meets the closed pipe
    _close_stdout_after_first_line([
        "table", "--r", "2", "--q", "127", "--n", "6", "--pp", "1", "--qq", "1",
        "--format", "json"])


def test_closed_stdout_mid_stream_exits_without_traceback():
    # the rows of the worst case are written one window of 1,000
    # representatives at a time; the pipe closes after the first of them
    _close_stdout_after_first_line([*WORST_TABLE, "--format", "json"])
