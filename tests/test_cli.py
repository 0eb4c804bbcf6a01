import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cli_runner import CliRunner

from obstructor.cli import main
from obstructor.linalg import MAX_DIGITS
from obstructor.serialize import dump_json, graph_to_json
from obstructor.witness import MAX_TRIES, build_r3_graph, verify_identity_chain


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def r3_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "r3.json"
    path.write_text(dump_json(graph_to_json(build_r3_graph(2, 2, seed=0))),
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def zero_graph_file(tmp_path_factory):
    from obstructor.algebra import quaternion_for_prime

    path = tmp_path_factory.mktemp("graphs") / "zero.json"
    payload = {
        "base": {"kind": "quaternion_for_prime", "p": 2},
        "r": 2, "sizes": [1, 1], "edges": [],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_verify_g2_passes_with_discrepancies(runner):
    res = runner.invoke(main, ["verify", "--g", "2", "--p", "2"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    statuses = {i["name"]: i["status"] for i in report["chain"]["identities"]}
    assert statuses["ab"] == "PASS"
    assert statuses["bab"] == "PAPER-DISCREPANCY"
    assert statuses["x_minus_bab_is_rotation"] == "PAPER-DISCREPANCY"
    assert report["generation"]["dim"] == 16
    assert report["ramification"]["ramified"] == ["2", "inf"]
    assert report["status"] == "PASS"


def test_verify_strict_makes_discrepancy_fatal(runner):
    res = runner.invoke(main, ["verify", "--g", "2", "--p", "2", "--strict"])
    assert res.exit_code == 1
    assert json.loads(res.output)["status"] == "FAIL"


def test_verify_g1_reports_expected_failure_as_pass(runner):
    res = runner.invoke(main, ["verify", "--g", "1", "--p", "3", "--trials", "25"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    imp = report["impossibility"]
    assert imp["non_generating"] == imp["trials"] == 25
    assert imp["max_closure_dim"] <= 3
    assert imp["all_commutative"]
    assert report["status"] == "PASS"


def test_verify_all_battery(runner):
    res = runner.invoke(main, ["verify", "--g", "2", "--p", "2", "--all",
                               "--trials", "5"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert [c["g"] for c in report["chain"]] == [2, 3, 4, 5]
    assert all(s["ok"] for s in report["generation"])
    assert [s["p"] for s in report["ramification"]] == [2, 3, 5, 7, 11, 13]
    assert all(s["ok"] for s in report["impossibility"])
    assert report["divisor"]["ok"] is True
    assert report["status"] == "PASS"


def test_verify_g0_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "--g", "0", "--p", "2"])
    assert res.exit_code == 2


def test_verify_composite_p_is_usage_error(runner):
    res = runner.invoke(main, ["verify", "--g", "2", "--p", "4"])
    assert res.exit_code == 2


def test_obstruction_r3_file(runner, r3_graph_file):
    res = runner.invoke(main, ["obstruction", "--graph", r3_graph_file,
                               "--vertex", "1"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["e_dim"] == 16
    assert report["is_full"] is True
    assert report["verdict"] == "OBSTRUCTED"
    assert report["base_ramified"] is True
    assert len(report["basis"]) == 16


def test_obstruction_zero_graph(runner, zero_graph_file):
    res = runner.invoke(main, ["obstruction", "--graph", zero_graph_file,
                               "--vertex", "1"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["e_dim"] == 0
    assert report["verdict"] == "NOT-OBSTRUCTED"


def _block_graph_json() -> str:
    """The g = 2 r3 graph padded to three size-3 vertices: its loop span is
    the partial corner of diag(1, 1, 0)."""
    payload = graph_to_json(build_r3_graph(2, 2, seed=0))
    zero = ["0"] * 4
    for edge in payload["edges"]:
        edge["matrix"] = [row + [zero] for row in edge["matrix"]] + [[zero] * 3]
    payload["sizes"] = [3, 3, 3]
    return dump_json(payload)


def test_obstruction_never_builds_the_matrix_algebra(
        runner, tmp_path, monkeypatch, r3_graph_file):
    import obstructor.cli as cli

    built = []
    real = cli.matrix_algebra
    monkeypatch.setattr(cli, "matrix_algebra",
                        lambda base, g: built.append(g) or real(base, g))
    files = {"zero": tmp_path / "zero.json", "block": tmp_path / "block.json"}
    files["zero"].write_text(json.dumps({"base": {"kind": "quaternion_for_prime", "p": 2},
                                         "r": 2, "sizes": [3, 3], "edges": []}),
                             encoding="utf-8")
    files["block"].write_text(_block_graph_json(), encoding="utf-8")
    reports = {}
    for name, path in [*files.items(), ("full", r3_graph_file)]:
        built.clear()
        res = runner.invoke(main, ["obstruction", "--graph", str(path), "--vertex", "1"])
        assert res.exit_code == 0, res.output
        reports[name] = (json.loads(res.output), list(built))
    zero, full, block = reports["zero"], reports["full"], reports["block"]
    assert zero[1] == [] and full[1] == [] and block[1] == []
    assert zero[0]["idempotent"] == ["0"] * 36 and zero[0]["factor_dim"] == 0
    assert full[0]["idempotent"] == [str(int(r == c and t == 0))
                                     for r in range(2) for c in range(2) for t in range(4)]
    assert (block[0]["e_dim"], block[0]["is_corner"], block[0]["factor_dim"]) == (16, True, 16)


def test_obstruction_oracle_flag(runner, tmp_path):
    # small graph whose loop span stabilizes within 4 edges
    payload = {
        "base": {"kind": "quaternion", "a": "-1", "b": "-1"},
        "r": 3, "sizes": [1, 1, 1],
        "edges": [
            {"i": 1, "j": 2, "matrix": [[["0", "1", "0", "0"]]]},
            {"i": 1, "j": 3, "matrix": [[["1", "0", "0", "0"]]]},
            {"i": 2, "j": 3, "matrix": [[["1", "0", "0", "0"]]]},
        ],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    res = runner.invoke(main, ["obstruction", "--graph", str(path),
                               "--vertex", "1", "--oracle-len", "4"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["e_dim"] == 2
    assert report["oracle_len"] == 4
    assert report["oracle_equal"] is True


def test_obstruction_huge_oracle_len_stops_once_stable(runner, r3_graph_file):
    # The oracle stops when its spans stop growing, so a length far past
    # anything enumerable needs no cap.
    res = runner.invoke(main, ["obstruction", "--graph", r3_graph_file,
                               "--vertex", "1", "--oracle-len", "1000000000"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["oracle_len"] == 1000000000
    assert report["oracle_dim"] == report["e_dim"]
    assert report["oracle_equal"] is True


def test_obstruction_oracle_len_checked_before_any_work(runner, r3_graph_file,
                                                        monkeypatch):
    def fail(*args):
        raise AssertionError("the loop span was computed before --oracle-len was checked")

    monkeypatch.setattr("obstructor.cli.path_span_table", fail)
    res = runner.invoke(main, ["obstruction", "--graph", r3_graph_file,
                               "--vertex", "1", "--oracle-len", "1"])
    assert res.exit_code == 2
    assert "Usage:" in res.output
    assert "--oracle-len must be >= 2" in res.output


def test_obstruction_malformed_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    res = runner.invoke(main, ["obstruction", "--graph", str(bad), "--vertex", "1"])
    assert res.exit_code == 2


def test_obstruction_schema_violation(runner, tmp_path):
    bad = tmp_path / "badschema.json"
    bad.write_text(json.dumps({"base": {"kind": "quaternion_for_prime", "p": 2},
                               "r": 2, "sizes": [1, 1],
                               "edges": [{"i": 1, "j": 2, "matrix": [[["1"]]]}]}),
                   encoding="utf-8")
    res = runner.invoke(main, ["obstruction", "--graph", str(bad), "--vertex", "1"])
    assert res.exit_code == 2


def _assert_graph_usage_error(runner, tmp_path, payload):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    res = runner.invoke(main, ["obstruction", "--graph", str(path), "--vertex", "1"])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr


def test_obstruction_bool_size_is_usage_error(runner, tmp_path):
    _assert_graph_usage_error(runner, tmp_path, {
        "base": {"kind": "quaternion_for_prime", "p": 2},
        "r": 2, "sizes": [True, 1], "edges": []})


def test_obstruction_non_prime_p_is_usage_error(runner, tmp_path):
    _assert_graph_usage_error(runner, tmp_path, {
        "base": {"kind": "quaternion_for_prime", "p": 4},
        "r": 2, "sizes": [1, 1], "edges": []})


def test_obstruction_vertex_out_of_range(runner, zero_graph_file):
    res = runner.invoke(main, ["obstruction", "--graph", zero_graph_file,
                               "--vertex", "5"])
    assert res.exit_code == 2


def test_find_generator_deterministic_bytes(runner):
    args = ["find-generator", "--g", "2", "--p", "2", "--seed", "3"]
    out1 = runner.invoke(main, args)
    out2 = runner.invoke(main, args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    report = json.loads(out1.output)
    assert report["found"] is True
    assert len(report["matrix"]) == 2


def test_find_generator_seed_env_override(runner):
    direct = runner.invoke(main, ["find-generator", "--g", "2", "--p", "2",
                                  "--seed", "9"])
    via_env = runner.invoke(main, ["find-generator", "--g", "2", "--p", "2"],
                            env={"OBSTRUCTOR_SEED": "9"})
    assert direct.output == via_env.output


def test_a_seed_env_that_is_not_an_integer_is_usage_error(runner):
    res = runner.invoke(main, ["find-generator", "--g", "2", "--p", "2"],
                        env={"OBSTRUCTOR_SEED": "abc"})
    assert res.exit_code == 2 and res.stdout == ""
    assert "Error: OBSTRUCTOR_SEED must be an integer, got 'abc'" in res.stderr
    assert "Traceback" not in res.stderr


def test_find_generator_g1_not_found(runner):
    res = runner.invoke(main, ["find-generator", "--g", "1", "--p", "2",
                               "--tries", "5"])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["found"] is False and report["tries"] == 5
    # The help text documents this exit rather than forbidding --g 1.
    help_text = " ".join(runner.invoke(main, ["find-generator", "--help"]).output.split())
    assert "Matrix size (>= 1; no x generates at g = 1, which exits 1)." in help_text


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--g", "1", "--p", "2", "--trials"], "--trials"),
    (["find-generator", "--g", "1", "--p", "2", "--tries"], "--tries"),
])
def test_a_seeded_loop_above_the_cap_is_refused_before_any_draw(
        runner, monkeypatch, argv, flag):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an element")
    monkeypatch.setattr("obstructor.cli.random_elements", no_draw)
    monkeypatch.setattr("obstructor.cli.random_rosati_generator", no_draw)
    res = runner.invoke(main, argv + [str(MAX_TRIES + 1)])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.endswith(f"Error: {flag} must be at most {MAX_TRIES}\n")


def test_corner_command(runner, tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"kind": "matrix", "g": 2,
                               "base": {"kind": "custom", "dim": 1,
                                        "consts": [[["1"]]], "unit": ["1"],
                                        "involution": [["1"]]}}),
                   encoding="utf-8")
    elems = tmp_path / "span.json"
    elems.write_text(json.dumps([["1", "0", "0", "0"]]), encoding="utf-8")
    res = runner.invoke(main, ["corner", "--algebra", str(alg),
                               "--elements", str(elems)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["is_corner"] is True
    assert report["factor_dim"] == 1
    assert report["idempotent"] == ["1", "0", "0", "0"]


def test_corner_non_unital_algebra_is_usage_error(runner, tmp_path):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"kind": "custom", "dim": 1, "consts": [[["0"]]]}),
                   encoding="utf-8")
    elems = tmp_path / "span.json"
    elems.write_text(json.dumps([["1"]]), encoding="utf-8")
    res = runner.invoke(main, ["corner", "--algebra", str(alg),
                               "--elements", str(elems)])
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "unital" in res.output


_IDEMPOTENT_PAIR = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]


@pytest.mark.parametrize("descriptor, line", [
    ({"consts": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]]},
     "associativity fails on basis triple ('b0', 'b0', 'b0'): "
     "(xy)z - x(yz) has coefficient -1 at b0"),
    ({"consts": [[["0", "1/2"], ["1", "0"]], [["0", "0"], ["0", "0"]]]},
     "associativity fails on basis triple ('b0', 'b0', 'b0'): "
     "(xy)z - x(yz) has coefficient -1/2 at b0"),
    ({"consts": _IDEMPOTENT_PAIR, "unit": ["1", "0"]},
     "unit law fails on basis element b1"),
    ({"consts": _IDEMPOTENT_PAIR, "unit": ["1", "1"],
      "involution": [["1", "0"], ["1", "0"]]},
     "involution axiom fails on b1: sigma(sigma(x)) != x"),
], ids=["associativity", "associativity-denominator", "unit", "involution"])
def test_corner_invalid_custom_algebra_error_line(runner, tmp_path, descriptor, line):
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"kind": "custom", "dim": 2, **descriptor}),
                   encoding="utf-8")
    elems = tmp_path / "span.json"
    elems.write_text(json.dumps([["1", "0"]]), encoding="utf-8")
    res = runner.invoke(main, ["corner", "--algebra", str(alg),
                               "--elements", str(elems)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"Error: {line}\n"


_EDGE = {"i": 1, "j": 2, "matrix": [[["1", "0", "0", "0"]]]}
_TWO_VERTICES = {"base": {"kind": "quaternion_for_prime", "p": 2}, "sizes": [1, 1]}
_Q_PLUS_Q = {"kind": "custom", "dim": 2, "consts": _IDEMPOTENT_PAIR}


@pytest.mark.parametrize("command, payload, line", [
    ("obstruction", {**_TWO_VERTICES, "edges": {"1": _EDGE}},
     "graph.edges: expected a list"),
    ("obstruction", {**_TWO_VERTICES, "edges": [[1, 2]]},
     "graph.edges[0]: expected an object"),
    ("obstruction", {**_TWO_VERTICES, "edges": [_EDGE, _EDGE]},
     "graph.edges[1]: duplicate edge (1,2)"),
    ("corner", {**_Q_PLUS_Q, "consts": [_IDEMPOTENT_PAIR[0], [["0", "0"]]]},
     "algebra.consts[1]: expected 2 entries"),
    ("corner", {**_Q_PLUS_Q, "involution": {"0": ["1", "0"]}},
     "algebra.involution: expected a list of rows"),
    ("obstruction", {**_TWO_VERTICES, "r": 2.0, "edges": []},
     "graph.r: expected an integer"),
    ("obstruction", {**_TWO_VERTICES, "r": True, "edges": []},
     "graph.r: expected an integer"),
    ("corner", {"kind": "split", "g": 0},
     "algebra.g: expected a positive integer"),
    ("corner", {"kind": "matrix", "g": True,
                "base": {"kind": "quaternion_for_prime", "p": 2}},
     "algebra.g: expected a positive integer"),
], ids=["edges-not-a-list", "edge-not-an-object", "duplicate-edge",
        "consts-row-length", "involution-not-a-list", "float-r", "bool-r",
        "split-g-zero", "matrix-g-bool"])
def test_loader_error_names_the_json_path(runner, tmp_path, command, payload, line):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    if command == "obstruction":
        args = ["obstruction", "--graph", str(path), "--vertex", "1"]
    else:
        elems = tmp_path / "span.json"
        elems.write_text(json.dumps([["1", "0"]]), encoding="utf-8")
        args = ["corner", "--algebra", str(path), "--elements", str(elems)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"Error: {line}\n"


def test_hilbert_table(runner):
    res = runner.invoke(main, ["hilbert", "--a", "-1", "--b", "-1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["symbols"] == {"2": -1, "inf": -1}
    assert report["ramified"] == ["2", "inf"]
    assert report["product"] == 1


def test_hilbert_single_place(runner):
    res = runner.invoke(main, ["hilbert", "--a", "-2", "--b", "-5",
                               "--place", "5"])
    assert json.loads(res.output)["symbol"] == -1


def test_hilbert_rejects_zero(runner):
    res = runner.invoke(main, ["hilbert", "--a", "0", "--b", "1"])
    assert res.exit_code == 2


def test_divisor_full_example(runner):
    res = runner.invoke(main, [
        "divisor", "--poly", "x1*x2*x3 - y1*y2*y3", "--r", "3",
        "--fiber", "1:[0:1]", "--fiber", "2:[1:0]",
        "--subst", "2,2,2",
        "--factors", "x1*x2*x3 - y1*y2*y3",
        "--factors", "x1*x2*x3 + y1*y2*y3",
    ])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["multidegree"] == [1, 1, 1]
    assert report["double_fiber_hits"][0]["contained"] is True
    assert report["splitting_verified"] is True


def test_divisor_missing_required_flag(runner):
    res = runner.invoke(main, ["divisor", "--poly", "x1"])
    assert res.exit_code == 2


def test_divisor_bad_poly_is_usage_error(runner):
    res = runner.invoke(main, ["divisor", "--poly", "x1 + ", "--r", "1"])
    assert res.exit_code == 2


def test_divisor_single_fiber_is_usage_error(runner):
    res = runner.invoke(main, ["divisor", "--poly", "x1", "--r", "1",
                               "--fiber", "1:[0:1]"])
    assert res.exit_code == 2


def _assert_one_error_line(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.startswith("Error:") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("r", ["65", "1000000000"])
def test_divisor_r_over_the_cap_is_usage_error(runner, r):
    start = time.perf_counter()
    res = runner.invoke(main, ["divisor", "--poly", "x1", "--r", r])
    assert time.perf_counter() - start < 1
    _assert_one_error_line(res)
    assert "exceed the cap 64" in res.stderr


_HUGE_POWER = "x1^1000000000*x2 - y1^1000000000*y2"


def test_divisor_fiber_over_the_bit_budget_is_usage_error(runner):
    start = time.perf_counter()
    res = runner.invoke(main, ["divisor", "--poly", _HUGE_POWER, "--r", "2",
                               "--fiber", "1:[3:1]", "--fiber", "2:[1:1]"])
    assert time.perf_counter() - start < 1
    _assert_one_error_line(res)
    assert "bits" in res.stderr


def test_divisor_fiber_budget_counts_every_term(runner):
    from obstructor.cli import _divisor_section

    # Each term costs 524288 * bit_length(2) = 2^20 bits at [3:2]; two fit
    # the budget, forty do not.
    terms = [f"x1^{524288 - k}*y1^{k}*x2" for k in range(1, 41)]
    for count, code in [(1, 0), (2, 0), (40, 2)]:
        start = time.perf_counter()
        res = runner.invoke(main, ["divisor", "--poly", " + ".join(terms[:count]),
                                   "--r", "2", "--fiber", "1:[3:2]", "--fiber", "2:[1:1]"])
        assert time.perf_counter() - start < 1
        assert res.exit_code == code, (count, res.output)
    _assert_one_error_line(res)
    assert "bits" in res.stderr
    assert _divisor_section()["ok"] is True


@pytest.mark.parametrize("pt_i, pt_j", [("0:1", "1:0"), ("1:-1", "1:1")])
def test_divisor_fiber_at_unit_coordinates_needs_no_bits(runner, pt_i, pt_j):
    res = runner.invoke(main, ["divisor", "--poly", _HUGE_POWER, "--r", "2",
                               "--fiber", f"1:[{pt_i}]", "--fiber", f"2:[{pt_j}]"])
    assert res.exit_code == 0, res.output
    assert res.output == dump_json({
        "poly": _HUGE_POWER, "r": 2, "multidegree": [1000000000, 1],
        "double_fiber_hits": [{"i": 1, "point_i": f"[{pt_i}]",
                               "j": 2, "point_j": f"[{pt_j}]",
                               "contained": True}]})


def test_byte_identical_reports(runner, r3_graph_file):
    args = ["obstruction", "--graph", r3_graph_file, "--vertex", "1"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


# -- strict rationals: -?digits(/digits)?, at most MAX_DIGITS digits a part ----

_BIG = "1" * 5000


@pytest.mark.parametrize("argv", [
    ["hilbert", "--a", "1e5000", "--b", "-1"],
    ["hilbert", "--a", "1.5", "--b", "-1"],
    ["hilbert", "--a", "1/0", "--b", "-1"],
    ["hilbert", "--a", "+3", "--b", "-1"],
    ["hilbert", "--a", "-1", "--b", "1" * (MAX_DIGITS + 1)],
    ["divisor", "--poly", f"x1^{_BIG}", "--r", "1"],
    ["divisor", "--poly", f"{_BIG}*x1", "--r", "1"],
    ["divisor", "--poly", f"x{_BIG}", "--r", "1"],
    ["divisor", "--poly", "1/0*x1", "--r", "1"],
    ["divisor", "--poly", "x1*x2", "--r", "2",
     "--fiber", f"{_BIG}:[0:1]", "--fiber", "2:[1:0]"],
    ["divisor", "--poly", "x1*x2", "--r", "2",
     "--fiber", "1:[1.5:1]", "--fiber", "2:[1:0]"],
], ids=["hilbert-exponent", "hilbert-decimal", "hilbert-zero-denominator",
        "hilbert-plus-sign", "hilbert-over-cap", "poly-long-exponent",
        "poly-long-coefficient", "poly-long-variable", "poly-zero-denominator",
        "fiber-long-index", "fiber-decimal"])
def test_bad_rational_input_is_usage_error(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Error:" in res.stderr and "Traceback" not in res.stderr


def test_rational_at_the_digit_cap_is_accepted(runner):
    res = runner.invoke(main, ["divisor", "--poly", f"{'7' * MAX_DIGITS}/3*x1",
                               "--r", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["poly"] == f"{'7' * MAX_DIGITS}/3*x1"


@pytest.mark.parametrize("entry", ["1.5", "1e5000", "1/0", " 1", True, 0.5,
                                   "1" * (MAX_DIGITS + 1)],
                         ids=["decimal", "exponent", "zero-denominator", "space",
                              "bool", "float", "over-cap"])
def test_bad_rational_in_graph_json_is_usage_error(runner, tmp_path, entry):
    _assert_graph_usage_error(runner, tmp_path, {
        "base": {"kind": "quaternion_for_prime", "p": 2},
        "r": 2, "sizes": [1, 1],
        "edges": [{"i": 1, "j": 2, "matrix": [[[entry, "0", "0", "0"]]]}]})


def test_bad_rational_quaternion_base_is_usage_error(runner, tmp_path):
    _assert_graph_usage_error(runner, tmp_path, {
        "base": {"kind": "quaternion", "a": "1.5", "b": "-1"},
        "r": 2, "sizes": [1, 1], "edges": []})


def test_json_int_over_the_digit_limit_is_usage_error(runner, tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"r": 2, "sizes": [1, %s], "edges": []}' % _BIG,
                    encoding="utf-8")
    res = runner.invoke(main, ["obstruction", "--graph", str(path), "--vertex", "1"])
    assert res.exit_code == 2
    assert "Traceback" not in res.stderr


# -- exit codes: one row per route ---------------------------------------------

_SEMIPRIME = "3000000000000000000000028000000000000000000000049"


def _edgeless_graph(base, g: int = 1, r: int = 2) -> str:
    return json.dumps({"base": base, "r": r, "sizes": [g] * r, "edges": []})


_QFP2 = {"kind": "quaternion_for_prime", "p": 2}
_QFP2_GRAPH = _edgeless_graph(_QFP2)


def _nested_matrix(depth: int) -> str:
    return ('{"kind": "matrix", "g": 1, "base": ' * depth
            + '{"kind": "quaternion_for_prime", "p": 2}' + "}" * depth)


@pytest.mark.parametrize("argv, files, code", [
    (["verify", "--g", "2", "--p", "2", "--strict"], {}, 1),
    (["find-generator", "--g", "1", "--p", "2", "--tries", "5"], {}, 1),
    (["corner", "--algebra", "{algebra}", "--elements", "{elements}"],
     {"algebra": json.dumps({"kind": "custom", "dim": 1, "consts": [[["0"]]]}),
      "elements": '[["1"]]'}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "5"],
     {"graph": _QFP2_GRAPH}, 2),
    (["find-generator", "--g", "0", "--p", "2"], {}, 2),
    (["divisor", "--poly", "x1", "--r", "0"], {}, 2),
    (["hilbert", "--a", _SEMIPRIME, "--b", "-1"], {}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _edgeless_graph({"kind": "quaternion", "a": f"-{_SEMIPRIME}",
                                  "b": "-1"})}, 2),
    (["obstruction", "--graph", "{tmp}", "--vertex", "1"], {}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": "[" * 200_000 + "]" * 200_000}, 2),
    (["hilbert", "--a", "318665857834031151167461", "--b", "-1"], {}, 2),
    (["hilbert", "--a", "1", "--b", "1", "--place", "3317044064679887385961981"],
     {}, 2),
    (["corner", "--algebra", "{algebra}", "--elements", "{elements}"],
     {"algebra": _nested_matrix(900), "elements": '[["1", "0", "0", "0"]]'}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _edgeless_graph(_QFP2, 1_000_000)}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _edgeless_graph(_QFP2, 40)}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _edgeless_graph(_QFP2, 1, 65)}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _edgeless_graph(_QFP2, 1, 64)}, 0),
    (["find-generator", "--g", "100000", "--p", "2"], {}, 2),
    (["verify", "--g", "100000", "--p", "2"], {}, 2),
    (["verify", "--g", "1", "--p", "2", "--trials", "-1"], {}, 2),
    (["verify", "--g", "1", "--p", "2", "--trials", "0"], {}, 2),
    (["verify", "--g", "1", "--p", "2", "--trials", str(MAX_TRIES + 1)], {}, 2),
    (["find-generator", "--g", "1", "--p", "2", "--tries", str(MAX_TRIES + 1)],
     {}, 2),
    (["find-generator", "--g", "2", "--p", "2", "--tries", str(MAX_TRIES)], {}, 0),
    (["find-generator", "--g", "2", "--p", "4"], {}, 2),
    (["find-generator", "--g", "2", "--p", "2", "--bound", "0"], {}, 2),
    (["corner", "--algebra", "{algebra}", "--elements", "{elements}"],
     {"algebra": json.dumps(_QFP2), "elements": '{"v": ["1", "0", "0", "0"]}'}, 2),
    (["hilbert", "--a", "-1", "--b", "-1", "--place", "x"], {}, 2),
    (["hilbert", "--a", "-1", "--b", "-1", "--place", "4"], {}, 2),
    (["hilbert", "--a", "-1", "--b", "-1", "--place", "inf"], {}, 0),
    (["divisor", "--poly", "x1", "--r", "1", "--subst", "a"], {}, 2),
    (["obstruction", "--graph", "{graph}", "--vertex", "1"],
     {"graph": _QFP2_GRAPH}, 3),
], ids=["verify-strict", "find-generator-g1", "corner-non-unital",
        "vertex-out-of-range", "find-generator-g0", "divisor-r0",
        "hilbert-semiprime", "graph-semiprime-base", "graph-is-directory",
        "graph-deep-array", "hilbert-strong-pseudoprime",
        "hilbert-place-beyond-exact-bound", "corner-deep-matrix-nesting",
        "graph-size-million", "graph-size-40", "graph-65-vertices",
        "graph-64-vertices", "find-generator-huge-g",
        "verify-huge-g", "verify-trials-negative", "verify-trials-zero",
        "verify-trials-above-cap", "find-generator-tries-above-cap",
        "find-generator-tries-at-cap", "find-generator-p-not-prime",
        "find-generator-bound-zero", "corner-elements-not-a-list",
        "hilbert-place-not-a-number", "hilbert-place-not-prime",
        "hilbert-place-inf", "divisor-subst-not-integers",
        "internal-error"])
def test_exit_code_routes(runner, tmp_path, monkeypatch, argv, files, code):
    """0 success, 1 verification failure, 2 usage or library error, 3 internal
    error; every route ends promptly and none prints a traceback. Exit 3 has no
    honest trigger, so that row injects a fault into the obstruction engine."""
    paths = {"tmp": str(tmp_path)}
    for key, text in files.items():
        path = tmp_path / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    if code == 3:
        def boom(graph):
            raise RuntimeError("injected\nfault")
        monkeypatch.setattr("obstructor.cli.path_span_table", boom)
    start = time.perf_counter()
    res = runner.invoke(main, [a.format(**paths) for a in argv])
    assert time.perf_counter() - start < 3
    assert res.exit_code == code, res.output
    if code:
        assert isinstance(res.exception, SystemExit)
    else:
        assert res.exception is None
    assert "Traceback" not in res.stderr
    if code in (0, 1):
        assert json.loads(res.stdout)
    else:
        assert res.stdout == ""
        assert res.stderr.startswith("Error:") or "\nError:" in res.stderr
    if code == 3:
        assert res.stderr == "Error: internal error (RuntimeError): injected fault\n"


def test_an_interrupt_exits_130(runner, monkeypatch, r3_graph_file):
    """Ctrl-C exits 128 + SIGINT, not 1, the code of a failed verification."""
    def interrupt(graph):
        raise KeyboardInterrupt
    monkeypatch.setattr("obstructor.cli.path_span_table", interrupt)
    res = runner.invoke(main, ["obstruction", "--graph", r3_graph_file, "--vertex", "1"])
    assert res.exit_code == 130 and res.stdout == ""
    assert res.stderr == "\nAborted!\n"


def test_verify_fails_on_an_undocumented_identity(runner, monkeypatch):
    """An identity outside DOCUMENTED_DISCREPANCIES that does not hold is a
    FAIL, and fails verify with exit 1 without --strict."""
    def broken(g):
        rep = verify_identity_chain(g)
        first = rep.identities[0]._replace(holds=False)
        return rep._replace(identities=(first, *rep.identities[1:]))
    monkeypatch.setattr("obstructor.cli.verify_identity_chain", broken)
    res = runner.invoke(main, ["verify", "--g", "2", "--p", "2"])
    assert res.exit_code == 1
    report = json.loads(res.stdout)
    statuses = {i["name"]: i["status"] for i in report["chain"]["identities"]}
    assert statuses["x_pow_2g_minus_1"] == "FAIL" and statuses["ab"] == "PASS"
    assert report["status"] == "FAIL"


# -- front end: parse errors, help, start-up -------------------------------------

@pytest.mark.parametrize("argv, error", [
    ([], "Missing command."),
    (["nope"], "No such command 'nope'."),
    (["--gra"], "No such option '--gra'."),
    (["verify", "--p", "2"], "Missing option '--g'."),
    (["verify", "--g", "x", "--p", "2"],
     "Invalid value for '--g': 'x' is not a valid integer."),
    (["verify", "--g", "1", "--p", "2", "--nope", "1"], "No such option '--nope'."),
    (["verify", "--g", "1", "--p", "2", "--tri", "3"], "No such option '--tri'."),
    (["verify", "--g", "1", "--p"], "Option '--p' requires an argument."),
    (["verify", "--g", "1", "--p", "2", "--all=yes"],
     "Option '--all' does not take a value."),
    (["verify", "-g", "1"], "No such option '-g'."),
    (["verify", "--g", "1", "--p", "2", "extra"],
     "Got unexpected extra argument (extra)"),
    (["obstruction", "--vertex", "1"], "Missing option '--graph'."),
    (["obstruction", "--graph", "g.json", "--vertex", "one"],
     "Invalid value for '--vertex': 'one' is not a valid integer."),
    (["obstruction", "--graph", "g.json", "--vertex", "1", "--nope", "1"],
     "No such option '--nope'."),
    (["obstruction", "--gra", "g.json", "--vertex", "1"], "No such option '--gra'."),
    (["find-generator", "--g", "2"], "Missing option '--p'."),
    (["find-generator", "--g", "two", "--p", "2"],
     "Invalid value for '--g': 'two' is not a valid integer."),
    (["find-generator", "--g", "2", "--p", "2", "--nope", "1"], "No such option '--nope'."),
    (["find-generator", "--g", "2", "--p", "2", "--tri", "3"], "No such option '--tri'."),
    (["corner", "--algebra", "a.json"], "Missing option '--elements'."),
    (["corner", "--algebra", "a.json", "--elements", "e.json", "--nope", "1"],
     "No such option '--nope'."),
    (["corner", "--alg", "a.json", "--elements", "e.json"], "No such option '--alg'."),
    (["hilbert", "--b", "1"], "Missing option '--a'."),
    (["hilbert", "--a", "1", "--b", "1", "--nope", "1"], "No such option '--nope'."),
    (["hilbert", "--a", "1", "--b", "1", "--pla", "3"], "No such option '--pla'."),
    (["divisor", "--poly", "x1"], "Missing option '--r'."),
    (["divisor", "--poly", "x1", "--r", "x"],
     "Invalid value for '--r': 'x' is not a valid integer."),
    (["divisor", "--poly", "x1", "--r", "1", "--nope", "1"], "No such option '--nope'."),
    (["divisor", "--pol", "x1", "--r", "1"], "No such option '--pol'."),
], ids=lambda v: (" ".join(v) or "no-command") if isinstance(v, list) else None)
def test_a_parse_error_exits_2_after_the_usage_line(runner, argv, error):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("Usage: ")
    assert res.stderr.splitlines()[-1].startswith(f"Error: {error}")


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--g", "--p", "--all", "--strict", "--seed", "--trials"]),
    ("obstruction", ["--graph", "--vertex", "--oracle-len"]),
    ("find-generator", ["--g", "--p", "--seed", "--tries", "--bound"]),
    ("corner", ["--algebra", "--elements"]),
    ("hilbert", ["--a", "--b", "--place"]),
    ("divisor", ["--poly", "--r", "--subst", "--fiber", "--factors"]),
])
def test_help_names_every_option(runner, command, flags):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0 and res.stderr == ""
    listed = [line.split()[0] for line in res.stdout.splitlines()
              if line.startswith("  --")]
    assert listed == flags + ["--help"]
    assert command in runner.invoke(main, ["--help"]).stdout


@pytest.mark.parametrize("argv, stdout", [
    (["hilbert", "--a", "-1/2", "--b", "-1"],
     '{\n  "a": "-1/2",\n  "b": "-1",\n  "symbols": {\n    "2": -1,\n    "inf": -1\n'
     '  },\n  "ramified": [\n    "2",\n    "inf"\n  ],\n  "product": 1\n}\n'),
    (["divisor", "--poly", "-x1*y1", "--r", "1"],
     '{\n  "poly": "-x1*y1",\n  "r": 1,\n  "multidegree": [\n    2\n  ]\n}\n'),
], ids=["hilbert", "divisor"])
def test_an_option_value_may_start_with_a_dash(runner, argv, stdout):
    res = runner.invoke(main, argv)
    assert res.exit_code == 0 and res.stdout == stdout


def _spawn(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *argv`` on this tree's package, as text, with stderr
    captured and ``PYTHONUNBUFFERED`` unset, so that stdout is
    block-buffered unless it is a terminal."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(sys.modules[main.__module__].__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, text=True,
                          stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, **kwargs)


def _loaded_by(statement: str) -> list:
    """The modules that ``statement`` loads in a fresh interpreter, sorted;
    what ``site`` loads before it does not count."""
    code = ("import sys\nbefore = set(sys.modules)\n" + statement
            + "\nprint(*sorted(set(sys.modules) - before))")
    out = _spawn("-c", code, stdout=subprocess.PIPE, check=True).stdout
    return out.splitlines()[-1].split()


def test_importing_the_cli_loads_only_the_standard_library():
    loaded = _loaded_by("import obstructor.cli")
    assert "obstructor.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] != "obstructor"
            and name.split(".")[0] not in sys.stdlib_module_names] == []


def test_importing_the_cli_skips_the_slow_standard_modules():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    most of the package's start-up; records are ``NamedTuple``s instead."""
    loaded = _loaded_by("import obstructor.cli")
    assert "obstructor.cli" in loaded
    slow = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    assert slow.isdisjoint(loaded)


def test_importing_the_cli_skips_the_modules_no_common_command_uses():
    """Every child compiles what it imports. ``divisor`` serves one command
    and ``verify --all``, and no command uses ``laws``; the modules that the
    benchmark's tracer wraps (``perfbench/layers.TARGETS``) must stay loaded."""
    loaded = _loaded_by("import obstructor.cli")
    traced = ["serialize", "algebra", "linalg", "closure", "obstruction", "witness"]
    assert [f"obstructor.{m}" for m in traced if f"obstructor.{m}" not in loaded] == []
    assert {"obstructor.divisor", "obstructor.laws"}.isdisjoint(loaded)


def test_the_divisor_command_loads_the_divisor_module():
    loaded = _loaded_by("from obstructor.cli import main\n"
                        "try:\n    main(['divisor', '--poly', 'x1*y1', '--r', '1'])\n"
                        "except SystemExit as exc:\n    assert exc.code == 0")
    assert "obstructor.divisor" in loaded and "obstructor.laws" not in loaded


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_of_the_output_exits_3_with_one_error_line():
    with open("/dev/full", "w") as full:
        res = _spawn("-m", "obstructor.cli", "hilbert", "--a", "-1", "--b", "-1",
                     stdout=full)
    assert res.returncode == 3
    assert res.stderr == ("Error: internal error (OSError): "
                          "[Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, code", [
    (["verify", "--g", "2", "--p", "2"], 0),
    (["verify", "--g", "2", "--p", "2", "--strict"], 1),
    (["verify", "--g", "2"], 2),
], ids=["pass", "strict-failure", "usage-error"])
def test_a_process_prints_what_main_prints_in_process(runner, argv, code):
    """The process ends without interpreter teardown, so this holds only if
    the output reaches the block-buffered pipe before it ends."""
    prog = "python -m obstructor.cli"
    want = runner.invoke(lambda args, prog_name: main(args, prog), argv)
    got = _spawn("-m", "obstructor.cli", *argv, stdout=subprocess.PIPE)
    assert want.exit_code == code
    assert (got.returncode, got.stdout, got.stderr) == (code, want.stdout, want.stderr)


def test_a_profiled_run_exits_normally_and_prints_the_profile():
    res = _spawn("-m", "cProfile", "-m", "obstructor.cli",
                 "hilbert", "--a", "-1", "--b", "-1", stdout=subprocess.PIPE)
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout.startswith('{\n  "a": "-1",') and "function calls" in res.stdout


def test_the_console_script_and_the_module_share_one_entry():
    # tomllib needs Python 3.11, above the floor, so both are matched as text.
    root = Path(__file__).resolve().parent.parent
    script = re.search(r'^obstructor = "obstructor\.cli:(\w+)"$',
                       (root / "pyproject.toml").read_text(), re.M)
    module = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)$',
                       Path(sys.modules[main.__module__].__file__).read_text(), re.M)
    assert script and module and script.group(1) == module.group(1) != "main"
