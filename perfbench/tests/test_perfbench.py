"""Tests of the benchmark itself, not of obstructor.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import layers  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402
from run import load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ENV = {"PYTHONPATH": str(SRC)}


def _cli(argv, cwd, tracer_spans=None):
    prefix = ([sys.executable, str(HERE / "trace_child.py"), str(tracer_spans)]
              if tracer_spans else [sys.executable, "-m", "obstructor.cli"])
    return subprocess.run(prefix + argv, cwd=cwd, capture_output=True,
                          env={**ENV, "PATH": "/usr/bin:/bin"})


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first, d1 = workloads.generate(workload, 3, tmp_path / "a")
    again, d2 = workloads.generate(workload, 3, tmp_path / "b")
    other, d3 = workloads.generate(workload, 4, tmp_path / "c")
    assert d1 == d2
    assert [(i.name, i.argv, i.expect) for i in first] == \
        [(i.name, i.argv, i.expect) for i in again]
    assert workloads.instance_digest(first, d1) == workloads.instance_digest(again, d2)
    assert workloads.instance_digest(first, d1) != workloads.instance_digest(other, d3)
    for fname in d1:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


@pytest.fixture(scope="module")
def small_full(tmp_path_factory):
    """A g = 2 r3 instance: cheap, full span, checked like the g = 3 ones."""
    inputs = tmp_path_factory.mktemp("inputs")
    inst = workloads._full_instance("r3", 2, 2, 0)
    for fname, text in inst.files.items():
        (inputs / fname).write_text(text)
    argv = inst.resolved_argv(inputs)
    return inst, argv, _cli(argv, ROOT)


def test_checker_accepts_a_correct_answer(small_full):
    inst, _, proc = small_full
    assert check.check(inst.expect, proc.returncode, proc.stdout, proc.stderr) == []


def test_checker_flags_a_corrupted_basis_entry(small_full):
    inst, _, proc = small_full
    out = json.loads(proc.stdout)
    out["basis"][3][3] = "2"
    bad = json.dumps(out).encode()
    problems = check.check(inst.expect, 0, bad, b"")
    assert any(p.startswith("basis") for p in problems)


def test_checker_flags_a_wrong_exit_code_and_a_traceback(small_full):
    inst, _, proc = small_full
    assert check.check(inst.expect, 1, proc.stdout, b"") == ["exit code 1"]
    assert "traceback on stderr" in check.check(
        inst.expect, 0, proc.stdout, b"Traceback (most recent call last):")


def test_checker_flags_a_digest_mismatch(small_full):
    inst, _, proc = small_full
    assert check.check(inst.expect, 0, proc.stdout, b"", "0" * 64) == [
        "stdout digest differs from the recorded one"]


def test_recompute_flags_a_found_element_that_does_not_generate():
    argv = ["find-generator", "--g", "2", "--p", "2", "--seed", "3"]
    proc = _cli(argv, ROOT)
    expect = {"kind": "generator", "g": 2}
    assert check.check(expect, proc.returncode, proc.stdout, proc.stderr) == []
    assert check.recompute(expect, proc.stdout) == []
    out = json.loads(proc.stdout)
    # A diagonal matrix unit is its own adjoint and spans a dim-1 subrng.
    out["element"] = ["1"] + ["0"] * (len(out["element"]) - 1)
    bad = json.dumps(out).encode()
    assert check.check(expect, 0, bad, b"") == []
    assert check.recompute(expect, bad) == [
        f"{{x, x†}} spans 1 of 16 dimensions modulo {check._P}"]


@pytest.mark.parametrize("argv", [
    None,  # the r3 obstruction instance of the fixture
    ["verify", "--g", "2", "--p", "2", "--seed", "5"],
])
def test_traced_and_untraced_stdout_are_identical(argv, small_full, tmp_path):
    argv = argv or small_full[1]
    plain = _cli(argv, ROOT)
    traced = _cli(argv, ROOT, tracer_spans=tmp_path / "spans.json")
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    spans = json.loads((tmp_path / "spans.json").read_text())
    metrics = layers.summarize([spans])
    assert metrics["linalg.add_calls"] > 0
    if argv[0] == "verify":
        assert metrics["closure.fixpoint_calls"] > 0
        assert metrics["witness.search_tries"] >= 1
        assert metrics["algebra.mul_calls"] > 0
    else:
        assert metrics["obstruction.products"] > 0
        assert metrics["serialize.parse_s"] > 0


def test_metric_names_match_the_spec_and_the_grammar():
    spec = load_spec()
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            assert UNIT.fullmatch(m["unit"]), m
    per_layer = set(layers.summarize([])) | {"trace.overhead_share"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert set(layers.COUNTS) <= per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_printed_end_to_end_names_match_the_spec():
    spec = load_spec()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "obstruct-partial",
         "--seed", "97", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_report_refuses_results_with_different_inputs():
    rec = {"trace0": {"instances_sha256": "a"}, "trace1": {"instances_sha256": "a"}}
    other = {"trace0": {"instances_sha256": "b"}, "trace1": {"instances_sha256": "a"}}
    assert report.input_mismatch({"w": rec}, {"w": rec}) == []
    assert report.input_mismatch({"w": rec}, {"w": other}) == ["w (trace0)"]


def test_tracer_skips_a_target_the_program_no_longer_has():
    code = ("import layers; layers.TARGETS.append(('closure.gone', 'closure', 'gone'));"
            "t = layers.Tracer(); t.install(); print(t.missing)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, env={**ENV, "PATH": "/usr/bin:/bin"}, check=True)
    assert proc.stdout.strip() == "['closure.gone']"
