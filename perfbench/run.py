"""Run one obstructor benchmark workload and print its result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed expands into a list of CLI instances (see workloads.py).
Each instance runs as a fresh ``python -m obstructor.cli`` subprocess, one
after another, in a closed loop with one client.

With ``--trace 0`` the run alternates set-up passes and full passes until
``--seconds`` is spent and reports the end-to-end metrics as medians over
passes. Between the children it runs calibrate.py, a fixed stdlib-only
workload, and scales each timing to the machine speed at which that workload
takes ``CALIBRATION_REF_S``; the unscaled timings stay in the record. With
``--trace 1`` it runs one plain pass and one traced pass and reports the
per-layer metrics of the traced pass, scaled the same way.

Every instance's stdout is checked exactly (check.py), and every set-up
child must exit cleanly; each child checked counts as attempted. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, with input digests and every
pass, is written under ``.bench_build/perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import workloads
from layers import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Recorded stdout digests apply to inputs generated from this seed.
DEFAULT_SEED = 0

# Timings are scaled to the machine speed at which calibrate.py takes this
# long, so that the machine's drift between runs cancels.
CALIBRATION_REF_S = 0.35

# A run must end within 180 s; a child still running this long after the run
# started is killed and its instance counts as failed.
_HARD_LIMIT_S = 170.0
# launcher.py kills its child at the limit; this is how long it may take to
# report after that.
_LAUNCHER_GRACE_S = 5.0


@dataclass
class Outcome:
    wall: float
    returncode: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


class Runner:
    """Spawns children one at a time through launcher.py, which times each
    from outside and reads its peak RSS."""

    def __init__(self, scratch: Path, started: float):
        self.scratch = scratch
        self.kill_at = started + _HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def spawn(self, argv: list[str]) -> Outcome:
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        timeout = max(0.0, self.kill_at - time.perf_counter())
        proc = subprocess.run(
            [sys.executable, "-S", str(HERE / "launcher.py"), str(out_path),
             str(err_path), repr(timeout), *argv],
            stdin=subprocess.DEVNULL, capture_output=True, env=self.env,
            cwd=ROOT, timeout=timeout + _LAUNCHER_GRACE_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit("launcher.py failed")
        wall, returncode, rss_kb = json.loads(proc.stdout)
        return Outcome(wall, returncode, out_path.read_bytes(),
                       err_path.read_bytes(), rss_kb)


def _cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "obstructor.cli", *argv]


def _load_digests(workload: str, seed: int) -> dict | None:
    """Recorded stdout digests of the workload, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Run:
    """One benchmark run: generated instances plus everything measured."""

    def __init__(self, args):
        self.workload, self.seed, self.seconds = args.workload, args.seed, args.seconds
        self.started = time.perf_counter()
        tag = f"{args.workload}-seed{args.seed}"
        self.inputs = BUILD / "inputs" / tag
        self.scratch = BUILD / "scratch" / f"{tag}-trace{args.trace}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.instances, self.input_sha256 = workloads.generate(
            args.workload, args.seed, self.inputs)
        self.instances_sha256 = workloads.instance_digest(
            self.instances, self.input_sha256)
        self.recorded = _load_digests(args.workload, args.seed)
        self.runner = Runner(self.scratch, self.started)
        self.attempted = 0
        self.failures: list[dict] = []
        self.stdout_sha256: dict[str, str] = {}
        self.recomputed: dict[str, list[str]] = {}
        self.calibration: list[float] = []

    def argv(self, inst) -> list[str]:
        return inst.resolved_argv(self.inputs)

    def judge(self, inst, outcome: Outcome, label: str) -> None:
        self.attempted += 1
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        recorded = None if self.recorded is None else self.recorded.get(inst.name)
        problems = check.check(inst.expect, outcome.returncode, outcome.stdout,
                              outcome.stderr, recorded)
        if self.recorded is not None and recorded is None:
            problems.append("no stdout digest recorded for the default seed")
        if self.stdout_sha256.setdefault(inst.name, digest) != digest:
            problems.append("stdout differs from an earlier run of the instance")
        elif not problems:
            # Every run of an instance must print the same stdout, so the
            # independent recomputation runs once per instance.
            if inst.name not in self.recomputed:
                self.recomputed[inst.name] = check.recompute(inst.expect, outcome.stdout)
            problems += self.recomputed[inst.name]
        if problems:
            self.fail(inst, label, problems, outcome)

    def fail(self, inst, label: str, problems: list[str], outcome: Outcome) -> None:
        self.failures.append({"instance": inst.name, "pass": label,
                              "problems": problems,
                              "stderr_tail": outcome.stderr[-2000:].decode(
                                  errors="replace")})

    def calibrate(self) -> None:
        outcome = self.runner.spawn([sys.executable, str(HERE / "calibrate.py")])
        if outcome.returncode != 0:
            raise SystemExit("calibration child failed")
        self.calibration.append(outcome.wall)

    def speed(self) -> float:
        """Scale factor for the child that ran between the last two
        calibrations: reference time over their mean."""
        return 2 * CALIBRATION_REF_S / sum(self.calibration[-2:])

    def instance_pass(self, label: str, argv_of) -> tuple[list[Outcome], list[float]]:
        """Run every instance as ``argv_of(index, instance)``, a calibration
        child after each, and judge the outcomes. Returns the outcomes and
        their scaled wall times. A calibration must have run just before."""
        outcomes, scaled = [], []
        for t, inst in enumerate(self.instances):
            outcomes.append(self.runner.spawn(argv_of(t, inst)))
            self.calibrate()
            scaled.append(outcomes[-1].wall * self.speed())
        for inst, outcome in zip(self.instances, outcomes):
            self.judge(inst, outcome, label)
        return outcomes, scaled

    def setup_pass(self) -> tuple[float, float]:
        """Set-up time summed over the instances, scaled and unscaled. Each
        set-up child counts as an attempt, and fails like an instance on a
        non-zero exit code or a traceback."""
        total = 0.0
        for inst in self.instances:
            outcome = self.runner.spawn(
                [sys.executable, str(HERE / "setup_child.py"), *self.argv(inst)])
            self.attempted += 1
            problems = check.check_exit(outcome.returncode, outcome.stderr)
            if problems:
                self.fail(inst, "setup", problems, outcome)
            total += outcome.wall
        self.calibrate()
        return total * self.speed(), total

    def measure_end_to_end(self) -> tuple[dict, dict]:
        """Alternate set-up and CLI passes until the time is spent."""
        deadline = self.started + self.seconds
        passes = []
        self.calibrate()
        while True:
            t0 = time.perf_counter()
            setup, setup_unscaled = self.setup_pass()
            outcomes, scaled = self.instance_pass(
                f"pass{len(passes)}", lambda t, inst: _cli(self.argv(inst)))
            walls = [o.wall for o in outcomes]
            passes.append({
                "wall_s": sum(scaled),
                "slowest_s": max(scaled),
                "setup_s": setup,
                "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
                "unscaled": {"wall_s": sum(walls), "slowest_s": max(walls),
                             "setup_s": setup_unscaled},
                "unscaled_s": {i.name: o.wall for i, o in zip(self.instances, outcomes)},
            })
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break
        metrics = {name: statistics.median(p[name] for p in passes)
                   for name in ("wall_s", "slowest_s", "setup_s", "peak_rss_mb")}
        metrics["ok_share"] = (self.attempted - len(self.failures)) / self.attempted
        unscaled = {name: statistics.median(p["unscaled"][name] for p in passes)
                    for name in ("wall_s", "slowest_s", "setup_s")}
        return metrics, {"passes": passes, "unscaled": unscaled,
                         "calibration_s": self.calibration}

    def measure_layers(self) -> tuple[dict, dict]:
        """One plain pass, then one traced pass of the same instances."""
        spans = [self.scratch / f"spans-{t}.json" for t in range(len(self.instances))]
        self.calibrate()
        _, plain = self.instance_pass("plain", lambda t, inst: _cli(self.argv(inst)))
        outcomes, traced = self.instance_pass("traced", lambda t, inst: [
            sys.executable, str(HERE / "trace_child.py"), str(spans[t]), *self.argv(inst)])
        traces = []
        for path in spans:
            # A traced child that died before writing spans has failed its
            # checks already; its layers count as empty.
            traces.append(json.loads(path.read_text()) if path.exists()
                          else {"names": [], "spans": [], "missing": []})
        missing = sorted({m for t in traces for m in t["missing"]})
        if missing:
            print("tracer: no longer in the program: " + ", ".join(missing),
                  file=sys.stderr)
        metrics = summarize(traces, [s / o.wall for s, o in zip(traced, outcomes)])
        metrics["trace.overhead_share"] = (sum(traced) - sum(plain)) / sum(plain)
        return metrics, {"plain_s": plain, "traced_s": traced, "missing": missing,
                         "calibration_s": self.calibration}

    def record(self, trace: int, metrics: dict, detail: dict) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "trace": trace,
            "seconds": self.seconds,
            "instances": [{"name": i.name, "argv": i.argv} for i in self.instances],
            "input_sha256": self.input_sha256,
            "instances_sha256": self.instances_sha256,
            "stdout_sha256": self.stdout_sha256,
            "attempted": self.attempted, "failures": self.failures,
            "metrics": metrics, "detail": detail,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "elapsed_s": time.perf_counter() - self.started,
        }


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "obstructor" / "cli.py").is_file():
        print(f"obstructor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Write the CLI's bytecode cache before anything is timed; users do not
    # pay for compiling it on every run.
    import obstructor.cli  # noqa: F401

    run = Run(args)
    if args.trace:
        metrics, detail = run.measure_layers()
    else:
        metrics, detail = run.measure_end_to_end()
    record = run.record(args.trace, metrics, detail)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in run.failures:
        print(f"FAILED {failure['instance']} ({failure['pass']}): "
              + "; ".join(failure["problems"]), file=sys.stderr)
    spec = load_spec()["per_layer" if args.trace else "end_to_end"]
    unit = {m["name"]: m["unit"] for m in spec}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
