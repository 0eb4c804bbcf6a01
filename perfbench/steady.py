"""Steadiness check: is the benchmark steady enough to judge a change?

Usage (from the repository root):

    python3 perfbench/steady.py [--against FILE] [--counts]

Runs ``run.py --trace 0`` once per workload of BENCHMARK.json and seed 1 to
10, with the spec's ``run_seconds``, interleaving the workloads so that slow
drift of the machine spreads over all of them. For every
end-to-end metric it prints the spread, the distance between the first and
third quartile as a share of the median, next to the metric's bound from
BENCHMARK.json; every spread must be within its bound. For the timings it
also prints the spread of the same runs' unscaled timings, read from their
records, which shows what the calibration scaling does. ``--against``
compares the medians with an earlier saved set of the same code.
``--counts`` runs ``--trace 1`` twice on the first seed and requires every
count metric to repeat exactly. Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import COUNTS  # noqa: E402
from run import BUILD, load_spec  # noqa: E402

# Seed 0 is the default seed of report.py; steadiness is judged on others.
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the full record of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    record = BUILD / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(record.read_text()))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, help="saved set to compare medians with")
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    earlier = json.loads(args.against.read_text()) if args.against else None
    ok = True
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    unscaled: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            line, record = run_once(w, seed, seconds, 0)
            ok &= line["correct"]
            for name, m in line["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name, v in record["detail"]["unscaled"].items():
                unscaled[w].setdefault(name, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in line["metrics"].items())
                + ("" if line["correct"] else "  INCORRECT"), flush=True)

    saved = BUILD / "steady.json"
    saved.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    print(f"\nspread = (Q3 - Q1) / median over {len(SEEDS)} seeds; saved {saved}")
    for w in workloads:
        for name, vals in values[w].items():
            med, sp = spread(vals)
            bound = bounds[name]
            verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            if sp > bound:
                ok = False
            line = (f"{w:17s} {name:12s} median {med:10.4f}  spread {sp:6.3f}  "
                    f"bound {bound:5.3f}  {verdict}")
            if name in unscaled[w]:
                line += f"  (unscaled spread {spread(unscaled[w][name])[1]:.3f})"
            if earlier and name in earlier.get(w, {}):
                base = statistics.median(earlier[w][name])
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (med - base) / base if better == "lower" else (base - med) / base
                line += f"  vs earlier median {base:.4f}: worse by {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += " OVER BOUND"
            print(line)

    if args.counts:
        for w in workloads:
            first, second = (run_once(w, SEEDS[0], seconds, 1)[0] for _ in range(2))
            for name in COUNTS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                same = a == b
                ok &= same
                print(f"{w:17s} {name:32s} {a} / {b}  {'identical' if same else 'DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
