"""One command for every metric.

Usage (from the repository root):

    python3 perfbench/report.py [--save FILE] [--base FILE]

It runs every workload of BENCHMARK.json twice, with ``--trace 0`` and
``--trace 1``, at the default seed (whose stdout digests are recorded) and
the spec's ``run_seconds``. It saves the two full records of each workload
to one file (default ``.bench_build/perfbench/report.json``) and prints every
metric by name with its unit. With ``--base`` it also
prints the base value and the ratio new / base for each metric, and refuses
to compare two reports whose inputs differ: the digests of the generated
inputs must be identical. Exits 1 when an instance failed, 2 on refusal.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import BUILD, DEFAULT_SEED, load_spec  # noqa: E402


def collect(spec: dict) -> dict:
    seed, seconds = DEFAULT_SEED, spec["run_seconds"]
    report = {}
    for w in spec["workloads"]:
        name = w["name"]
        report[name] = {}
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            path = BUILD / "results" / f"{name}-seed{seed}-trace{trace}.json"
            report[name][f"trace{trace}"] = json.loads(path.read_text())
    return report


def input_mismatch(new: dict, base: dict) -> list[str]:
    """Workloads whose generated inputs differ between the two reports."""
    out = []
    for workload, runs in new.items():
        for key, rec in runs.items():
            other = base.get(workload, {}).get(key)
            if other is None or other["instances_sha256"] != rec["instances_sha256"]:
                out.append(f"{workload} ({key})")
    return out


def render(spec: dict, new: dict, base: dict | None) -> list[str]:
    lines = []
    for group, key in (("end_to_end", "trace0"), ("per_layer", "trace1")):
        for workload, runs in new.items():
            rec = runs[key]
            lines.append(f"[{workload}] {group}  seed {rec['seed']}, "
                         f"{rec['attempted']} attempted, {len(rec['failures'])} failed")
            if key == "trace0":
                share = len(rec["failures"]) / rec["attempted"]
                lines.append(f"  {'failed_share':32s} {share:14.6g} {'ratio':6s}"
                             "  (failed / attempted)")
            for m in spec[group]:
                value = rec["metrics"][m["name"]]
                text = f"  {m['name']:32s} {value:14.6g} {m['unit']:6s}"
                if base is not None:
                    b = base[workload][key]["metrics"][m["name"]]
                    ratio = f"{value / b:8.4f}" if b else "     n/a"
                    text += f"  base {b:14.6g}  new/base {ratio}"
                lines.append(text)
    return lines


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--save", type=Path, default=BUILD / "report.json")
    ap.add_argument("--base", type=Path, help="saved report to compare against")
    args = ap.parse_args()

    new = collect(spec)
    args.save.parent.mkdir(parents=True, exist_ok=True)
    args.save.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"saved {args.save}")
    base = json.loads(args.base.read_text()) if args.base else None
    if base is not None:
        mismatch = input_mismatch(new, base)
        if mismatch:
            print("refusing to compare: generated inputs differ for "
                  + ", ".join(mismatch), file=sys.stderr)
            return 2
        print(f"base: {args.base}")
    print("\n".join(render(spec, new, base)))
    failed = sum(len(r["failures"]) for runs in new.values() for r in runs.values())
    for runs in new.values():
        for r in runs.values():
            for f in r["failures"]:
                print(f"FAILED {f['instance']} ({f['pass']}): " + "; ".join(f["problems"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
