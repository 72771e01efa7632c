#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads batch_fast,eval_sweep] [--trace 0]
                            [--out bench/baseline.json --label "<commit>"]

Each run is ``bench/run.py --workload <w> --seed <s> --seconds <run_seconds>
--trace <t>`` in a fresh process, as ``BENCHMARK.json`` specifies. For every
workload and metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. For end-to-end metrics it also
prints the metric's bound and flags a spread of a third of the bound or
more. ``--out`` writes all of it, with every run's values, into a JSON file
under the key ``trace_<t>``, next to the label, the machine, the line count
of ``src/`` and the map from each per-layer metric to its layer; keys that
the file already holds for the other trace mode are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def write_report(path: Path, args, spec: dict, report: dict) -> None:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    from layers import PER_LAYER

    out = json.loads(path.read_text()) if path.exists() else {}
    out.update({
        "label": args.label,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "run_seconds": spec["run_seconds"],
        "per_layer_map": [{"name": m.name, "layer": m.layer, "moves": m.moves, "shows_on": m.shows_on}
                          for m in PER_LAYER],
    })
    out.setdefault(f"trace_{args.trace}", {}).update(report)
    path.write_text(json.dumps(out, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", default="", help="what was measured, such as a commit")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report: dict = {}
    steady = True
    for workload in workloads:
        runs = [run_once(spec, workload, seed, args.trace) for seed in _seeds(args.seeds)]
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        steady &= correct
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, all correct: {correct}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        entry = {"seeds": args.seeds, "correct": correct, "wall_s": walls, "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary = summarise(values)
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            summary["values"] = values
            flag = ""
            if name in bounds:
                summary["bound"] = bounds[name]
                if summary["spread"] >= bounds[name] / 3:
                    flag = "  <-- spread >= bound/3"
                    steady = False
            entry["metrics"][name] = summary
            spread = "n/a" if summary["spread"] is None else f"{summary['spread']:.4f}"
            print(f"  {name:36s} median {summary['median']:12.6g} {summary['unit']:6s} "
                  f"spread {spread}"
                  + (f" (bound {bounds[name]})" if name in bounds else "") + flag)
        report[workload] = entry
    if args.out:
        write_report(Path(args.out), args, spec, report)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
