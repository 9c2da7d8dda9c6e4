"""Run one workload once per seed and report how much each metric spreads.

    python3 bench/steadiness.py --workload census-m3 --seeds 10 --first-seed 1

Runs bench/run.py one seed after another (--seeds seeds from --first-seed
on) with the BENCHMARK.json run length.  For each metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), the spread
(Q3 - Q1) / median and, for end-to-end metrics, the bound.  The last line is
the whole table as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()), flush=True)
    table = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        table[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}" + (
            "  OVER A THIRD" if spread > bound / 3 else "")
        print(f"{name:36} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{flag}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
